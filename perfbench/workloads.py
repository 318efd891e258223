"""The three workloads. Each runs omprag in process through its public API
with generated inputs and replayed model replies, and checks every result.

A run is: set-up (corpus ingest, manifest save/load, IDF fit, index build,
save and load), one untimed warm-up case, then whole rounds of the same
make-up until the timed segments add up to the requested seconds. Input
generation, replay recording and checks happen between timed segments.
"""

from __future__ import annotations

import contextlib
import random
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from omprag import bench, corpus, embedding, generation, harvest, index, pipeline, prompt
from omprag.config import PipelineConfig
from omprag.validation import CaseSpec

from . import checks, gen

K = 4


@dataclass
class Meter:
    """Wall and CPU time (this process plus waited-for children) over the
    timed segments; the tracer records spans only inside them."""

    tracer: object = None
    wall: float = 0.0
    cpu_self: float = 0.0
    cpu_children: float = 0.0

    @staticmethod
    def _cpu() -> tuple[float, float]:
        me = resource.getrusage(resource.RUSAGE_SELF)
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.active = True
        self._cpu0 = self._cpu()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self.wall += time.perf_counter() - self._t0
        me, kids = self._cpu()
        self.cpu_self += me - self._cpu0[0]
        self.cpu_children += kids - self._cpu0[1]
        if self.tracer is not None:
            self.tracer.active = False


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    prompt_tokens: list[int] = field(default_factory=list)

    def op(self, problems: list[str]) -> None:
        """One operation; it fails when any of its checks found a problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


@dataclass
class Retrieval:
    manifest: object
    embedder: object
    index: object
    oracle: checks.Oracle
    bodies: dict
    template: str


def build_retrieval(corpus_dir: Path, work: Path) -> Retrieval:
    """The set-up every workload pays, in the order the CLI stages run it."""
    manifest = corpus.ingest_corpus(corpus_dir)
    manifest.save(work / "corpus.jsonl")
    manifest = corpus.CorpusManifest.load(work / "corpus.jsonl")
    embedder = embedding.HashedTfidfEmbedder().fit(c.body for c in manifest.chunks)
    built = index.build_index(manifest, embedder)
    built.save(work / "index.jsonl")
    loaded = index.VectorIndex.load(work / "index.jsonl")
    oracle = checks.Oracle([e.chunk_id for e in loaded.entries],
                           [e.vector.values for e in loaded.entries])
    bodies = {c.chunk_id: c.body for c in manifest.chunks}
    return Retrieval(manifest, embedder, loaded, oracle, bodies, prompt.default_template())


def run_binary(binary: Path) -> str:
    return subprocess.run([str(binary)], capture_output=True, text=True, timeout=60).stdout


class Workload:
    """Base: subclasses build a round's inputs, run it, and check it."""

    name = ""
    round_size = 0

    def __init__(self, root: Path, work: Path, seed: int, nproc: int, tracer):
        self.root = root
        self.work = work
        self.seed = seed
        self.nproc = nproc
        self.tracer = tracer
        self.tally = Tally()
        self.rt: Retrieval | None = None

    def config(self, profile: str = "rag") -> PipelineConfig:
        return PipelineConfig(profile=profile, k=K, workers=self.nproc,
                              differential_threads=(1, self.nproc))

    def rng(self, round_index: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{round_index}")

    def prepare(self) -> None:
        """Generate the inputs set-up reads; not part of set-up time."""

    def corpus_dir(self) -> Path:
        return self.root / "src" / "omprag" / "data" / "tutorial"

    def setup(self) -> None:
        self.rt = build_retrieval(self.corpus_dir(), self.work)

    def after_setup(self) -> None:
        """Checks of the set-up's products; untimed."""

    def record(self, replay_dir: Path, case_id: str, source: str, code: str, rag: bool):
        """Record the reply to a case under the prompt the pipeline must
        render: rag prompts carry the oracle's top-k. Returns the query vector."""
        rt = self.rt
        hits, query = [], None
        if rag:
            query = rt.embedder.embed(source).values
            ids, scores = rt.oracle.topk(query, K)
            hits = [index.RetrievalHit(cid, float(scores[rt.oracle.rows[cid]]), rank)
                    for rank, cid in enumerate(ids, start=1)]
        manifest = rt.manifest if rag else corpus.CorpusManifest()
        bundle = prompt.build_prompt(source, hits, manifest, rt.template)
        generation.write_record(replay_dir, case_id, bundle.rendered, gen.reply_text(code))
        return query

    def prompt_problems(self, case_dir: Path, source: str, code: str, query) -> list[str]:
        """Retrieval, prompt and extraction checks on one case's artifacts;
        ``query`` is None for a baseline prompt."""
        name = case_dir.name
        error = case_dir / "transform_error.txt"
        if error.is_file():
            return [f"{name}: {error.read_text(encoding='utf-8').strip()}"]
        rendered = (case_dir / "prompt.txt").read_text(encoding="utf-8")
        self.tally.prompt_tokens.append(len(rendered.split()))
        blocks = prompt.extract_context_blocks(rendered)
        problems = []
        if query is not None:
            problem = checks.context_problem(blocks, self.rt.bodies, self.rt.oracle, query, K)
            if problem:
                problems.append(f"{name}: {problem}")
        elif blocks:
            problems.append(f"{name}: baseline prompt carries context")
        if prompt.extract_serial_code(rendered) != source:
            problems.append(f"{name}: serial code not recovered byte for byte")
        generated = case_dir / "generated.cpp"
        if (not generated.is_file()
                or generated.read_text(encoding="utf-8") != gen.expected_code(code)):
            problems.append(f"{name}: generated.cpp differs from the reply's code")
        return problems

    def run_round(self, round_index: int, meter, warmup: bool = False) -> None:
        raise NotImplementedError

    def guarded_round(self, round_index: int, meter) -> None:
        """A round in which the program raised counts all its operations failed."""
        before = (self.tally.attempted, self.tally.failed)
        try:
            self.run_round(round_index, meter)
        except Exception:  # the program raised: record it and go on
            traceback.print_exc(file=sys.stderr)
            self.tally.attempted = before[0] + self.round_size
            self.tally.failed = before[1] + self.round_size
            self.tally.problems.append(f"round {round_index} raised")

    def warmup(self) -> None:
        """One untimed case through the workload's path; its checks still count
        towards ``correct`` but it is no operation."""
        saved, self.tally = self.tally, Tally()
        try:
            self.run_round(-1, contextlib.nullcontext(), warmup=True)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.tally.problems.append("warm-up raised")
        saved.problems.extend(f"warm-up: {p}" for p in self.tally.problems)
        self.tally = saved


# --------------------------------------------------------------------------


class RetrieveWorkload(Workload):
    """Large synthetic corpus, rag transform only: embedding, index and prompt
    layers do nearly all the work and no compiler runs."""

    name = "retrieve"
    round_size = 7 * len(gen.FAMILIES)
    docs = 320
    sections = 3
    self_queries = 8

    def prepare(self) -> None:
        self.spec = gen.make_corpus(random.Random(f"corpus:{self.seed}"), self.docs,
                                    self.sections)
        gen.write_corpus(self.spec, self.work / "corpus")

    def corpus_dir(self) -> Path:
        return self.work / "corpus"

    def after_setup(self) -> None:
        rt = self.rt
        if [(c.chunk_id, c.body) for c in rt.manifest.chunks] != self.spec.chunks:
            self.tally.problems.append("ingested chunks differ from the generated sections")
        if len(rt.index) != len(self.spec.chunks):
            self.tally.problems.append(f"index holds {len(rt.index)} entries")
        sample = random.Random(f"self:{self.seed}").sample(self.spec.chunks, self.self_queries)
        for chunk_id, body in sample:
            problem = checks.self_query_problem(
                rt.index.query_topk(rt.embedder.embed(body), K), chunk_id)
            if problem:
                self.tally.problems.append(problem)

    def run_round(self, round_index: int, meter, warmup: bool = False) -> None:
        rng = self.rng(round_index)
        round_dir = self.work / f"round{round_index}"
        src_dir, replay_dir, out_dir = (round_dir / d for d in ("src", "replay", "out"))
        src_dir.mkdir(parents=True)
        cases, expect = [], {}
        for j in range(1 if warmup else self.round_size):
            gid = (round_index + 1) * 1000 + j
            kernel = gen.make_kernel(rng, gen.FAMILIES[j % len(gen.FAMILIES)], gid)
            case = CaseSpec(case_id=f"case{gid}", serial_path=str(src_dir / f"case{gid}.cc"))
            Path(case.serial_path).write_text(kernel.source, encoding="utf-8")
            code = gen.parallelize(kernel.source, kernel)
            query = self.record(replay_dir, case.case_id, kernel.source, code, rag=True)
            expect[case.case_id] = (kernel.source, code, query)
            cases.append(case)
        deps = pipeline.PipelineDeps(
            provider=generation.ReplayProvider(replay_dir), template=self.rt.template,
            corpus_manifest=self.rt.manifest, index=self.rt.index, embedder=self.rt.embedder)
        with meter:
            pipeline.transform_cases(cases, self.config(), deps, out_dir)
        for case in cases:
            self.tally.op(self.prompt_problems(out_dir / "cases" / case.case_id,
                                               *expect[case.case_id]))
        shutil.rmtree(round_dir)


class ValidateWorkload(Workload):
    """Bundled corpus, distinct kernels through run_pipeline: the compile gate
    and differential validation do nearly all the work."""

    name = "validate"
    round_size = 2 * len(gen.FAMILIES)

    def plan(self, round_index: int, size: int) -> list[tuple[str, str]]:
        """(family, variant) per case: every family twice, all replies correct
        but one compile fault, of a category that rotates with the round, and
        one lost reduction; the families that carry the two rotate as well."""
        families = len(gen.FAMILIES)
        plan = [(gen.FAMILIES[j % families], gen.PASS) for j in range(size)]
        if size == self.round_size:
            fault = round_index % families
            plan[fault] = (plan[fault][0],
                           gen.FAULT_CATEGORIES[round_index % len(gen.FAULT_CATEGORIES)])
            lost = families + (round_index + families // 2) % families
            plan[lost] = (plan[lost][0], gen.LOST_REDUCTION)
        return plan

    def run_round(self, round_index: int, meter, warmup: bool = False) -> None:
        rng = self.rng(round_index)
        round_dir = self.work / f"round{round_index}"
        src_dir, replay_dir, out_dir = (round_dir / d for d in ("src", "replay", "out"))
        src_dir.mkdir(parents=True)
        cases, expect = [], {}
        plan = self.plan(round_index, 1 if warmup else self.round_size)
        for j, (family, variant) in enumerate(plan):
            gid = (round_index + 1) * 1000 + j
            kernel = gen.make_kernel(rng, family, gid)
            case = CaseSpec(case_id=f"case{gid}", serial_path=str(src_dir / f"case{gid}.cc"))
            Path(case.serial_path).write_text(kernel.source, encoding="utf-8")
            code = gen.parallelize(kernel.source, kernel, variant)
            query = self.record(replay_dir, case.case_id, kernel.source, code, rag=True)
            outcome = gen.MISMATCH if variant == gen.LOST_REDUCTION else variant
            expect[case.case_id] = (kernel, code, query, outcome)
            cases.append(case)
        deps = pipeline.PipelineDeps(
            provider=generation.ReplayProvider(replay_dir), template=self.rt.template,
            corpus_manifest=self.rt.manifest, index=self.rt.index, embedder=self.rt.embedder)
        with meter:
            reports, summary = pipeline.run_pipeline(cases, self.config(), deps, out_dir)
        for case, report in zip(cases, reports):
            kernel, code, query, outcome = expect[case.case_id]
            case_dir = out_dir / "cases" / case.case_id
            problems = self.prompt_problems(case_dir, kernel.source, code, query)
            problem = checks.report_problem(report, outcome)
            if problem is None and outcome in checks.COMPILED:
                problem = checks.output_problem(
                    run_binary(case_dir / "build_serial" / "case.bin"), kernel.acc, kernel.value)
            if problem:
                problems.append(f"{case.case_id}: {problem}")
            self.tally.op(problems)
        problem = checks.summary_problem(summary, [expect[c.case_id][3] for c in cases])
        if problem:
            self.tally.problems.append(problem)
        shutil.rmtree(round_dir)


class SuiteWorkload(Workload):
    """The paper's experiment: harvest recorded Q&A pages, then carry the
    survivors through the baseline and rag profiles and compare the two."""

    name = "suite"
    survivors = len(gen.FAMILIES)
    baseline_faults = 1
    round_size = survivors + len(gen.REJECTION_REASONS)
    max_pages = 2
    profiles = ("baseline", "rag")

    def run_round(self, round_index: int, meter, warmup: bool = False) -> None:
        rng = self.rng(round_index)
        round_dir = self.work / f"round{round_index}"
        gid_base = (round_index + 1) * 1000
        files, items = gen.harvest_pages(
            rng, harvest.CATEGORIES, round_index, gid_base,
            survivors=1 if warmup else self.survivors,
            baseline_faults=0 if warmup else self.baseline_faults, rejects=not warmup)
        gen.write_pages(files, round_dir / "pages")
        api = harvest.FixtureQaApi(round_dir / "pages")
        candidates, survivors = [], []
        with meter:
            for category in harvest.CATEGORIES:
                for raw in harvest.fetch_candidates(category, self.max_pages, api):
                    candidate = harvest.clean_and_filter(raw)
                    if candidate.rejection_reason is None:
                        candidate = harvest.compile_filter(candidate, round_dir / "gate")
                    candidates.append(candidate)
                    if candidate.rejection_reason is None:
                        survivors.append(candidate)
            specs = harvest.build_case_manifest(survivors, round_dir / "cases",
                                                start_index=gid_base)

        problems: dict[str, list[str]] = {item.origin_url: [] for item in items}
        by_url = {item.origin_url: item for item in items}
        if [c.origin_url for c in candidates] != list(by_url):
            self.tally.problems.append(
                f"round {round_index}: harvested candidates differ from the recorded pages")
        harvested = {c.origin_url: c for c in candidates}
        for url, item in by_url.items():
            if url not in harvested:
                problems[url].append(f"candidate {url} was never harvested")
                continue
            problem = checks.reason_problem(harvested[url], item.reason)
            if problem:
                problems[url].append(problem)
        kept = [(spec, by_url[c.origin_url]) for spec, c in zip(specs, survivors)
                if c.origin_url in by_url and by_url[c.origin_url].kernel is not None]
        expected = {
            "baseline": [item.baseline_variant for _, item in kept],
            "rag": [gen.PASS for _ in kept],
        }
        replies = {}
        for profile in self.profiles:
            for (spec, item), variant in zip(kept, expected[profile]):
                source = Path(spec.serial_path).read_text(encoding="utf-8")
                code = gen.parallelize(source, item.kernel, variant, style=profile)
                query = self.record(round_dir / f"replay_{profile}", spec.case_id, source,
                                    code, rag=profile == "rag")
                replies[profile, spec.case_id] = (source, code, query)

        cases = [spec for spec, _ in kept]
        summaries, reports = {}, {}
        with meter:
            for profile in self.profiles:
                deps = pipeline.PipelineDeps(
                    provider=generation.ReplayProvider(round_dir / f"replay_{profile}"),
                    template=self.rt.template)
                if profile == "rag":
                    deps.corpus_manifest = self.rt.manifest
                    deps.index = self.rt.index
                    deps.embedder = self.rt.embedder
                reports[profile], summaries[profile] = pipeline.run_pipeline(
                    cases, self.config(profile), deps, round_dir / profile)
            table = pipeline.render_comparison(
                [(profile, summaries[profile]) for profile in self.profiles])

        for profile in self.profiles:
            for (spec, item), report, outcome in zip(kept, reports[profile], expected[profile]):
                case_dir = round_dir / profile / "cases" / spec.case_id
                found = problems[item.origin_url]
                found += self.prompt_problems(case_dir, *replies[profile, spec.case_id])
                problem = checks.report_problem(report, outcome)
                if problem is None and profile == "rag":
                    problem = checks.output_problem(
                        run_binary(case_dir / "build_serial" / "case.bin"), item.kernel.acc,
                        item.kernel.value, prefix="RESULT ")
                if problem:
                    found.append(f"{profile} {spec.case_id}: {problem}")
            problem = checks.summary_problem(summaries[profile], expected[profile])
            if problem:
                self.tally.problems.append(f"{profile}: {problem}")
        problem = checks.comparison_problem(
            table, [(profile, expected[profile]) for profile in self.profiles])
        if problem:
            self.tally.problems.append(problem)
        if not warmup:
            for url in by_url:
                self.tally.op(problems[url])
            if self.tracer is not None:
                self.sweep(round_dir, cases)
        shutil.rmtree(round_dir)

    def sweep(self, round_dir: Path, cases) -> None:
        """Traced runs only, untimed: a thread sweep over the accepted rag binaries."""
        threads = tuple(range(1, self.nproc + 1))
        self.tracer.active = True
        try:
            for case in cases:
                binary = round_dir / "rag" / "cases" / case.case_id / "build" / "case.bin"
                bench.run_sweep(case.case_id, binary, threads, repetitions=1)
        finally:
            self.tracer.active = False


WORKLOADS = {w.name: w for w in (RetrieveWorkload, ValidateWorkload, SuiteWorkload)}
