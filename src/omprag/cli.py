"""Command-line interface: each pipeline stage as a subcommand.

Stages compose through files: ``ingest`` and ``index`` prepare the
retrieval side, ``harvest`` builds a case manifest, ``transform`` turns
serial cases into generated OpenMP code, ``validate`` gates and checks
them, ``bench`` times accepted binaries, ``report`` renders summaries,
and ``run`` chains transform + validate end to end.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__
from .bench import (
    BenchLock,
    bench_cases,
    compute_speedups,
    import_records,
    render_runtime_table,
    write_records_csv,
    write_speedup_series,
    write_speedups_csv,
)
from .config import PROFILES, PipelineConfig, load_config
from .corpus import CorpusManifest, ingest_corpus
from .embedding import HashedTfidfEmbedder, RemoteEmbedder
from .errors import EnvironmentFailure, OmpragError, ParseError, UsageError
from .generation import ChatHttpProvider, RecordingProvider, ReplayProvider
from .harvest import CATEGORIES, FixtureQaApi, HttpQaApi, harvest_cases
from .index import VectorIndex, build_index
from .pipeline import (
    PipelineDeps,
    render_comparison,
    report as render_report,
    run_pipeline,
    summarize,
    transform_cases,
    validate_and_report,
)
from .prompt import load_template
from .validation import ValidationReport, load_case_manifest, load_jsonl, save_jsonl


def builtin_corpus_dir() -> Path:
    return Path(__file__).parent / "data" / "tutorial"


def builtin_keywords_path() -> Path:
    return Path(__file__).parent / "data" / "harvest_keywords.json"


def _load_keywords(path: Path) -> dict[str, str]:
    """A keywords file: a JSON object that maps each category to its query."""
    try:
        keywords = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ParseError(f"{path}: cannot read the keywords file: {exc.strerror}") from exc
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ParseError(f"{path}: keywords file is not UTF-8 JSON: {exc}") from exc
    if not isinstance(keywords, dict) or not all(
        isinstance(v, str) for v in keywords.values()
    ):
        raise ParseError(f"{path}: keywords file is not an object that maps strings to strings")
    return keywords


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    """Every parsed flag whose dest names a PipelineConfig field overrides it."""
    overrides = {f.name: getattr(args, f.name, None) for f in fields(PipelineConfig)}
    return load_config(getattr(args, "config", None), overrides)


def _make_embedder(cfg: PipelineConfig, manifest: CorpusManifest):
    if cfg.embed_endpoint:
        return RemoteEmbedder(cfg.embed_endpoint, cfg.embed_model, cfg.embed_api_key)
    return HashedTfidfEmbedder().fit(chunk.body for chunk in manifest.chunks)


def _make_provider(cfg: PipelineConfig):
    if cfg.replay_dir:
        return ReplayProvider(cfg.replay_dir)
    if cfg.chat_endpoint:
        provider = ChatHttpProvider(cfg.chat_endpoint, cfg.chat_api_key)
        if cfg.record_dir:
            return RecordingProvider(provider, cfg.record_dir)
        return provider
    raise UsageError("configure either a replay directory or a chat endpoint")


# --------------------------------------------------------------------------
# Subcommand handlers
# --------------------------------------------------------------------------

def cmd_ingest(args: argparse.Namespace) -> int:
    root = Path(args.root) if args.root else builtin_corpus_dir()
    manifest = ingest_corpus(root, max_tokens=args.max_tokens)
    manifest.save(args.out)
    print(f"ingested {len(manifest.chunks)} chunks from {root} -> {args.out}")
    return 0


def cmd_index(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    manifest = CorpusManifest.load(args.manifest)
    embedder = _make_embedder(cfg, manifest)
    index = build_index(manifest, embedder)
    index.save(args.out)
    print(f"indexed {len(index)} chunks (provider {index.provider_tag}) -> {args.out}")
    return 0


def cmd_harvest(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    if args.fixture_dir:
        api = FixtureQaApi(args.fixture_dir)
    elif args.endpoint:
        keywords_path = Path(args.keywords) if args.keywords else builtin_keywords_path()
        api = HttpQaApi(
            args.endpoint,
            os.environ.get("OMPRAG_QA_API_KEY"),
            keywords=_load_keywords(keywords_path),
        )
    else:
        raise UsageError("harvest needs --fixture-dir (offline) or --endpoint (live)")
    candidates, specs = harvest_cases(
        args.categories or list(CATEGORIES), api, args.cases_dir, cfg,
        max_pages=args.max_pages, min_lines=args.min_lines, start_index=args.start_index,
    )
    rejected = sum(c.rejection_reason is not None for c in candidates)
    save_jsonl(specs, args.case_manifest)
    print(
        f"harvested {len(specs)} cases ({rejected} rejected) -> "
        f"{args.cases_dir}, manifest {args.case_manifest}"
    )
    return 0


def _load_retrieval(cfg: PipelineConfig, args: argparse.Namespace) -> PipelineDeps:
    template = load_template(cfg.template_path or None)
    provider = _make_provider(cfg)
    deps = PipelineDeps(provider=provider, template=template)
    if cfg.profile == "rag":
        if not args.corpus_manifest or not args.index:
            raise UsageError("rag profile needs --corpus-manifest and --index")
        deps.corpus_manifest = CorpusManifest.load(args.corpus_manifest)
        deps.embedder = _make_embedder(cfg, deps.corpus_manifest)
        deps.index = VectorIndex.load(args.index)
        if deps.index.provider_tag != deps.embedder.provider_tag:
            raise UsageError(
                f"index provider {deps.index.provider_tag!r} does not match the "
                f"configured embedder {deps.embedder.provider_tag!r}; rebuild the index"
            )
    return deps


def cmd_transform(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    cases = load_case_manifest(args.case_manifest)
    deps = _load_retrieval(cfg, args)
    transform_cases(cases, cfg, deps, cfg.out_dir)
    print(f"transformed {sum(1 for c in cases if not c.unparallelizable)} cases -> {cfg.out_dir}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    cases = load_case_manifest(args.case_manifest)
    reports, _ = validate_and_report(cases, cfg, cfg.out_dir)
    print(render_report(reports, "text"), end="")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    cases = load_case_manifest(args.case_manifest)
    deps = _load_retrieval(cfg, args)
    reports, _ = run_pipeline(cases, cfg, deps, cfg.out_dir)
    print(render_report(reports, "text"), end="")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.import_csv:
        records = import_records(args.import_csv)
    else:
        if not args.case_manifest:
            raise UsageError("bench needs --case-manifest unless --import-csv is given")
        cases = load_case_manifest(args.case_manifest)
        with BenchLock(args.lock_file or out_dir / "bench.lock"):
            records = bench_cases(cases, cfg, args.run_dir or cfg.out_dir)
    rows = compute_speedups(records)
    write_records_csv(records, out_dir / "records.csv")
    write_speedups_csv(rows, out_dir / "speedups.csv")
    write_speedup_series(rows, out_dir / "speedup_series.csv")
    table = render_runtime_table(records)
    (out_dir / "runtime_table.txt").write_text(table, encoding="utf-8")
    print(table, end="")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    labeled = []
    for spec in args.reports:
        label, _, path = spec.rpartition("=")
        path = Path(path)
        label = label or path.stem
        labeled.append((label, load_jsonl(path, ValidationReport)))
    if len(labeled) == 1:
        print(render_report(labeled[0][1], args.format), end="")
    else:
        if args.format != "text":
            raise UsageError("comparison reports only render as text")
        print(render_comparison([(label, summarize(reports)) for label, reports in labeled]),
              end="")
    return 0


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="INI config file")
    parser.add_argument("--out-dir", dest="out_dir", help="artifact directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omprag",
        description="Retrieval-grounded OpenMP parallelization pipeline for C++.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="chunk a tutorial corpus into a manifest")
    p.add_argument("--root", help="corpus directory (default: bundled tutorial)")
    p.add_argument("--out", required=True, help="manifest JSONL path")
    p.add_argument("--max-tokens", type=int, default=400)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("index", help="embed a manifest into a vector index")
    _add_common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--embed-endpoint", dest="embed_endpoint")
    p.add_argument("--embed-model", dest="embed_model")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("harvest", help="collect and filter snippets into cases")
    p.add_argument("--config", help="INI config file")
    p.add_argument("--fixture-dir", help="recorded API pages (offline mode)")
    p.add_argument("--endpoint", help="live Q&A API endpoint")
    p.add_argument("--keywords", help="JSON file of category -> query keywords")
    p.add_argument("--categories", nargs="*", help="subset of categories")
    p.add_argument("--max-pages", type=int, default=15)
    p.add_argument("--min-lines", type=int, default=10)
    p.add_argument("--start-index", type=int, default=1)
    p.add_argument("--cases-dir", required=True)
    p.add_argument("--case-manifest", required=True)
    p.set_defaults(func=cmd_harvest)

    for name, handler in (("transform", cmd_transform), ("run", cmd_run)):
        p = sub.add_parser(
            name,
            help="retrieve+prompt+generate+extract" + ("" if name == "transform" else "+validate"),
        )
        _add_common(p)
        p.add_argument("--case-manifest", required=True)
        p.add_argument("--corpus-manifest")
        p.add_argument("--index")
        p.add_argument("--profile", choices=PROFILES)
        p.add_argument("--k", type=int)
        p.add_argument("--model")
        p.add_argument("--temperature", type=float)
        p.add_argument("--replay-dir", dest="replay_dir")
        p.add_argument("--record-dir", dest="record_dir")
        p.add_argument("--chat-endpoint", dest="chat_endpoint")
        p.add_argument("--template", dest="template_path")
        p.add_argument("--workers", type=int)
        p.add_argument("--differential-threads", dest="differential_threads")
        p.set_defaults(func=handler)

    p = sub.add_parser("validate", help="compile gate + differential check")
    _add_common(p)
    p.add_argument("--case-manifest", required=True)
    p.add_argument("--differential-threads", dest="differential_threads")
    p.add_argument("--workers", type=int)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("bench", help="thread-sweep accepted binaries or imported times")
    _add_common(p)
    p.add_argument("--case-manifest")
    p.add_argument("--run-dir", dest="run_dir",
                   help="validate/run out-dir holding reports.jsonl and each "
                        "case's build/case.bin (default: --out-dir)")
    p.add_argument("--import-csv", dest="import_csv",
                   help="skip measuring; compute speedups from a records CSV")
    p.add_argument("--threads-sweep", dest="thread_sweep")
    p.add_argument("--repetitions", type=int)
    p.add_argument("--lock-file")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("report", help="render summaries from report files")
    p.add_argument("--reports", action="append", required=True,
                   metavar="[LABEL=]PATH", help="repeatable")
    p.add_argument("--format", default="text", choices=("text", "csv", "json"))
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except EnvironmentFailure as exc:
        print(f"environment error: {exc}", file=sys.stderr)
        return 1
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OmpragError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
