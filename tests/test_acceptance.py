"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Each test prints one `[acceptance] criterion N: PASS` line on success.
Criteria 6 and 7 are environment-sensitive (they need real cores to show
races and scaling) and skip rather than fail on hosts that cannot
exercise them.
"""

from __future__ import annotations

import math
import os
import random
import time
from pathlib import Path

import pytest

from omprag.bench import compute_speedups, import_records, run_sweep
from omprag.config import load_config
from omprag.embedding import HashedTfidfEmbedder, cosine_similarity
from omprag.generation import ReplayProvider
from omprag.harvest import RejectionReason, SnippetCandidate, clean_and_filter, compile_filter
from omprag.index import IndexEntry, VectorIndex
from omprag.pipeline import PipelineDeps, report, run_pipeline, summarize
from omprag.validation import (
    FailureCategory,
    ValidationReport,
    Verdict,
    classify_failure,
    compile_gate,
    differential_validate,
    load_jsonl,
)

from conftest import FIXTURES, requires_compiler

import omprag

DATA = Path(omprag.__file__).parent / "data"
CORES = os.cpu_count() or 1

environment_sensitive = pytest.mark.environment_sensitive


def _passed(number: int, note: str) -> None:
    print(f"[acceptance] criterion {number}: PASS — {note}")


# --------------------------------------------------------------------------
# 1. Retrieval exactness against a brute-force oracle
# --------------------------------------------------------------------------

_WORDS = (
    "pragma omp parallel for reduction shared private collapse atomic "
    "schedule static dynamic loop index sum array matrix vector thread "
    "stencil grid histogram sort kernel bound iteration clause scope"
).split()


def _random_text(rng: random.Random) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(rng.randint(3, 12)))


def _oracle_full_sort(entries, query):
    """Independent full-sort oracle over the canonical cosine, with an
    exact-arithmetic fsum cross-check on every score."""
    scored = []
    for e in entries:
        score = cosine_similarity(query, e.vector)
        exact = math.fsum(a * b for a, b in zip(e.vector.values, query.values))
        assert abs(score - exact) <= 1e-9
        scored.append((e.chunk_id, score))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored


def test_criterion_01_retrieval_exactness():
    rng = random.Random(20240811)
    embedder = HashedTfidfEmbedder()
    start = time.perf_counter()
    sizes = [200, 200, 1, 2] + [rng.randint(2, 60) for _ in range(96)]
    assert len(sizes) == 100
    for corpus_no, n in enumerate(sizes):
        texts = [_random_text(rng) for _ in range(n)]
        for i in range(0, n, 7):  # duplicates force score ties
            if i + 1 < n:
                texts[i + 1] = texts[i]
        entries = [
            IndexEntry(f"c{i:03d}", embedder.embed(text)) for i, text in enumerate(texts)
        ]
        index = VectorIndex(entries, embedder.provider_tag, embedder.dimension)
        query = embedder.embed(
            texts[rng.randrange(n)] if rng.random() < 0.5 else _random_text(rng)
        )
        full_sort = _oracle_full_sort(entries, query)
        for k in (1, 4, n):
            hits = index.query_topk(query, k)
            expected = full_sort[:k]
            assert [h.chunk_id for h in hits] == [cid for cid, _ in expected], (
                f"corpus {corpus_no} (n={n}, k={k}): id list diverged from oracle"
            )
            for hit, (_, score) in zip(hits, expected):
                assert abs(hit.score - score) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"retrieval exactness sweep took {elapsed:.1f}s"
    _passed(1, f"100 corpora, k in {{1,4,n}}, oracle-exact in {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 2. Outcome-summary arithmetic over the bundled 108-case fixture
# --------------------------------------------------------------------------

def test_criterion_02_outcome_summary_arithmetic():
    start = time.perf_counter()
    baseline = load_jsonl(DATA / "reference_outcomes" / "baseline.jsonl", ValidationReport)
    augmented = load_jsonl(DATA / "reference_outcomes" / "augmented.jsonl", ValidationReport)
    assert len(baseline) == len(augmented) == 108

    b = summarize(baseline)
    assert (b.total_cases, b.compile_success, b.fixable_failures,
            b.excluded_unparallelizable) == (108, 82, 20, 6)
    assert b.effective_success_rate == pytest.approx(82 / 102)
    b_text = report(baseline, "text")
    assert "82/108 (75.9%)" in b_text
    assert "82/102 (80.4%)" in b_text

    a = summarize(augmented)
    assert (a.total_cases, a.compile_success, a.fixable_failures,
            a.excluded_unparallelizable) == (108, 102, 0, 6)
    assert a.effective_success_rate == 1.0
    a_text = report(augmented, "text")
    assert "102/108 (94.4%)" in a_text
    assert "102/102 (100.0%)" in a_text

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(2, "baseline 82/108 (75.9%), augmented 102/108 (94.4%), 6 excluded")


# --------------------------------------------------------------------------
# 3. Speedup reproduction from the bundled reference runtimes
# --------------------------------------------------------------------------

def test_criterion_03_speedup_reproduction():
    start = time.perf_counter()
    records = import_records(DATA / "reference_runtimes.csv")
    assert len(records) == 28
    rows = {(r.case_id, r.threads): r.speedup for r in compute_speedups(records)}
    assert rows[("matrix_multiply", 8)] == pytest.approx(7.922, abs=1e-3)
    assert rows[("jacobi2d", 8)] == pytest.approx(5.737, abs=1e-3)
    assert rows[("histogram", 2)] == pytest.approx(0.805, abs=1e-3)
    assert rows[("histogram", 2)] < 1.0  # the slowdown is reported, never clamped
    assert all(rows[(case, 1)] == 1.0 for case, t in rows if t == 1)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(3, "28 imported records; 7.922x, 5.737x, and the 0.805x slowdown reproduced")


# --------------------------------------------------------------------------
# 4. Failure-taxonomy coverage over deliberately broken programs
# --------------------------------------------------------------------------

_BROKEN_EXPECTATIONS = {
    "undeclared_in_clause.cpp": FailureCategory.UNDECLARED_IN_CLAUSE,
    "invalid_reduction.cpp": FailureCategory.INVALID_REDUCTION,
    "atomic_misuse.cpp": FailureCategory.ATOMIC_MISUSE,
    "default_none_violation.cpp": FailureCategory.DEFAULT_NONE_VIOLATION,
    "syntax_error.cpp": FailureCategory.SYNTAX_ERROR,
    "collapse_misuse.cpp": FailureCategory.COLLAPSE_MISUSE,
    "iterator_limitation.cpp": FailureCategory.ITERATOR_LIMITATION,
    "deprecated_construct.cpp": FailureCategory.DEPRECATED_CONSTRUCT,
    "other_compile_error.cpp": FailureCategory.OTHER_COMPILE_ERROR,
}


@requires_compiler
def test_criterion_04_failure_taxonomy_coverage(tmp_path):
    start = time.perf_counter()
    outcomes = []
    for name, expected in _BROKEN_EXPECTATIONS.items():
        source = (FIXTURES / "broken" / name).read_text()
        result = compile_gate(source, tmp_path / name.removesuffix(".cpp"))
        assert not result.ok, f"{name} unexpectedly compiled"
        got = classify_failure(result.diagnostics, source)
        outcomes.append((name, expected, got))
    wrong = [(n, e.value, g.value) for n, e, g in outcomes if e is not g]
    assert not wrong, f"misclassified fixtures: {wrong}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _passed(4, f"{len(outcomes)}/{len(outcomes)} broken programs classified exactly "
               f"in {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 5. Hermetic end-to-end replay run
# --------------------------------------------------------------------------

@requires_compiler
def test_criterion_05_hermetic_end_to_end(mini_env, tmp_path, no_network):
    start = time.perf_counter()
    cfg = load_config()
    deps = PipelineDeps(
        provider=ReplayProvider(mini_env.replay_dirs["rag"]),
        template=mini_env.template,
        corpus_manifest=mini_env.manifest,
        index=mini_env.index,
        embedder=mini_env.embedder,
    )
    reports_a, summary_a = run_pipeline(mini_env.cases, cfg, deps, tmp_path / "a")
    reports_b, _ = run_pipeline(mini_env.cases, cfg, deps, tmp_path / "b")
    assert len(reports_a) == 5
    assert all(r.compile_ok for r in reports_a)
    assert all(r.differential_verdict is Verdict.PASS for r in reports_a)
    assert summary_a.effective_success_rate == 1.0
    for name in ("reports.jsonl", "summary.json", "summary.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _passed(5, f"5 replayed cases, zero network calls, byte-identical reports "
               f"in {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 6. Differential validation soundness (environment-sensitive)
# --------------------------------------------------------------------------

_RACY_SOURCE = """\
#include <cstdio>
#include <vector>
int main() {
    const int n = 4000000;
    std::vector<int> a(n, 1);
    long long sum = 0;
    #pragma omp parallel for
    for (int i = 0; i < n; ++i) {
        sum += a[i];   // shared accumulator without a reduction clause
    }
    std::printf("sum=%lld\\n", sum);
    return 0;
}
"""

_RACY_SERIAL = """\
#include <cstdio>
#include <vector>
int main() {
    const int n = 4000000;
    std::vector<int> a(n, 1);
    long long sum = 0;
    for (int i = 0; i < n; ++i) {
        sum += a[i];
    }
    std::printf("sum=%lld\\n", sum);
    return 0;
}
"""


@requires_compiler
@environment_sensitive
def test_criterion_06_differential_soundness(tmp_path):
    # correct reduction fixture: Pass at 1 and 8 threads
    serial = compile_gate(
        (FIXTURES / "cases" / "case2.cc").read_text(), tmp_path / "serial", openmp=False
    )
    parallel = compile_gate(
        (FIXTURES / "cases" / "case2_omp.cc").read_text(), tmp_path / "parallel"
    )
    assert serial.ok and parallel.ok
    assert differential_validate(serial.binary, parallel.binary, [1, 8]) is Verdict.PASS

    # racy fixture: a mismatch (or crash) must surface at 8 threads
    racy_serial = compile_gate(_RACY_SERIAL, tmp_path / "racy_serial", openmp=False)
    racy = compile_gate(_RACY_SOURCE, tmp_path / "racy")
    assert racy_serial.ok and racy.ok
    observed = None
    for trial in range(20):
        verdict = differential_validate(racy_serial.binary, racy.binary, [8])
        if verdict in (Verdict.MISMATCH, Verdict.RUNTIME_ERROR):
            observed = (trial + 1, verdict)
            break
    if observed is None:
        if CORES < 4:
            pytest.skip(
                f"race did not surface in 20 trials on a {CORES}-core host; "
                f"criterion is stated for hosts with >= 4 cores"
            )
        pytest.fail("racy fixture never diverged in 20 trials on a >=4-core host")
    _passed(6, f"correct reduction passes; race surfaced as {observed[1].value} "
               f"on trial {observed[0]}")


# --------------------------------------------------------------------------
# 7. Scaling sanity (environment-sensitive, non-gating)
# --------------------------------------------------------------------------

_MATMUL_BENCH = """\
#include <cstdio>
#include <vector>
#include <omp.h>
int main() {
    const int n = 512;
    std::vector<double> a(n * n), b(n * n), c(n * n, 0.0);
    for (int i = 0; i < n * n; ++i) {
        a[i] = (i % 13) * 0.25;
        b[i] = (i % 17) * 0.5;
    }
    double t0 = omp_get_wtime();
    #pragma omp parallel for
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
            double sum = 0.0;
            for (int k = 0; k < n; ++k) {
                sum += a[i * n + k] * b[k * n + j];
            }
            c[i * n + j] = sum;
        }
    }
    double t1 = omp_get_wtime();
    std::printf("c0=%.6f\\n", c[0]);
    std::printf("ELAPSED_SECONDS=%.6f\\n", t1 - t0);
    return 0;
}
"""


@requires_compiler
@environment_sensitive
@pytest.mark.skipif(
    CORES < 4, reason=f"scaling criterion is stated for >= 4 cores; host has {CORES}"
)
def test_criterion_07_scaling_sanity(tmp_path):
    built = compile_gate(_MATMUL_BENCH, tmp_path)
    assert built.ok, built.diagnostics
    records = run_sweep("matmul512", built.binary, thread_counts=[1, 4], repetitions=2)
    rows = {r.threads: r.speedup for r in compute_speedups(records)}
    assert rows[4] >= 1.5, f"4-thread speedup {rows[4]:.2f} below 1.5"
    _passed(7, f"512^3 matrix multiply reached {rows[4]:.2f}x at 4 threads")


# --------------------------------------------------------------------------
# 8. Harvester filter conformance over 12 synthetic snippets
# --------------------------------------------------------------------------

_SNIPPET_EXPECTATIONS = {
    "accept_1.cc": None,
    "accept_2.cc": None,
    "noinclude_1.cc": RejectionReason.NO_INCLUDE,
    "noinclude_2.cc": RejectionReason.NO_INCLUDE,
    "noforloop_1.cc": RejectionReason.NO_FOR_LOOP,
    "noforloop_2.cc": RejectionReason.NO_FOR_LOOP,
    "tooshort_1.cc": RejectionReason.TOO_SHORT,
    "tooshort_2.cc": RejectionReason.TOO_SHORT,
    "compilefail_1.cc": RejectionReason.COMPILE_FAIL,
    "compilefail_2.cc": RejectionReason.COMPILE_FAIL,
    "empty_1.cc": RejectionReason.EMPTY,
    "empty_2.cc": RejectionReason.EMPTY,
}


@requires_compiler
def test_criterion_08_harvester_filter_conformance(tmp_path):
    start = time.perf_counter()
    results = []
    for name, expected in _SNIPPET_EXPECTATIONS.items():
        raw = (FIXTURES / "snippets" / name).read_text()
        candidate = clean_and_filter(
            SnippetCandidate(origin_url=f"fixture:{name}", category="histogram", raw_code=raw)
        )
        if candidate.rejection_reason is None:
            candidate = compile_filter(candidate, tmp_path / name.removesuffix(".cc"))
        results.append((name, expected, candidate.rejection_reason))
    wrong = [
        (name, exp.value if exp else None, got.value if got else None)
        for name, exp, got in results
        if exp is not got
    ]
    assert not wrong, f"filter mismatches: {wrong}"
    # noinclude_2 lacks an include AND a for-loop: the include filter, which
    # runs first, must name the rejection
    assert dict((n, g) for n, _, g in results)["noinclude_2.cc"] is RejectionReason.NO_INCLUDE
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _passed(8, f"12/12 snippets filtered to the expected reasons in {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 9. Live-model runs are documented, not asserted
# --------------------------------------------------------------------------

def test_criterion_09_live_run_procedure_documented():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    assert "## Live runs" in readme
    assert "not reproducible" in readme.lower()
    _passed(9, "manual live-run procedure documented in README")
