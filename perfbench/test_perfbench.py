"""Tests of the benchmark's own checks, generators and tracer.

Run from the repository root: ``python3 -m pytest perfbench -q``. Every
check must pass on a right result and fail on a corrupted one.
"""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from omprag.index import RetrievalHit  # noqa: E402
from omprag.pipeline import RunSummary, render_comparison  # noqa: E402
from omprag.validation import (  # noqa: E402
    FailureCategory,
    ValidationReport,
    Verdict,
    classify_failure,
    compile_gate,
    differential_validate,
)

from perfbench import checks, gen  # noqa: E402
from perfbench.tracing import Tracer, layer_metrics  # noqa: E402

requires_compiler = pytest.mark.skipif(shutil.which("g++") is None, reason="needs g++")


def _oracle(n=40, dim=16, seed=3):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(n, dim))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    ids = [f"doc.md#{i:04d}" for i in range(n)]
    return checks.Oracle(ids, vectors.tolist()), vectors


def _report(verdict="Pass", compile_ok=True, category=None):
    return ValidationReport(case_id="case1", compile_ok=compile_ok,
                            failure_category=FailureCategory(category) if category else None,
                            diagnostics="", differential_verdict=Verdict(verdict))


# ---------------------------------------------------------------- retrieval

def test_oracle_topk_passes_and_swapped_order_fails():
    oracle, vectors = _oracle()
    query = vectors[7]
    ids, scores = oracle.topk(query, 4)
    assert ids[0] == "doc.md#0007"
    assert checks.topk_problem(ids, scores, oracle.ids, 4) is None
    swapped = [ids[1], ids[0]] + ids[2:]
    assert checks.topk_problem(swapped, scores, oracle.ids, 4) is not None


def test_topk_missing_better_chunk_or_wrong_length_fails():
    oracle, vectors = _oracle()
    ids, scores = oracle.topk(vectors[3], 5)
    assert checks.topk_problem(ids[:3] + [ids[4]], scores, oracle.ids, 4) is not None
    assert checks.topk_problem(ids[:3], scores, oracle.ids, 4) is not None
    assert checks.topk_problem(ids[:3] + ids[:1], scores, oracle.ids, 4) is not None


def test_topk_ties_break_by_ascending_chunk_id():
    vectors = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    oracle = checks.Oracle(["b#0001", "a#0000", "c#0002"], vectors)
    ids, scores = oracle.topk([1.0, 0.0], 2)
    assert ids == ["a#0000", "b#0001"]
    assert checks.topk_problem(["b#0001", "a#0000"], scores, oracle.ids, 2) is not None
    # scores a rounding error apart still count as a tie
    nudged = scores.copy()
    nudged[0] += 1e-15
    assert checks.topk_problem(ids, nudged, oracle.ids, 2) is None


def test_context_with_a_wrong_body_fails():
    oracle, vectors = _oracle()
    ids, _ = oracle.topk(vectors[0], 4)
    bodies = {cid: f"body of {cid}" for cid in oracle.ids}
    blocks = [(cid, bodies[cid]) for cid in ids]
    assert checks.context_problem(blocks, bodies, oracle, vectors[0], 4) is None
    blocks[2] = (ids[2], "something else")
    assert checks.context_problem(blocks, bodies, oracle, vectors[0], 4) is not None


def test_self_query_needs_rank_one_and_unit_score():
    good = [RetrievalHit("a#0000", 1.0 - 1e-12, 1), RetrievalHit("b#0001", 0.5, 2)]
    assert checks.self_query_problem(good, "a#0000") is None
    assert checks.self_query_problem(good[::-1], "a#0000") is not None
    assert checks.self_query_problem([RetrievalHit("a#0000", 0.999, 1)], "a#0000") is not None


# --------------------------------------------------------------- validation

def test_report_matches_only_its_built_in_outcome():
    assert checks.report_problem(_report("Pass"), "Pass") is None
    assert checks.report_problem(_report("Mismatch"), "Mismatch") is None
    assert checks.report_problem(_report("Mismatch"), "Pass") is not None  # flipped verdict
    assert checks.report_problem(_report("Pass"), "Mismatch") is not None
    failed = _report("Skipped", compile_ok=False, category="SyntaxError")
    assert checks.report_problem(failed, "SyntaxError") is None
    assert checks.report_problem(failed, "AtomicMisuse") is not None  # wrong category
    assert checks.report_problem(failed, "Pass") is not None


def test_closed_form_output_off_by_one_fails():
    assert checks.output_problem("sum3=1200\n", "sum3", 1200) is None
    assert checks.output_problem("sum3=1201\n", "sum3", 1200) is not None
    assert checks.output_problem("RESULT sum3=1200\n", "sum3", 1200, prefix="RESULT ") is None
    assert checks.output_problem("RESULT sum3=1199\n", "sum3", 1200, prefix="RESULT ") is not None


def test_rejection_reason_must_match():
    from omprag.harvest import RejectionReason, SnippetCandidate

    rejected = SnippetCandidate("u", "histogram", "x", rejection_reason=RejectionReason.TOO_SHORT)
    survivor = SnippetCandidate("u", "histogram", "x", cleaned_code="y")
    assert checks.reason_problem(rejected, "TooShort") is None
    assert checks.reason_problem(rejected, "NoInclude") is not None
    assert checks.reason_problem(survivor, None) is None
    assert checks.reason_problem(survivor, "CompileFail") is not None


def test_summary_and_comparison_counts():
    outcomes = ["Pass", "Pass", "Mismatch", "SyntaxError"]
    right = RunSummary(4, 3, 1, 0, 0.75)
    assert checks.summary_problem(right, outcomes) is None
    assert checks.summary_problem(RunSummary(4, 2, 2, 0, 0.5), outcomes) is not None
    rag = ["Pass"] * 4
    table = render_comparison([("baseline", right), ("rag", RunSummary(4, 4, 0, 0, 1.0))])
    labeled = [("baseline", outcomes), ("rag", rag)]
    assert checks.comparison_problem(table, labeled) is None
    corrupted = table.replace("3/4", "2/4", 1)
    assert checks.comparison_problem(corrupted, labeled) is not None


# --------------------------------------------------------------- generators

def test_corpus_bodies_are_distinct_and_ids_sorted():
    spec = gen.make_corpus(random.Random(5), 12, 3)
    bodies = [body for _, body in spec.chunks]
    assert len(spec.chunks) == 36 and len(set(bodies)) == 36
    ids = [cid for cid, _ in spec.chunks]
    assert [i.split("#")[0] for i in ids] == sorted(i.split("#")[0] for i in ids)


def test_harvest_pages_cover_every_rejection_reason():
    files, items = gen.harvest_pages(random.Random(2), gen.FAMILIES + ("quicksort", "prefix sum",
                                     "Mandelbrot set", "Monte Carlo simulation"), 0, 1000,
                                     survivors=6, baseline_faults=1)
    reasons = [item.reason for item in items if item.reason]
    assert sorted(reasons) == sorted(gen.REJECTION_REASONS)
    assert sum(1 for item in items if item.baseline_variant != gen.PASS) == 1
    assert "mandelbrot_set_p2.json" in files


@requires_compiler
def test_kernels_print_their_closed_form_and_variants_have_known_outcomes(tmp_path):
    rng = random.Random(11)
    for gid, family in enumerate(gen.FAMILIES):
        kernel = gen.make_kernel(rng, family, gid)
        serial = compile_gate(kernel.source, tmp_path / f"s{gid}", openmp=False)
        out = subprocess.run([str(serial.binary)], capture_output=True, text=True).stdout
        assert checks.output_problem(out, kernel.acc, kernel.value) is None, family
        for variant, verdict in ((gen.PASS, Verdict.PASS), (gen.LOST_REDUCTION, Verdict.MISMATCH)):
            par = compile_gate(gen.parallelize(kernel.source, kernel, variant), tmp_path / "p")
            assert differential_validate(serial.binary, par.binary, [1, 2]) is verdict, family
    kernel = gen.make_kernel(rng, "dot product", 99)
    for category in gen.FAULT_CATEGORIES:
        source = gen.parallelize(kernel.source, kernel, category, style="baseline")
        result = compile_gate(source, tmp_path / "f")
        assert not result.ok
        assert classify_failure(result.diagnostics, source).value == category


# ------------------------------------------------------------------ tracing

def test_untraced_functions_read_zero_with_a_warning(capsys):
    metrics = layer_metrics(Tracer(), workers=2, child_cpu_s=0.0)
    assert all(value == 0 for value, _ in metrics.values())
    assert "no calls to validation.compile_gate" in capsys.readouterr().err


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.spans = [
        {"id": 1, "name": "pipeline.transform_case", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 2, "name": "index.VectorIndex.query_topk", "parent": 1, "start": 1.0, "end": 4.0},
        {"id": 3, "name": "generation.generate", "parent": 1, "start": 3.0, "end": 6.0},
    ]
    assert tracer.self_times() == {1: 5.0, 2: 3.0, 3: 3.0}


def test_install_wraps_and_uninstall_restores():
    from omprag import pipeline
    from omprag.index import VectorIndex

    original = pipeline.compile_gate, VectorIndex.__dict__["load"]
    tracer = Tracer()
    tracer.install()
    try:
        assert pipeline.compile_gate is not original[0]
        assert isinstance(VectorIndex.__dict__["load"], classmethod)
    finally:
        tracer.uninstall()
    assert (pipeline.compile_gate, VectorIndex.__dict__["load"]) == original
