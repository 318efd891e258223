"""Correctness checks that compare omprag's outputs with expectations built
outside it: a NumPy retrieval oracle, outcomes built into the generated
cases, and closed-form checksums. Each check returns None when the output
is right and a one-line description of the problem otherwise.
"""

from __future__ import annotations

import re

import numpy as np

TIE_EPS = 1e-12
SELF_SCORE_TOL = 1e-9
COMPILED = ("Pass", "Mismatch")


class Oracle:
    """Exact cosine top-k by one matrix product over the index's stored vectors."""

    def __init__(self, ids: list[str], vectors):
        self.ids = list(ids)
        self.rows = {cid: i for i, cid in enumerate(self.ids)}
        self.matrix = np.array(vectors, dtype=np.float64)
        self._id_rank = np.argsort(np.argsort(np.array(self.ids)))

    def scores(self, query) -> np.ndarray:
        return self.matrix @ np.asarray(query, dtype=np.float64)

    def topk(self, query, k: int) -> tuple[list[str], np.ndarray]:
        """Top-k ids ordered by descending score, ties by ascending chunk_id."""
        scores = self.scores(query)
        order = np.lexsort((self._id_rank, -scores))[:k]
        return [self.ids[i] for i in order], scores


def topk_problem(hit_ids: list[str], scores: np.ndarray, ids: list[str], k: int,
                 eps: float = TIE_EPS) -> str | None:
    """Is hit_ids the top-k under (-score, chunk_id)? Scores within eps tie."""
    pos = {cid: i for i, cid in enumerate(ids)}
    if len(hit_ids) != min(k, len(ids)):
        return f"{len(hit_ids)} hits, expected {min(k, len(ids))}"
    if len(set(hit_ids)) != len(hit_ids) or any(h not in pos for h in hit_ids):
        return f"hits {hit_ids} repeat or name unknown chunks"

    def ranks_before(a: str, b: str) -> bool:
        sa, sb = scores[pos[a]], scores[pos[b]]
        return a < b if abs(sa - sb) <= eps else sa > sb

    for a, b in zip(hit_ids, hit_ids[1:]):
        if not ranks_before(a, b):
            return f"hit {a} ranked before {b}"
    last = hit_ids[-1]
    chosen = {pos[h] for h in hit_ids}
    floor = scores[pos[last]]
    for i in np.flatnonzero(scores >= floor - eps):
        if int(i) not in chosen and ranks_before(ids[i], last):
            return f"chunk {ids[i]} outranks hit {last} but was not retrieved"
    return None


def context_problem(blocks: list[tuple[str, str]], bodies: dict[str, str], oracle: Oracle,
                    query, k: int) -> str | None:
    """Context blocks of a rendered prompt against the oracle's top-k."""
    for cid, body in blocks:
        if bodies.get(cid) != body:
            return f"context block {cid} does not carry the chunk's body"
    _, scores = oracle.topk(query, k)
    return topk_problem([cid for cid, _ in blocks], scores, oracle.ids, k)


def self_query_problem(hits, chunk_id: str) -> str | None:
    """A chunk queried with its own body must come back first, scored 1."""
    if not hits or hits[0].chunk_id != chunk_id:
        return f"self-query for {chunk_id} returned {[h.chunk_id for h in hits[:1]]}"
    if abs(hits[0].score - 1.0) > SELF_SCORE_TOL:
        return f"self-query for {chunk_id} scored {hits[0].score!r}"
    return None


def report_problem(report, expected: str) -> str | None:
    """A ValidationReport against the outcome built into its case: Pass,
    Mismatch, or the FailureCategory value of a compile failure."""
    verdict = report.differential_verdict.value
    category = report.failure_category.value if report.failure_category else None
    if expected in COMPILED:
        ok = report.compile_ok and category is None and verdict == expected
    else:
        ok = not report.compile_ok and category == expected and verdict == "Skipped"
    if ok:
        return None
    return (f"{report.case_id}: expected {expected}, got compile_ok={report.compile_ok} "
            f"category={category} verdict={verdict}")


def output_problem(stdout: str, acc: str, value: int, prefix: str = "") -> str | None:
    """A serial binary's output against its closed-form checksum."""
    expected = f"{prefix}{acc}={value}"
    lines = stdout.strip().splitlines()
    if lines != [expected]:
        return f"serial output {lines!r}, expected {[expected]!r}"
    return None


def reason_problem(candidate, expected: str | None) -> str | None:
    got = candidate.rejection_reason.value if candidate.rejection_reason else None
    if got != expected:
        return f"candidate {candidate.origin_url}: expected {expected}, got {got}"
    return None


def _counts(outcomes: list[str]) -> tuple[int, int, int]:
    success = sum(1 for o in outcomes if o in COMPILED)
    return len(outcomes), success, len(outcomes) - success


def summary_problem(summary, outcomes: list[str]) -> str | None:
    total, success, fixable = _counts(outcomes)
    got = (summary.total_cases, summary.compile_success, summary.fixable_failures,
           summary.excluded_unparallelizable)
    if got != (total, success, fixable, 0):
        return f"summary counts {got}, expected {(total, success, fixable, 0)}"
    if total and abs(summary.effective_success_rate - success / total) > 1e-12:
        return f"effective success rate {summary.effective_success_rate}"
    return None


_ROWS = ("Compilation Success", "Failures (Fixable)", "Unparallelizable", "Effective Success")


def comparison_problem(table: str, labeled: list[tuple[str, list[str]]]) -> str | None:
    """The count cells of a rendered comparison against the built-in outcomes."""
    lines = table.splitlines()
    header = lines[0].split() if lines else []
    if header != ["Metric"] + [label for label, _ in labeled]:
        return f"comparison header {header}"
    for row in _ROWS:
        line = next((ln for ln in lines if ln.startswith(row)), None)
        if line is None:
            return f"comparison has no {row!r} row"
        cells = [(int(a), int(b)) for a, b in re.findall(r"(\d+)/(\d+)", line)]
        want = []
        for _, outcomes in labeled:
            total, success, fixable = _counts(outcomes)
            want.append({"Compilation Success": (success, total),
                         "Failures (Fixable)": (fixable, total),
                         "Unparallelizable": (0, total),
                         "Effective Success": (success, total)}[row])
        if cells != want:
            return f"comparison row {row!r} reads {cells}, expected {want}"
    return None
