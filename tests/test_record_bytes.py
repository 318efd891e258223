"""Every JSON and JSONL record the program writes, pinned to literal bytes."""

from __future__ import annotations

from omprag import pipeline
from omprag.config import PipelineConfig
from omprag.corpus import CorpusChunk, CorpusManifest, token_estimate
from omprag.pipeline import report, validate_and_report
from omprag.validation import CaseSpec, FailureCategory, ValidationReport, Verdict, save_jsonl

REPORTS = [
    ValidationReport("case1", False, FailureCategory.SYNTAX_ERROR,
                     "case.cpp:3:5: error: expected ';' before '}' token\n"),
    ValidationReport("case2", True, None, "", Verdict.PASS, [1, 2, 4]),
    ValidationReport("case3", False, excluded_unparallelizable=True,
                     diagnostics="excluded: case is marked unparallelizable"),
    ValidationReport("case4", True, diagnostics="warning: ‘x’ déclaré — “unused”"),
]

REPORTS_JSONL = (
    '{"case_id": "case1", "compile_ok": false, "failure_category": "SyntaxError", '
    '"diagnostics": "case.cpp:3:5: error: expected \';\' before \'}\' token\\n", '
    '"differential_verdict": "Skipped", "threads_tested": [], '
    '"excluded_unparallelizable": false}\n'
    '{"case_id": "case2", "compile_ok": true, "failure_category": null, "diagnostics": "", '
    '"differential_verdict": "Pass", "threads_tested": [1, 2, 4], '
    '"excluded_unparallelizable": false}\n'
    '{"case_id": "case3", "compile_ok": false, "failure_category": null, '
    '"diagnostics": "excluded: case is marked unparallelizable", '
    '"differential_verdict": "Skipped", "threads_tested": [], '
    '"excluded_unparallelizable": true}\n'
    '{"case_id": "case4", "compile_ok": true, "failure_category": null, '
    '"diagnostics": "warning: ‘x’ déclaré — “unused”", '
    '"differential_verdict": "Skipped", "threads_tested": [], '
    '"excluded_unparallelizable": false}\n'
)

SUMMARY_JSON = """\
{
  "total_cases": 4,
  "compile_success": 2,
  "fixable_failures": 1,
  "excluded_unparallelizable": 1,
  "effective_success_rate": 0.6666666666666666
}
"""

SUMMARY_TXT = """\
Compilation Success  2/4 (50.0%)
Failures (Fixable)   1/4 (25.0%)
Unparallelizable     1/4 (excluded)
Effective Success    2/3 (66.7%)

Failure categories:
  SyntaxError  1
"""

REPORT_JSON = """\
{
  "total_cases": 4,
  "compile_success": 2,
  "fixable_failures": 1,
  "excluded_unparallelizable": 1,
  "effective_success_rate": 0.6666666666666666,
  "failure_categories": {
    "SyntaxError": 1
  }
}
"""

REPORT_CSV = """\
metric,value
total_cases,4
compile_success,2
fixable_failures,1
excluded_unparallelizable,1
effective_success_rate,0.6666666666666666
category_SyntaxError,1
"""


def test_reports_and_summaries(tmp_path, monkeypatch):
    cases = [CaseSpec(r.case_id, f"{r.case_id}.cc") for r in REPORTS]
    monkeypatch.setattr(pipeline, "validate_cases", lambda cases, cfg, out_dir: list(REPORTS))
    validate_and_report(cases, PipelineConfig(), tmp_path)
    assert (tmp_path / "reports.jsonl").read_bytes() == REPORTS_JSONL.encode()
    assert (tmp_path / "summary.json").read_bytes() == SUMMARY_JSON.encode()
    assert (tmp_path / "summary.txt").read_bytes() == SUMMARY_TXT.encode()
    assert report(REPORTS, "json") == REPORT_JSON
    assert report(REPORTS, "csv") == REPORT_CSV


def test_all_excluded_summary_has_no_rate(tmp_path, monkeypatch):
    excluded = [REPORTS[2]]
    monkeypatch.setattr(pipeline, "validate_cases", lambda cases, cfg, out_dir: list(excluded))
    validate_and_report([CaseSpec("case3", "case3.cc")], PipelineConfig(), tmp_path)
    assert (tmp_path / "summary.json").read_text(encoding="utf-8").endswith(
        '"effective_success_rate": null\n}\n')
    assert report(excluded, "csv").splitlines()[-1] == "effective_success_rate,"


def test_case_manifest(tmp_path):
    cases = [
        CaseSpec("case1", "cases/case1.cc", ["--n", "64", "naïve"]),
        CaseSpec("case2", "cases/case2.cc", unparallelizable=True),
    ]
    save_jsonl(cases, tmp_path / "cases.jsonl")
    assert (tmp_path / "cases.jsonl").read_bytes() == (
        '{"case_id": "case1", "serial_path": "cases/case1.cc", '
        '"input_args": ["--n", "64", "naïve"], "unparallelizable": false}\n'
        '{"case_id": "case2", "serial_path": "cases/case2.cc", '
        '"input_args": [], "unparallelizable": true}\n'
    ).encode()


def test_empty_jsonl_is_empty(tmp_path):
    save_jsonl([], tmp_path / "none.jsonl")
    assert (tmp_path / "none.jsonl").read_bytes() == b""


def test_corpus_manifest(tmp_path):
    bodies = ["Use `#pragma omp parallel for` on a loop.", "Réduction : `reduction(+:s)`."]
    manifest = CorpusManifest(
        chunks=[
            CorpusChunk("loops.md#0", "loops.md", ["Loops"], bodies[0], token_estimate(bodies[0])),
            CorpusChunk("red.md#1", "red.md", ["Data", "Réductions"], bodies[1],
                        token_estimate(bodies[1])),
        ],
        created_at="2026-01-02T03:04:05+00:00",
    )
    manifest.save(tmp_path / "corpus.jsonl")
    assert (tmp_path / "corpus.jsonl").read_bytes() == (
        '{"corpus_version": "1", "created_at": "2026-01-02T03:04:05+00:00"}\n'
        '{"chunk_id": "loops.md#0", "source_doc": "loops.md", "heading_path": ["Loops"], '
        '"body": "Use `#pragma omp parallel for` on a loop.", "token_estimate": 8}\n'
        '{"chunk_id": "red.md#1", "source_doc": "red.md", "heading_path": ["Data", "Réductions"], '
        '"body": "Réduction : `reduction(+:s)`.", "token_estimate": 3}\n'
    ).encode()
