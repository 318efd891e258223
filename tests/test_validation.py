from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omprag.errors import ParseError, ToolchainError
from omprag.validation import (
    CaseSpec,
    FailureCategory,
    ValidationReport,
    Verdict,
    classify_failure,
    compile_gate,
    differential_validate,
    load_case_manifest,
    load_jsonl,
    normalize_output,
    outputs_match,
    save_jsonl,
)

from conftest import FIXTURES, requires_compiler

import omprag

OK_OMP_SOURCE = """\
#include <vector>
int main() {
    int n = 1000;
    std::vector<int> a(n, 1);
    long sum = 0;
    #pragma omp parallel for reduction(+:sum)
    for (int i = 0; i < n; ++i) {
        sum += a[i];
    }
    return sum == n ? 0 : 1;
}
"""

PRINTER = """\
#include <cstdio>
int main() {{ std::printf({body}); return {code}; }}
"""


def _printer(body: str, code: int = 0) -> str:
    return PRINTER.format(body=body, code=code)


# --------------------------------------------------------------------------
# classify_failure: pattern rules over canned diagnostics (no compiler)
# --------------------------------------------------------------------------

class TestClassifier:
    def test_default_none_violation(self):
        diag = "x.cpp:7:5: error: 'n' not specified in enclosing 'parallel'"
        assert classify_failure(diag, "") is FailureCategory.DEFAULT_NONE_VIOLATION

    def test_invalid_reduction(self):
        diag = "x.cpp:7:42: error: user defined reduction not found for 'm'"
        assert classify_failure(diag, "") is FailureCategory.INVALID_REDUCTION

    def test_atomic_misuse(self):
        diag = "x.cpp:7:15: error: invalid form of '#pragma omp atomic'"
        assert classify_failure(diag, "") is FailureCategory.ATOMIC_MISUSE

    def test_collapse_misuse(self):
        diag = "x.cpp:7:9: error: not enough for loops to collapse"
        assert classify_failure(diag, "") is FailureCategory.COLLAPSE_MISUSE

    def test_iterator_limitation(self):
        diag = (
            "x.cpp:7:5: error: no match for 'operator-' (operand types are "
            "'std::__cxx11::list<int>::iterator' and 'std::__cxx11::list<int>::iterator')"
        )
        assert classify_failure(diag, "") is FailureCategory.ITERATOR_LIMITATION

    def test_deprecated_construct(self):
        diag = "x.cpp:9:36: error: no matching function for call to 'bind2nd(std::plus<int>)'"
        assert classify_failure(diag, "") is FailureCategory.DEPRECATED_CONSTRUCT

    def test_undeclared_in_clause_needs_pragma_mention(self):
        diag = "x.cpp:6:38: error: 'tmp' has not been declared"
        source_with = "#pragma omp parallel for private(tmp)\nfor(;;){}\n"
        source_without = "#pragma omp parallel for\nint tmp;\n"
        assert classify_failure(diag, source_with) is FailureCategory.UNDECLARED_IN_CLAUSE
        assert classify_failure(diag, source_without) is FailureCategory.OTHER_COMPILE_ERROR

    def test_syntax_error(self):
        diag = "x.cpp:6:45: error: expected ')' before end of line"
        assert classify_failure(diag, "") is FailureCategory.SYNTAX_ERROR

    def test_fallthrough(self):
        diag = "x.cpp:5:5: error: 'Widget' was not declared in this scope"
        assert classify_failure(diag, "int main(){}") is FailureCategory.OTHER_COMPILE_ERROR

    def test_first_matching_rule_wins(self):
        diag = (
            "x.cpp:7:5: error: 'n' not specified in enclosing 'parallel'\n"
            "x.cpp:9:1: error: expected ';' before '}' token\n"
        )
        assert classify_failure(diag, "") is FailureCategory.DEFAULT_NONE_VIOLATION

    def test_deterministic(self):
        diag = "error: not enough for loops to collapse\nerror: 'i' was not declared in this scope"
        src = "#pragma omp parallel for collapse(2)\n"
        assert classify_failure(diag, src) is classify_failure(diag, src)


# --------------------------------------------------------------------------
# compile gate (needs g++)
# --------------------------------------------------------------------------

@requires_compiler
class TestCompileGate:
    def test_valid_openmp_loop_compiles(self, tmp_path):
        result = compile_gate(OK_OMP_SOURCE, tmp_path)
        assert result.ok
        assert result.binary is not None and result.binary.is_file()

    def test_default_none_fixture_fails_and_names_variable(self, tmp_path):
        source = (FIXTURES / "broken" / "default_none_violation.cpp").read_text()
        result = compile_gate(source, tmp_path)
        assert not result.ok
        assert "'n'" in result.diagnostics or "'a'" in result.diagnostics

    def test_class_type_reduction_fails(self, tmp_path):
        source = (FIXTURES / "broken" / "invalid_reduction.cpp").read_text()
        result = compile_gate(source, tmp_path)
        assert not result.ok
        assert "reduction" in result.diagnostics

    def test_artifacts_stay_in_work_dir(self, tmp_path):
        work = tmp_path / "w"
        compile_gate(OK_OMP_SOURCE, work)
        assert {p.name for p in work.iterdir()} == {"case.cpp", "case.bin"}

    def test_missing_compiler_is_environment_error(self, tmp_path):
        with pytest.raises(ToolchainError):
            compile_gate(
                "int main(){}", tmp_path,
                compile_cmd="definitely-not-a-compiler-xyz {src} -o {bin}",
            )

    def test_openmp_flag_dropped_for_serial_builds(self, tmp_path):
        # omp pragmas are ignored without -fopenmp, so this still compiles
        result = compile_gate(OK_OMP_SOURCE, tmp_path, openmp=False)
        assert result.ok


# --------------------------------------------------------------------------
# output normalization and matching
# --------------------------------------------------------------------------

class TestOutputsMatch:
    def test_exact_match(self):
        assert outputs_match("a 1\nb 2\n", "a 1\nb 2\n")

    def test_trailing_whitespace_and_crlf(self):
        assert outputs_match("x 1\ny 2\n", "x 1  \r\ny 2\r\n\r\n")

    def test_numeric_tolerance(self):
        assert outputs_match("sum=1.000000\n", "sum=1.000000000001\n")
        assert not outputs_match("sum=1.0\n", "sum=1.1\n")

    def test_relative_tolerance_scales(self):
        assert outputs_match("1000000.0", "1000000.5")
        assert not outputs_match("1.0", "1.5")

    def test_integer_tokens_must_match(self):
        assert not outputs_match("count 7", "count 8")

    def test_text_tokens_exact(self):
        assert not outputs_match("pass", "fail")

    def test_line_count_mismatch(self):
        assert not outputs_match("a\nb\n", "a\n")

    def test_timing_lines_ignored(self):
        assert outputs_match("v=3\nELAPSED_SECONDS=0.11\n", "v=3\nELAPSED_SECONDS=0.99\n")
        assert normalize_output("v=3\nELAPSED_SECONDS=0.5\n") == ["v=3"]

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-1e6, 1e6), st.floats(min_value=0, max_value=5e-10))
    def test_sub_tolerance_perturbations_always_pass(self, value, eps):
        # stays under the 1e-9 absolute floor, so every value must pass
        assert outputs_match(f"{value:.12f}", f"{value + eps:.12f}")


# --------------------------------------------------------------------------
# differential validation (needs g++)
# --------------------------------------------------------------------------

@requires_compiler
class TestDifferential:
    def _build(self, tmp_path, name, source, openmp=True):
        result = compile_gate(source, tmp_path / name, openmp=openmp)
        assert result.ok, result.diagnostics
        return result.binary

    def test_program_passes_against_itself(self, tmp_path):
        binary = self._build(tmp_path, "self", _printer(r'"v=%d\n", 42'))
        assert differential_validate(binary, binary, [1, 2]) is Verdict.PASS

    def test_serial_vs_correct_parallel(self, tmp_path):
        serial = (FIXTURES / "cases" / "case2.cc").read_text()
        parallel = (FIXTURES / "cases" / "case2_omp.cc").read_text()
        s = self._build(tmp_path, "serial", serial, openmp=False)
        p = self._build(tmp_path, "parallel", parallel)
        assert differential_validate(s, p, [1, 2]) is Verdict.PASS

    def test_output_mismatch(self, tmp_path):
        a = self._build(tmp_path, "a", _printer(r'"v=%d\n", 1'))
        b = self._build(tmp_path, "b", _printer(r'"v=%d\n", 2'))
        assert differential_validate(a, b, [1]) is Verdict.MISMATCH

    def test_float_noise_within_tolerance_passes(self, tmp_path):
        a = self._build(tmp_path, "a", _printer(r'"v=%.12f\n", 1.0'))
        b = self._build(tmp_path, "b", _printer(r'"v=%.12f\n", 1.000000000001'))
        assert differential_validate(a, b, [1]) is Verdict.PASS

    def test_output_that_is_not_utf8_compares_byte_for_byte(self, tmp_path):
        ff = self._build(tmp_path, "ff", _printer(r'"v=\xff\n"'))
        fe = self._build(tmp_path, "fe", _printer(r'"v=\xfe\n"'))
        assert differential_validate(ff, ff, [1, 2]) is Verdict.PASS
        assert differential_validate(fe, ff, [1]) is Verdict.MISMATCH

    def test_nonzero_exit_is_runtime_error(self, tmp_path):
        good = self._build(tmp_path, "good", _printer(r'"v=1\n"'))
        bad = self._build(tmp_path, "bad", _printer(r'"v=1\n"', code=3))
        assert differential_validate(good, bad, [1]) is Verdict.RUNTIME_ERROR

    def test_timeout_is_runtime_error(self, tmp_path):
        good = self._build(tmp_path, "good", _printer(r'"v=1\n"'))
        spin = self._build(
            tmp_path, "spin",
            "int main() { volatile long x = 0; for (;;) { x += 1; } return 0; }",
        )
        assert differential_validate(good, spin, [1], timeout=1.0) is Verdict.RUNTIME_ERROR


# --------------------------------------------------------------------------
# reports and case manifests
# --------------------------------------------------------------------------

class TestPersistence:
    def test_report_round_trip(self, tmp_path):
        reports = [
            ValidationReport("case1", True, None, "", Verdict.PASS, [1, 8], False),
            ValidationReport(
                "case2", False, FailureCategory.SYNTAX_ERROR,
                "error: expected ')'", Verdict.SKIPPED, [], False,
            ),
        ]
        path = tmp_path / "reports.jsonl"
        save_jsonl(reports, path)
        assert load_jsonl(path, ValidationReport) == reports

    def test_invariants_enforced_on_load(self, tmp_path):
        path = tmp_path / "reports.jsonl"
        path.write_text(
            '{"case_id": "x", "compile_ok": true, "failure_category": "SyntaxError", '
            '"diagnostics": "", "differential_verdict": "Pass", "threads_tested": [], '
            '"excluded_unparallelizable": false}\n'
        )
        with pytest.raises(ParseError):
            load_jsonl(path, ValidationReport)

    def test_case_manifest_round_trip(self, tmp_path):
        cases = [
            CaseSpec("case1", "cases/case1.cc", ["100"], False),
            CaseSpec("case2", "cases/case2.cc", [], True),
        ]
        path = tmp_path / "cases.jsonl"
        save_jsonl(cases, path)
        assert load_case_manifest(path) == cases

    def test_non_object_record_is_parse_error(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        path.write_text('{"case_id": "c", "serial_path": "a.cc"}\n["c", "a.cc"]\n')
        with pytest.raises(ParseError, match=":2:"):
            load_case_manifest(path)

    def test_duplicate_case_id_rejected(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        path.write_text(
            '{"case_id": "c", "serial_path": "a.cc"}\n'
            '{"case_id": "c", "serial_path": "b.cc"}\n'
        )
        with pytest.raises(ParseError):
            load_case_manifest(path)


def test_a_case_binary_never_reads_the_callers_stdin(tmp_path):
    """Under a parent whose stdin is an open pipe, a reading binary sees EOF."""
    script = tmp_path / "reads_stdin.sh"
    script.write_text('#!/bin/sh\nif read line; then echo "read $line"; else echo eof; fi\n')
    script.chmod(0o755)
    probe = ("from omprag.validation import _run_binary\n"
             f"print(_run_binary({str(script)!r}, [], timeout=5.0))\n")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [
               str(Path(omprag.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
    # stdin stays open and unwritten until the child has answered.
    child = subprocess.Popen([sys.executable, "-c", probe], stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE, text=True, env=env)
    try:
        out = child.stdout.read()
    finally:
        child.stdin.close()
        child.wait(timeout=60)
    assert out == "(0, 'eof\\n', '')\n"
