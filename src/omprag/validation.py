"""Compile gating, failure classification, and differential validation.

Generated code is accepted only if it compiles with OpenMP enabled under
C++17. Failed compiles map to exactly one failure category through an
ordered pattern-rule list over the compiler diagnostics (and, for clause
checks, the source). Accepted binaries are compared against the serial
original across thread counts with tolerant numeric output matching.
"""

from __future__ import annotations

import json
import logging
import os
import re
import shlex
import shutil
import subprocess
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .errors import CompileTimeoutError, InvalidInputError, ParseError, ToolchainError

log = logging.getLogger(__name__)

DEFAULT_COMPILE_CMD = "g++ -fopenmp -std=c++17 -O2 {src} -o {bin}"
DEFAULT_COMPILE_TIMEOUT = 60.0
DEFAULT_RUN_TIMEOUT = 120.0
DEFAULT_REL_TOL = 1e-6
OMP_THREADS_VAR = "OMP_NUM_THREADS"

# Benchmark self-timing lines are not semantic output.
_TIMING_LINE_RE = re.compile(r"^ELAPSED_SECONDS=")


class FailureCategory(str, Enum):
    UNDECLARED_IN_CLAUSE = "UndeclaredInClause"
    INVALID_REDUCTION = "InvalidReduction"
    ATOMIC_MISUSE = "AtomicMisuse"
    DEFAULT_NONE_VIOLATION = "DefaultNoneViolation"
    SYNTAX_ERROR = "SyntaxError"
    COLLAPSE_MISUSE = "CollapseMisuse"
    ITERATOR_LIMITATION = "IteratorLimitation"
    DEPRECATED_CONSTRUCT = "DeprecatedConstruct"
    OTHER_COMPILE_ERROR = "OtherCompileError"


class Verdict(str, Enum):
    PASS = "Pass"
    MISMATCH = "Mismatch"
    RUNTIME_ERROR = "RuntimeError"
    SKIPPED = "Skipped"


@dataclass
class ValidationReport:
    case_id: str
    compile_ok: bool
    failure_category: FailureCategory | None = None
    diagnostics: str = ""
    differential_verdict: Verdict = Verdict.SKIPPED
    threads_tested: list[int] = field(default_factory=list)
    excluded_unparallelizable: bool = False

    def validate(self) -> None:
        if self.compile_ok and self.failure_category is not None:
            raise InvalidInputError(
                f"report {self.case_id!r}: compile_ok with a failure category"
            )
        if self.differential_verdict is not Verdict.SKIPPED and not self.compile_ok:
            raise InvalidInputError(
                f"report {self.case_id!r}: differential verdict without a successful compile"
            )

    def to_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "compile_ok": self.compile_ok,
            "failure_category": self.failure_category.value if self.failure_category else None,
            "diagnostics": self.diagnostics,
            "differential_verdict": self.differential_verdict.value,
            "threads_tested": list(self.threads_tested),
            "excluded_unparallelizable": self.excluded_unparallelizable,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "ValidationReport":
        category = record.get("failure_category")
        report = cls(
            case_id=record["case_id"],
            compile_ok=bool(record["compile_ok"]),
            failure_category=FailureCategory(category) if category else None,
            diagnostics=record.get("diagnostics", ""),
            differential_verdict=Verdict(record.get("differential_verdict", "Skipped")),
            threads_tested=[int(t) for t in record.get("threads_tested", [])],
            excluded_unparallelizable=bool(record.get("excluded_unparallelizable", False)),
        )
        report.validate()
        return report


def save_jsonl(records: list, path: Path | str) -> None:
    """Write one JSON object per line, from each record's ``to_dict()``."""
    lines = [json.dumps(r.to_dict(), ensure_ascii=False) for r in records]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def load_jsonl(path: Path | str, record_type) -> list:
    """Read the records ``save_jsonl`` wrote, through ``record_type.from_dict``.

    Blank lines are skipped; a malformed record raises ParseError naming its line.
    """
    records = []
    with Path(path).open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                records.append(record_type.from_dict(json.loads(line)))
            except (KeyError, TypeError, ValueError, InvalidInputError) as exc:
                raise ParseError(
                    f"{path}:{lineno}: bad {record_type.__name__} record: {exc}"
                ) from exc
    return records


# --------------------------------------------------------------------------
# Compile gate
# --------------------------------------------------------------------------

@dataclass
class CompileResult:
    ok: bool
    diagnostics: str
    binary: Path | None


def compile_gate(
    source: str,
    work_dir: Path | str,
    *,
    openmp: bool = True,
    compile_cmd: str = DEFAULT_COMPILE_CMD,
    timeout: float = DEFAULT_COMPILE_TIMEOUT,
    source_name: str = "case.cpp",
    binary_name: str = "case.bin",
) -> CompileResult:
    """Compile the source under work_dir; nothing is written elsewhere.

    A missing compiler raises ToolchainError (an environment problem,
    distinct from a failed compile, which is a result).
    """
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    src = work_dir / source_name
    binary = work_dir / binary_name
    src.write_text(source, encoding="utf-8")

    # Invoke with paths relative to work_dir so diagnostics are
    # reproducible regardless of where the work tree lives.
    argv = shlex.split(compile_cmd.format(src=source_name, bin=binary_name))
    if not openmp:
        argv = [a for a in argv if a != "-fopenmp"]
    if shutil.which(argv[0]) is None:
        raise ToolchainError(f"compiler {argv[0]!r} not found on this host")
    env = dict(os.environ)
    env["LC_ALL"] = "C"  # plain-ASCII diagnostics, reproducible across locales
    try:
        proc = subprocess.run(
            argv, capture_output=True, text=True, timeout=timeout, cwd=work_dir, env=env
        )
    except subprocess.TimeoutExpired as exc:
        raise CompileTimeoutError(f"compile exceeded {timeout:.0f}s: {argv}") from exc
    ok = proc.returncode == 0
    return CompileResult(ok=ok, diagnostics=proc.stderr, binary=binary if ok else None)


# --------------------------------------------------------------------------
# Failure classification
# --------------------------------------------------------------------------

_DEPRECATED_NAMES = ("bind2nd", "bind1st", "ptr_fun", "mem_fun", "auto_ptr")
_UNDECLARED_RE = re.compile(
    r"'([A-Za-z_]\w*)' (?:has not been declared|was not declared in this scope)"
)


def _pragma_lines(source: str) -> list[str]:
    return [line for line in source.splitlines() if re.match(r"\s*#\s*pragma\s+omp\b", line)]


def _undeclared_in_clause(diagnostics: str, source: str) -> bool:
    pragmas = _pragma_lines(source)
    if not pragmas:
        return False
    for name in _UNDECLARED_RE.findall(diagnostics):
        if any(re.search(rf"\b{re.escape(name)}\b", p) for p in pragmas):
            return True
    return False


def classify_failure(diagnostics: str, source: str) -> FailureCategory:
    """Deterministic first-match-wins classification of a failed compile.

    Rule order matters: the most specific diagnostic signatures come first
    so that, e.g., a default(none) scoping error inside a file that also
    uses atomics still lands in DefaultNoneViolation.
    """
    # Compilers quote identifiers with curly quotes under UTF-8 locales.
    diagnostics = diagnostics.translate(str.maketrans("‘’`´", "''''"))
    if any(name in diagnostics for name in _DEPRECATED_NAMES):
        return FailureCategory.DEPRECATED_CONSTRUCT
    if "not specified in enclosing 'parallel'" in diagnostics:
        return FailureCategory.DEFAULT_NONE_VIOLATION
    if "user defined reduction not found" in diagnostics or "invalid reduction" in diagnostics:
        return FailureCategory.INVALID_REDUCTION
    if "'#pragma omp atomic'" in diagnostics:
        return FailureCategory.ATOMIC_MISUSE
    if "not enough for loops to collapse" in diagnostics or "collapsed loops" in diagnostics:
        return FailureCategory.COLLAPSE_MISUSE
    if (
        "no match for 'operator-'" in diagnostics
        or "invalid type for iteration variable" in diagnostics
        or "invalid controlling predicate" in diagnostics
    ):
        return FailureCategory.ITERATOR_LIMITATION
    if _undeclared_in_clause(diagnostics, source):
        return FailureCategory.UNDECLARED_IN_CLAUSE
    if re.search(r"expected .+ before", diagnostics) or "expected end of line" in diagnostics:
        return FailureCategory.SYNTAX_ERROR
    return FailureCategory.OTHER_COMPILE_ERROR


# --------------------------------------------------------------------------
# Differential validation
# --------------------------------------------------------------------------

_NUMBER_RE = re.compile(r"[+-]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")


def normalize_output(text: str) -> list[str]:
    """Canonicalize line endings, strip trailing whitespace, drop timing lines."""
    lines = [line.rstrip() for line in text.replace("\r\n", "\n").replace("\r", "\n").split("\n")]
    lines = [line for line in lines if not _TIMING_LINE_RE.match(line)]
    while lines and not lines[-1]:
        lines.pop()
    return lines


def _lines_match(expected: str, actual: str, rel_tol: float) -> bool:
    """Numbers embedded anywhere in the line compare within tolerance; the
    surrounding text must match exactly (modulo whitespace runs)."""
    exp = " ".join(expected.split())
    act = " ".join(actual.split())
    if exp == act:
        return True
    if _NUMBER_RE.sub("<num>", exp) != _NUMBER_RE.sub("<num>", act):
        return False
    for e, a in zip(_NUMBER_RE.findall(exp), _NUMBER_RE.findall(act)):
        fe, fa = float(e), float(a)
        if not abs(fe - fa) <= 1e-9 + rel_tol * max(abs(fe), abs(fa)):
            return False
    return True


def outputs_match(expected: str, actual: str, rel_tol: float = DEFAULT_REL_TOL) -> bool:
    """Line-by-line comparison with relative numeric tolerance."""
    exp_lines = normalize_output(expected)
    act_lines = normalize_output(actual)
    if len(exp_lines) != len(act_lines):
        return False
    return all(
        _lines_match(exp, act, rel_tol) for exp, act in zip(exp_lines, act_lines)
    )


def _run_binary(
    binary: Path | str,
    input_args: list[str],
    timeout: float,
    threads: int | None = None,
) -> tuple[int | None, str, str]:
    """Run a case binary, with OMP_NUM_THREADS set when threads is given.

    Returns (exit_code, stdout, stderr); exit_code None means the run timed out.
    """
    env = dict(os.environ)
    if threads is not None:
        env[OMP_THREADS_VAR] = str(threads)
    try:
        proc = subprocess.run(
            [str(binary), *input_args],
            capture_output=True,
            text=True,
            timeout=timeout,
            env=env,
        )
    except subprocess.TimeoutExpired:
        return None, "", ""
    return proc.returncode, proc.stdout, proc.stderr


def differential_validate(
    serial_binary: Path | str,
    parallel_binary: Path | str,
    thread_counts: list[int],
    input_args: list[str] | None = None,
    *,
    timeout: float = DEFAULT_RUN_TIMEOUT,
    rel_tol: float = DEFAULT_REL_TOL,
) -> Verdict:
    """Pass iff the parallel output matches serial at every thread count."""
    input_args = list(input_args or [])
    code, serial_out, _ = _run_binary(serial_binary, input_args, timeout)
    if code != 0:
        log.warning("serial binary %s exited with %s", serial_binary, code)
        return Verdict.RUNTIME_ERROR
    for threads in thread_counts:
        code, parallel_out, _ = _run_binary(parallel_binary, input_args, timeout, threads=threads)
        if code != 0:
            log.warning(
                "parallel binary %s exited with %s at %d threads",
                parallel_binary, code, threads,
            )
            return Verdict.RUNTIME_ERROR
        if not outputs_match(serial_out, parallel_out, rel_tol):
            log.info("output mismatch for %s at %d threads", parallel_binary, threads)
            return Verdict.MISMATCH
    return Verdict.PASS


# --------------------------------------------------------------------------
# Case manifest
# --------------------------------------------------------------------------

@dataclass
class CaseSpec:
    case_id: str
    serial_path: str
    input_args: list[str] = field(default_factory=list)
    unparallelizable: bool = False

    def to_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "serial_path": self.serial_path,
            "input_args": list(self.input_args),
            "unparallelizable": self.unparallelizable,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "CaseSpec":
        return cls(
            case_id=record["case_id"],
            serial_path=record["serial_path"],
            input_args=[str(a) for a in record.get("input_args", [])],
            unparallelizable=bool(record.get("unparallelizable", False)),
        )


def load_case_manifest(path: Path | str) -> list[CaseSpec]:
    """Load a case manifest written by ``save_jsonl``; case ids must be unique."""
    cases = load_jsonl(path, CaseSpec)
    duplicates = [i for i, n in Counter(c.case_id for c in cases).items() if n > 1]
    if duplicates:
        raise ParseError(f"{path}: duplicate case_id {duplicates[0]!r}")
    return cases
