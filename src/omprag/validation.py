"""Compile gating, failure classification, and differential validation.

Generated code is accepted only if it compiles with OpenMP enabled under
C++17. Failed compiles map to exactly one failure category through an
ordered pattern-rule list over the compiler diagnostics (and, for clause
checks, the source). Accepted binaries are compared against the serial
original across thread counts with tolerant numeric output matching.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import logging
import os
import re
import shlex
import shutil
import subprocess
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path, PurePosixPath

from .errors import InvalidInputError, ParseError, ToolchainError

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
    """Write one JSON object per line, from each record's dataclass fields."""
    lines = [json.dumps(vars(r), ensure_ascii=False) for r in records]
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

@dataclass(frozen=True)
class CompileResult:
    ok: bool
    diagnostics: str
    binary: Path | None
    cached: bool = False
    timed_out: bool = False


_VERSION_PROBE_TIMEOUT = 10.0

# A leading include block gets a precompiled header after this many plain
# misses. With g++ 12.2 at -O2, building one costs 0.29-0.84 s of CPU and each
# compile that loads it saves 0.09-0.19 s, so a build is worth 3.1-4.3
# compiles. Building once the plain compiles have wasted about that much (the
# ski-rental rule) never spends more than twice the best choice in hindsight.
_PCH_AFTER_MISSES = 3
# Only GCC looks for ``<header>.gch`` beside a header it includes.
_GCC_MARK = "Free Software Foundation"
_INCLUDE_LINE_RE = re.compile(r"[ \t]*#[ \t]*include[ \t]*<([^<>]+)>[ \t\r]*")
_EMPTY_LINE_RE = re.compile(r"[ \t]*(?://[^\r]*)?\r?")
# Flags that move the header search, or whose meaning depends on the working
# directory, which differs for the header build; and -H, which lists the
# headers read among the diagnostics.
_NO_PCH_FLAG_RE = re.compile(r"-[IiBH]|--include|--sysroot|--prefix|-nostdinc|-?-specs|-fplugin|@")
# The object file that g++ writes to its temporary directory and then links.
_TEMP_OBJECT_RE = re.compile(r"/(?:[^\s:/]+/)*cc[0-9A-Za-z]{6}\.o\b")


def _leading_includes(source: str) -> tuple[list[str], str] | None:
    """The source's leading block of system includes, and its first header.

    Each whole-line ``#include <...>`` is kept as written, and each blank or
    ``//`` comment line becomes an empty line, so a line of the block has its
    line number in the source. The block ends before the first line of any
    other kind, a comment that a backslash (or the trigraph ``??/``) may
    continue onto the next line included; trailing empty lines are dropped.
    None when it holds no include, or the first header's name could leave the
    header directory.
    """
    block: list[str] = []
    first = None
    for line in source.split("\n"):
        include = _INCLUDE_LINE_RE.fullmatch(line)
        if include:
            first = first or include.group(1)
            block.append(line)
        elif _EMPTY_LINE_RE.fullmatch(line) and not line.rstrip().endswith(("\\", "??/")):
            block.append("")
        else:
            break
    while block and not block[-1]:
        block.pop()
    if first is None:
        return None
    name = PurePosixPath(first)
    if name.is_absolute() or ".." in name.parts:
        return None
    return block, first


def _run_compiler(directory: Path, text: str, argv: list[str],
                  timeout: float) -> subprocess.CompletedProcess:
    """Write text as ``directory/case.cpp`` and run argv there under LC_ALL=C.

    LC_ALL=C keeps the diagnostics plain ASCII across locales. A failed link
    names the compiler's temporary object, a fresh random path on every run, so
    that path reads ``case.o``. Raises ToolchainError when the compiler cannot
    start, and subprocess.TimeoutExpired after timeout seconds.
    """
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "case.cpp").write_text(text, encoding="utf-8")
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout, cwd=directory,
                              env={**os.environ, "LC_ALL": "C"}, stdin=subprocess.DEVNULL)
    except OSError as exc:
        raise ToolchainError(f"compiler {argv[0]!r} cannot start: {exc}") from exc
    proc.stderr = _TEMP_OBJECT_RE.sub("case.o", proc.stderr)
    return proc


class BuildStore:
    """Content-addressed compile results, scoped to one process.

    The key is the SHA-256 of the source text, the final compiler argv and
    the compiler's identity (resolved path plus ``--version`` output), in
    the spirit of ccache's direct mode. Each key compiles once, in its own
    ``<key>/`` directory of a private store directory made on first use and
    removed at interpreter exit, and maps to its CompileResult; a
    successful compile's binary stays there as ``case.bin``. The store
    directory also holds the precompiled headers that ``pch_dir`` builds.
    Nothing is shared across processes.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._dir: Path | None = None
        self._results: dict[str, CompileResult] = {}
        self._key_locks: dict[str, threading.Lock] = {}
        self._compilers: dict[tuple, str] = {}
        # Per leading-include block: plain misses so far, then the directory
        # holding its precompiled header, or None once a build failed.
        self._pch_misses: Counter[str] = Counter()
        self._pchs: dict[str, Path | None] = {}

    def _compiler_identity(self, compiler: str, timeout: float) -> str:
        """Path plus ``--version`` output, probed once per compiler file state.

        A compiler that rejects ``--version``, hangs or cannot start still
        gets an identity; the probe never fails the compile.
        """
        path = os.path.realpath(compiler)
        stat = os.stat(path)
        state = (path, stat.st_size, stat.st_mtime_ns)
        with self._lock:
            if state not in self._compilers:
                try:
                    proc = subprocess.run(
                        [path, "--version"], capture_output=True, text=True,
                        timeout=min(timeout, _VERSION_PROBE_TIMEOUT), stdin=subprocess.DEVNULL,
                        env={**os.environ, "LC_ALL": "C"},
                    )
                    probe = f"exit {proc.returncode}\n{proc.stdout}{proc.stderr}"
                except (OSError, subprocess.TimeoutExpired) as exc:
                    probe = f"no version: {type(exc).__name__}"
                self._compilers[state] = f"{path}\n{probe}"
            return self._compilers[state]

    def key_lock(self, key: str) -> threading.Lock:
        """Serialises same-key compiles, so concurrent callers build once."""
        with self._lock:
            return self._key_locks.setdefault(key, threading.Lock())

    def _root(self) -> Path:
        with self._lock:
            if self._dir is None:
                self._dir = Path(tempfile.mkdtemp(prefix="omprag-builds-"))
                atexit.register(self.close)
            return self._dir

    def build(self, source: str, argv: list[str], compiler: str,
              timeout: float) -> CompileResult:
        """The result of compiling source with argv; its binary is the stored one.

        argv names the source ``case.cpp`` and the binary ``case.bin``,
        relative to the key's directory, where the compile runs. A compiler
        that exits 0 without writing ``case.bin`` fails the compile, and
        cached is True when an earlier call made the build. A timed-out
        compile is a failed result with ``timed_out`` set, and leaves
        nothing in the store.
        """
        identity = self._compiler_identity(compiler, timeout)
        key = hashlib.sha256(json.dumps([source, argv, identity]).encode()).hexdigest()
        directory = self._root() / key
        with self.key_lock(key):
            if key in self._results:
                log.debug("compile cache hit %s", key[:12])
                return replace(self._results[key], cached=True)
            run_argv = list(argv)
            pch_dir = self.pch_dir(source, argv, identity, timeout)
            if pch_dir is not None:
                # Beside the source word, where a wrapper in argv[0] (``env``,
                # ``nice``, ``ccache``) passes it on to the compiler.
                at = argv.index("case.cpp")
                run_argv[at:at] = ["-I", str(pch_dir)]
            try:
                proc = _run_compiler(directory, source, run_argv, timeout)
            except subprocess.TimeoutExpired:
                shutil.rmtree(directory, ignore_errors=True)
                return CompileResult(False, f"compile exceeded {timeout:.0f}s: {argv}", None,
                                     timed_out=True)
            ok, diagnostics = proc.returncode == 0, proc.stderr
            if ok and not (directory / "case.bin").is_file():
                ok, diagnostics = False, diagnostics + "compiler wrote no binary case.bin\n"
            result = CompileResult(ok, diagnostics, directory / "case.bin" if ok else None)
            self._results[key] = result
        return result

    def pch_dir(self, source: str, argv: list[str], identity: str,
                timeout: float) -> Path | None:
        """A directory to put first on the include path for this miss, or None.

        The directory holds a precompiled header of the source's leading
        include block, built once per (block, argv, compiler identity) after
        ``_PCH_AFTER_MISSES`` plain misses of that key. GCC loads it in place
        of parsing the block, with the same binary and diagnostics. A
        compiler other than GCC, an argv that moves the include search or
        does not name ``case.cpp`` and ``case.bin`` as whole words, and a
        key whose build failed compile without one.
        """
        leading = _leading_includes(source)
        if (leading is None or argv.count("case.cpp") != 1 or argv.count("case.bin") != 1
                or any(_NO_PCH_FLAG_RE.match(word) for word in argv[1:])
                or _GCC_MARK not in identity):
            return None
        block, header = leading
        key = hashlib.sha256(json.dumps([block, argv, identity]).encode()).hexdigest()
        with self.key_lock(f"pch-{key}"):
            if key not in self._pchs:
                self._pch_misses[key] += 1
                if self._pch_misses[key] <= _PCH_AFTER_MISSES:
                    return None
                self._pchs[key] = self._build_pch(key, block, header, argv, timeout)
            return self._pchs[key]

    def _build_pch(self, key: str, block: list[str], header: str, argv: list[str],
                   timeout: float) -> Path | None:
        """Compile the block as ``case.cpp`` into ``<header>.gch``, alone in its directory.

        The block is named and line-aligned like the source it came from, so
        an ``In file included from case.cpp:N`` note reads the same. A build
        that prints anything counts as failed: GCC does not replay a header's
        warnings (a ``#warning`` in a deprecated header, say) when it loads
        the PCH, so the compiles that did would lose them.
        """
        directory = self._root() / f"pch-{key}"
        gch = directory / f"{header}.gch"
        words = {"case.cpp": ["-x", "c++-header", "case.cpp"], "case.bin": [f"{header}.gch"]}
        build = [part for word in argv for part in words.get(word, [word])]
        start = time.perf_counter()
        try:
            gch.parent.mkdir(parents=True, exist_ok=True)
            proc = _run_compiler(directory, "\n".join(block) + "\n", build, timeout)
            ok = proc.returncode == 0 and not proc.stdout and not proc.stderr and gch.is_file()
        except (OSError, ToolchainError, subprocess.TimeoutExpired):
            ok = False
        finally:
            (directory / "case.cpp").unlink(missing_ok=True)
        log.debug("precompiled header <%s> for %s: %.2fs, %s", header, key[:12],
                  time.perf_counter() - start, "built" if ok else "failed")
        if not ok:
            shutil.rmtree(directory, ignore_errors=True)
            return None
        return directory

    def close(self) -> None:
        """Remove the store directory and forget every result and header."""
        with self._lock:
            if self._dir is not None:
                shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None
            self._results.clear()
            self._pch_misses.clear()
            self._pchs.clear()


_store = BuildStore()


def compile_argv(compile_cmd: str) -> list[str]:
    """The words of compile_cmd, with ``{src}`` as ``case.cpp`` and ``{bin}`` as ``case.bin``.

    Raises what ``str.format`` raises for any other ``{field}`` (KeyError,
    IndexError, AttributeError, TypeError), and ValueError for unbalanced
    braces or quotes, or words that never name the source and the binary.
    """
    argv = shlex.split(compile_cmd.format(src="case.cpp", bin="case.bin"))
    if not all(any(name in word for word in argv) for name in ("case.cpp", "case.bin")):
        raise ValueError(f"compile_cmd names no {{src}} or no {{bin}}: {compile_cmd!r}")
    return argv


def compile_gate(
    source: str,
    work_dir: Path | str,
    *,
    openmp: bool = True,
    compile_cmd: str = DEFAULT_COMPILE_CMD,
    timeout: float = DEFAULT_COMPILE_TIMEOUT,
) -> CompileResult:
    """Compile the source through the process's build store into work_dir.

    work_dir ends up holding the source and, when the compile succeeds, the
    binary: a hard link to (or a copy of) the one the store built. The store
    compiles each build (same source text, argv and compiler) once per
    process, in a directory of its own, so the diagnostics name ``case.cpp``
    wherever work_dir is; a repeated build gets the same ``ok`` and
    diagnostics with ``cached=True``. A timed-out compile is a failed
    result with ``timed_out`` set, and is never stored.

    A compiler that is missing or cannot start raises ToolchainError (an
    environment problem, distinct from a failed compile, which is a result).
    """
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    (work_dir / "case.cpp").write_text(source, encoding="utf-8")
    binary = work_dir / "case.bin"
    # A failed or timed-out build leaves no binary here, not even an older one.
    binary.unlink(missing_ok=True)
    argv = compile_argv(compile_cmd)
    if not openmp:
        argv = [a for a in argv if a != "-fopenmp"]
    compiler = shutil.which(argv[0])
    if compiler is None:
        raise ToolchainError(f"compiler {argv[0]!r} not found on this host")
    result = _store.build(source, argv, compiler, timeout)
    if not result.ok:
        return result
    tmp = work_dir / f".case.bin.{threading.get_ident()}.tmp"
    tmp.unlink(missing_ok=True)
    try:
        try:
            os.link(result.binary, tmp)
        except OSError:  # another filesystem, or no hard links there
            shutil.copy2(result.binary, tmp)
        os.replace(tmp, binary)
    finally:
        tmp.unlink(missing_ok=True)
    return replace(result, binary=binary)


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


def _lines_match(expected: str, actual: str) -> bool:
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
        if not abs(fe - fa) <= 1e-9 + DEFAULT_REL_TOL * max(abs(fe), abs(fa)):
            return False
    return True


def outputs_match(expected: str, actual: str) -> bool:
    """Line-by-line comparison with relative numeric tolerance."""
    exp_lines = normalize_output(expected)
    act_lines = normalize_output(actual)
    if len(exp_lines) != len(act_lines):
        return False
    return all(_lines_match(exp, act) for exp, act in zip(exp_lines, act_lines))


def _run_binary(
    binary: Path | str,
    input_args: list[str],
    timeout: float,
    threads: int | None = None,
) -> tuple[int | None, str, str]:
    """Run a case binary, with OMP_NUM_THREADS set when threads is given.

    Returns (exit_code, stdout, stderr); exit_code None means the run timed out.
    Bytes that do not decode map to lone surrogates, so output that is not
    UTF-8 ends no run, and different bytes still compare as different.
    """
    env = dict(os.environ)
    if threads is not None:
        env[OMP_THREADS_VAR] = str(threads)
    try:
        proc = subprocess.run(
            [str(binary), *input_args],
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
            errors="surrogateescape",
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
    notes: list[str] | None = None,
) -> Verdict:
    """Pass iff the parallel output matches serial at every thread count.

    The serial binary is the reference: when it exits non-zero or times out
    there is nothing to compare against, so the verdict is Skipped, and a
    line saying which is appended to ``notes`` when it is given.
    """
    input_args = list(input_args or [])
    code, serial_out, _ = _run_binary(serial_binary, input_args, timeout)
    if code != 0:
        log.warning("serial binary %s exited with %s", serial_binary, code)
        if notes is not None:
            outcome = f"timed out after {timeout:g}s" if code is None else f"exited with {code}"
            notes.append(f"serial reference {outcome}; differential check skipped")
        return Verdict.SKIPPED
    for threads in thread_counts:
        code, parallel_out, _ = _run_binary(parallel_binary, input_args, timeout, threads=threads)
        if code != 0:
            log.warning(
                "parallel binary %s exited with %s at %d threads",
                parallel_binary, code, threads,
            )
            return Verdict.RUNTIME_ERROR
        if not outputs_match(serial_out, parallel_out):
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
