"""Thread-sweep benchmarking, speedup computation, and scaling reports.

Benchmark programs self-report elapsed wall time by printing
``ELAPSED_SECONDS=<float>`` on their final line; the runner aggregates
repetitions by minimum. Runs are strictly serialized through a lock file
so no other benchmark shares the machine.
"""

from __future__ import annotations

import csv
import fcntl
import logging
import os
import re
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import BenchError, InvalidInputError, LockHeldError, ParseError, UsageError
from .tables import render_table
from .validation import CaseSpec, ValidationReport, Verdict, _run_binary, load_jsonl

if TYPE_CHECKING:
    from .config import PipelineConfig

log = logging.getLogger(__name__)

DEFAULT_THREAD_SWEEP = (1, 2, 4, 8)
DEFAULT_REPETITIONS = 3
DEFAULT_BENCH_TIMEOUT = 600.0

_ELAPSED_RE = re.compile(r"^ELAPSED_SECONDS=([0-9.eE+-]+)\s*$", re.MULTILINE)

MEASURED = "Measured"
IMPORTED = "Imported"


@dataclass
class BenchRecord:
    case_id: str
    threads: int
    wall_seconds: float
    repetitions: int
    source: str = MEASURED
    oversubscribed: bool = False

    def validate(self) -> None:
        if self.threads < 1:
            raise InvalidInputError(f"{self.case_id}: threads must be positive")
        if not self.wall_seconds > 0:
            raise InvalidInputError(f"{self.case_id}: wall_seconds must be > 0")
        if self.repetitions < 1:
            raise InvalidInputError(f"{self.case_id}: repetitions must be positive")


@dataclass
class SpeedupRow:
    case_id: str
    threads: int
    speedup: float


class BenchLock:
    """Exclusive-run lock: an advisory ``flock`` on the lock file.

    The kernel releases the lock when its holder exits, however it exits, so
    a file left behind never blocks a later runner. The file is not removed
    on exit: a runner that unlinked it while locked would let the next one
    lock a new file beside a runner still holding the old one.
    """

    def __init__(self, path: Path | str):
        self.path = Path(path)
        self._fd: int | None = None

    def __enter__(self) -> "BenchLock":
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.path, os.O_CREAT | os.O_WRONLY, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:
            os.close(fd)
            if isinstance(exc, BlockingIOError):
                raise LockHeldError(
                    f"benchmark lock {self.path} is held by another runner") from None
            raise
        self._fd = fd
        return self

    def __exit__(self, *exc_info) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


def parse_elapsed_seconds(output: str) -> float:
    matches = _ELAPSED_RE.findall(output)
    if not matches:
        raise ParseError("benchmark output has no ELAPSED_SECONDS=<float> line")
    try:
        return float(matches[-1])
    except ValueError as exc:
        raise ParseError(f"bad ELAPSED_SECONDS value {matches[-1]!r}") from exc


def run_sweep(
    case_id: str,
    binary: Path | str,
    thread_counts=DEFAULT_THREAD_SWEEP,
    repetitions: int = DEFAULT_REPETITIONS,
    *,
    input_args: list[str] | None = None,
) -> list[BenchRecord]:
    """Time the binary at each thread count; record the minimum of the reps."""
    if repetitions < 1:
        raise InvalidInputError("repetitions must be >= 1")
    if not thread_counts or min(thread_counts) < 1:
        raise InvalidInputError("thread_counts must contain positive thread counts")
    input_args = list(input_args or [])
    cores = len(os.sched_getaffinity(0))  # the cores this process may run on
    oversubscribed = max(thread_counts) > cores
    if oversubscribed:
        log.warning(
            "process may use %d cores but the sweep requests up to %d threads; "
            "records are tagged oversubscribed", cores, max(thread_counts),
        )
    records: list[BenchRecord] = []
    for threads in thread_counts:
        times: list[float] = []
        for _ in range(repetitions):
            code, stdout, stderr = _run_binary(binary, input_args, DEFAULT_BENCH_TIMEOUT,
                                               threads=threads)
            if code is None:
                raise BenchError(f"{case_id}: benchmark timed out at {threads} threads")
            if code != 0:
                raise BenchError(
                    f"{case_id}: benchmark exited {code} at {threads} threads: "
                    f"{stderr.strip()[:200]}"
                )
            elapsed = parse_elapsed_seconds(stdout)
            if not elapsed > 0:
                raise BenchError(f"{case_id}: non-positive elapsed time {elapsed}")
            times.append(elapsed)
        records.append(BenchRecord(case_id, threads, min(times), repetitions,
                                   oversubscribed=oversubscribed))
    return records


def _check_validated(report: ValidationReport | None, build: Path) -> None:
    """Raise BenchError unless validation passed the binary in build and built
    it from the text now in ``generated.cpp`` (the gate left that as case.cpp)."""
    if report is None:
        raise BenchError("no validation report")
    if not report.compile_ok:
        why = report.failure_category.value if report.failure_category else report.diagnostics
        raise BenchError("not compiled: " + why.split("\n")[0])
    if report.differential_verdict is not Verdict.PASS:
        raise BenchError(f"differential verdict {report.differential_verdict.value}")
    with suppress(OSError, UnicodeDecodeError):
        if ((build / "case.bin").is_file() and (build / "case.cpp").read_text(encoding="utf-8")
                == (build.parent / "generated.cpp").read_text(encoding="utf-8")):
            return
    raise BenchError("changed since validation")


def bench_cases(cases: list[CaseSpec], cfg: PipelineConfig,
                run_dir: Path | str) -> list[BenchRecord]:
    """Sweep each parallelizable case's ``run_dir/cases/<id>/build/case.bin``
    that ``run_dir/reports.jsonl`` accepted; nothing is compiled. Every other
    case, and a failed sweep, is logged and skipped.
    """
    reports_path = Path(run_dir) / "reports.jsonl"
    if not reports_path.is_file():
        raise UsageError(f"no {reports_path}: validate the run before benchmarking it")
    reports = {r.case_id: r for r in load_jsonl(reports_path, ValidationReport)}
    records: list[BenchRecord] = []
    for case in cases:
        if case.unparallelizable:
            continue
        build = Path(run_dir) / "cases" / case.case_id / "build"
        try:
            _check_validated(reports.get(case.case_id), build)
            records.extend(run_sweep(case.case_id, build / "case.bin", cfg.thread_sweep,
                                     cfg.repetitions, input_args=case.input_args))
        except (BenchError, ParseError) as exc:
            log.warning("skipping bench of %s: %s", case.case_id, exc)
    return records


def compute_speedups(records: list[BenchRecord]) -> list[SpeedupRow]:
    """speedup(t) = wall(1) / wall(t), per case; never clamped."""
    by_case: dict[str, dict[int, float]] = {}  # cases in first-seen order
    for record in records:
        record.validate()
        per_case = by_case.setdefault(record.case_id, {})
        if record.threads in per_case:
            raise InvalidInputError(
                f"{record.case_id}: duplicate record for {record.threads} threads"
            )
        per_case[record.threads] = record.wall_seconds
    rows: list[SpeedupRow] = []
    for case_id, per_case in by_case.items():
        if 1 not in per_case:
            raise InvalidInputError(f"{case_id}: no 1-thread baseline record")
        baseline = per_case[1]
        for threads in sorted(per_case):
            rows.append(SpeedupRow(case_id, threads, baseline / per_case[threads]))
    return rows


def import_records(csv_path: Path | str) -> list[BenchRecord]:
    """Load (case_id, threads, wall_seconds) rows as Imported records."""
    path = Path(csv_path)
    records: list[BenchRecord] = []
    with path.open(encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            return []
        required = {"case_id", "threads", "wall_seconds"}
        missing = required - set(reader.fieldnames)
        if missing:
            raise ParseError(f"{path}: missing CSV columns: {sorted(missing)}")
        for row in reader:
            lineno = reader.line_num
            try:
                record = BenchRecord(
                    case_id=row["case_id"].strip(),
                    threads=int(row["threads"]),
                    wall_seconds=float(row["wall_seconds"]),
                    repetitions=int(row.get("repetitions") or 1),
                    source=IMPORTED,
                )
                record.validate()
            except (TypeError, ValueError, InvalidInputError) as exc:
                raise ParseError(f"{path} line {lineno}: {exc}") from exc
            records.append(record)
    return records


# --------------------------------------------------------------------------
# Report rendering
# --------------------------------------------------------------------------

def write_records_csv(records: list[BenchRecord], path: Path | str) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["case_id", "threads", "wall_seconds", "repetitions", "source"])
        for r in records:
            writer.writerow([r.case_id, r.threads, f"{r.wall_seconds:.6f}", r.repetitions, r.source])


def write_speedups_csv(rows: list[SpeedupRow], path: Path | str) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["case_id", "threads", "speedup"])
        for row in rows:
            writer.writerow([row.case_id, row.threads, f"{row.speedup:.3f}"])


def _pivot(cells) -> tuple[list[str], list[int], dict[tuple[str, int], float]]:
    """(cases in first-seen order, sorted thread counts, value by (case, threads))
    from (case_id, threads, value) triples."""
    cases: list[str] = []
    threads: list[int] = []
    values: dict[tuple[str, int], float] = {}
    for case_id, t, value in cells:
        if case_id not in cases:
            cases.append(case_id)
        if t not in threads:
            threads.append(t)
        values[(case_id, t)] = value
    return cases, sorted(threads), values


def write_speedup_series(rows: list[SpeedupRow], path: Path | str) -> None:
    """Plot-ready wide layout: one row per thread count, one column per case."""
    cases, threads, values = _pivot((r.case_id, r.threads, r.speedup) for r in rows)
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threads"] + cases)
        for t in threads:
            writer.writerow(
                [t] + [f"{values[(c, t)]:.3f}" if (c, t) in values else "" for c in cases]
            )


def render_runtime_table(records: list[BenchRecord]) -> str:
    """Plain-text runtimes table: one case per row, one column per thread count."""
    cases, threads, walls = _pivot((r.case_id, r.threads, r.wall_seconds) for r in records)
    header = ["Case"] + [f"{t} thread{'s' if t != 1 else ''} (s)" for t in threads]
    return render_table(
        [header]
        + [
            [case_id]
            + [f"{walls[(case_id, t)]:.3f}" if (case_id, t) in walls else "-" for t in threads]
            for case_id in cases
        ]
    )
