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
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import BenchError, CompileTimeoutError, InvalidInputError, LockHeldError, ParseError
from .tables import render_table
from .validation import CaseSpec, _run_binary, compile_gate

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
    if not thread_counts:
        raise InvalidInputError("thread_counts must be non-empty")
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
        record = BenchRecord(
            case_id=case_id,
            threads=threads,
            wall_seconds=min(times),
            repetitions=repetitions,
            source=MEASURED,
            oversubscribed=oversubscribed,
        )
        record.validate()
        records.append(record)
    return records


def bench_cases(cases: list[CaseSpec], cfg: PipelineConfig, run_dir: Path | str,
                build_dir: Path | str) -> list[BenchRecord]:
    """Build each parallelizable case's ``run_dir/cases/<id>/generated.cpp``
    in ``build_dir/<id>`` and sweep it. A case with no generated code, a
    failed or timed-out build, or a failed run is logged and skipped.
    """
    records: list[BenchRecord] = []
    for case in cases:
        if case.unparallelizable:
            continue
        generated = Path(run_dir) / "cases" / case.case_id / "generated.cpp"
        if not generated.is_file():
            log.warning("no generated code for %s; skipping bench", case.case_id)
            continue
        try:
            built = compile_gate(generated.read_text(encoding="utf-8"),
                                 Path(build_dir) / case.case_id,
                                 compile_cmd=cfg.compile_cmd, timeout=cfg.compile_timeout)
            if not built.ok:
                log.warning("generated code for %s does not compile; skipping", case.case_id)
                continue
            records.extend(run_sweep(case.case_id, built.binary, cfg.thread_sweep,
                                     cfg.repetitions, input_args=case.input_args))
        except (CompileTimeoutError, BenchError, ParseError) as exc:
            log.warning("skipping bench of %s: %s", case.case_id, exc)
    return records


def compute_speedups(records: list[BenchRecord]) -> list[SpeedupRow]:
    """speedup(t) = wall(1) / wall(t), per case; never clamped."""
    by_case: dict[str, dict[int, float]] = {}
    case_order: list[str] = []
    for record in records:
        record.validate()
        per_case = by_case.setdefault(record.case_id, {})
        if record.threads in per_case:
            raise InvalidInputError(
                f"{record.case_id}: duplicate record for {record.threads} threads"
            )
        if record.case_id not in case_order:
            case_order.append(record.case_id)
        per_case[record.threads] = record.wall_seconds
    rows: list[SpeedupRow] = []
    for case_id in case_order:
        per_case = by_case[case_id]
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
