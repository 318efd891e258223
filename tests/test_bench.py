from __future__ import annotations

import csv
import os
import stat
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omprag.bench import (
    BenchLock,
    BenchRecord,
    IMPORTED,
    MEASURED,
    compute_speedups,
    import_records,
    parse_elapsed_seconds,
    render_runtime_table,
    run_sweep,
    write_records_csv,
    write_speedup_series,
    write_speedups_csv,
)
from omprag.cli import main as cli_main
from omprag.errors import BenchError, InvalidInputError, LockHeldError, ParseError
from omprag.validation import CaseSpec, save_jsonl

import omprag

REFERENCE_CSV = Path(omprag.__file__).parent / "data" / "reference_runtimes.csv"


def _record(case_id, threads, wall, source=MEASURED):
    return BenchRecord(case_id, threads, wall, 1, source)


def _fake_binary(tmp_path: Path, script: str) -> Path:
    path = tmp_path / "bench.sh"
    path.write_text("#!/bin/bash\n" + script)
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return path


class TestRunSweep:
    def test_min_of_repetitions(self, tmp_path):
        # fake benchmark: reports descending times on consecutive runs
        counter = tmp_path / "counter"
        counter.write_text("0")
        binary = _fake_binary(
            tmp_path,
            f'n=$(cat "{counter}"); n=$((n+1)); echo $n > "{counter}";\n'
            'echo "ELAPSED_SECONDS=0.$((10-n))"\n',
        )
        records = run_sweep("c", binary, thread_counts=[1], repetitions=3)
        assert len(records) == 1
        assert records[0].wall_seconds == pytest.approx(0.7)
        assert records[0].repetitions == 3
        assert records[0].source == MEASURED

    def test_single_thread_sweep_gives_unit_speedup(self, tmp_path):
        binary = _fake_binary(tmp_path, 'echo "ELAPSED_SECONDS=0.5"\n')
        records = run_sweep("c", binary, thread_counts=[1], repetitions=1)
        rows = compute_speedups(records)
        assert len(rows) == 1
        assert rows[0].speedup == 1.0

    def test_thread_env_var_is_passed(self, tmp_path):
        binary = _fake_binary(
            tmp_path, 'echo "threads=$OMP_NUM_THREADS"\necho "ELAPSED_SECONDS=0.$OMP_NUM_THREADS"\n'
        )
        records = run_sweep("c", binary, thread_counts=[1, 2], repetitions=1)
        assert [r.wall_seconds for r in records] == [pytest.approx(0.1), pytest.approx(0.2)]

    def test_missing_timing_line_is_parse_error(self, tmp_path):
        binary = _fake_binary(tmp_path, 'echo "no timing here"\n')
        with pytest.raises(ParseError):
            run_sweep("c", binary, thread_counts=[1], repetitions=1)

    def test_nonzero_exit_is_bench_error(self, tmp_path):
        binary = _fake_binary(tmp_path, 'echo "ELAPSED_SECONDS=0.1"\nexit 3\n')
        with pytest.raises(BenchError):
            run_sweep("c", binary, thread_counts=[1], repetitions=1)

    def test_oversubscription_tags_records(self, tmp_path):
        binary = _fake_binary(tmp_path, 'echo "ELAPSED_SECONDS=0.1"\n')
        huge = (os.cpu_count() or 1) * 64
        records = run_sweep("c", binary, thread_counts=[1, huge], repetitions=1)
        assert all(r.oversubscribed for r in records)

    def test_oversubscription_counts_the_cores_this_process_may_use(self, tmp_path,
                                                                     monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        binary = _fake_binary(tmp_path, 'echo "ELAPSED_SECONDS=0.1"\n')
        records = run_sweep("c", binary, thread_counts=[1, 2], repetitions=1)
        assert all(r.oversubscribed for r in records)

    def test_output_that_is_not_utf8_still_gives_its_timing(self, tmp_path):
        binary = _fake_binary(tmp_path, "printf '\\xff\\n'\necho \"ELAPSED_SECONDS=0.5\"\n")
        records = run_sweep("c", binary, thread_counts=[1], repetitions=1)
        assert records[0].wall_seconds == pytest.approx(0.5)

    def test_last_elapsed_line_wins(self):
        assert parse_elapsed_seconds("ELAPSED_SECONDS=1.0\nx\nELAPSED_SECONDS=2.5\n") == 2.5


class TestComputeSpeedups:
    def test_reference_speedups_match_published_values(self):
        records = import_records(REFERENCE_CSV)
        rows = {(r.case_id, r.threads): r.speedup for r in compute_speedups(records)}
        assert rows[("matrix_multiply", 8)] == pytest.approx(7.922, abs=1e-3)
        assert rows[("jacobi2d", 8)] == pytest.approx(5.737, abs=1e-3)
        assert rows[("histogram", 2)] == pytest.approx(0.805, abs=1e-3)
        assert rows[("gemm_polybench", 4)] == pytest.approx(32.929 / 8.492, abs=1e-6)

    def test_slowdowns_are_not_clamped(self):
        records = [_record("h", 1, 1.169), _record("h", 2, 1.452)]
        rows = compute_speedups(records)
        assert rows[1].speedup == pytest.approx(0.805, abs=1e-3)
        assert rows[1].speedup < 1.0

    def test_unit_speedup_at_one_thread_exact(self):
        records = [_record("c", 1, 0.123456), _record("c", 4, 0.05)]
        rows = compute_speedups(records)
        assert rows[0].threads == 1
        assert rows[0].speedup == 1.0

    def test_equal_times_give_unit_speedups(self):
        records = [_record("c", t, 2.0) for t in (1, 2, 4)]
        assert all(row.speedup == 1.0 for row in compute_speedups(records))

    def test_missing_baseline_rejected(self):
        with pytest.raises(InvalidInputError):
            compute_speedups([_record("c", 2, 1.0)])

    def test_duplicate_thread_count_rejected(self):
        with pytest.raises(InvalidInputError):
            compute_speedups([_record("c", 1, 1.0), _record("c", 1, 2.0)])

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_scale_invariance(self, factor):
        base = [_record("c", 1, 3.0), _record("c", 2, 1.7), _record("c", 8, 0.9)]
        scaled = [
            _record("c", r.threads, r.wall_seconds * factor) for r in base
        ]
        for a, b in zip(compute_speedups(base), compute_speedups(scaled)):
            assert abs(a.speedup - b.speedup) <= 1e-12 * max(1.0, a.speedup)


class TestImportRecords:
    def test_reference_file_has_28_records(self):
        records = import_records(REFERENCE_CSV)
        assert len(records) == 28
        assert all(r.source == IMPORTED for r in records)
        assert len({r.case_id for r in records}) == 7
        assert {r.threads for r in records} == {1, 2, 4, 8}

    def test_empty_file_gives_empty_list(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert import_records(path) == []

    def test_header_only_gives_empty_list(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("case_id,threads,wall_seconds\n")
        assert import_records(path) == []

    def test_nonpositive_wall_seconds_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("case_id,threads,wall_seconds\nc,1,0.0\n")
        with pytest.raises(ParseError, match="line 2"):
            import_records(path)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("case_id,threads,wall_seconds\nc,1,1.0\nc,two,1.0\n")
        with pytest.raises(ParseError, match="line 3"):
            import_records(path)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("case_id,threads\nc,1\n")
        with pytest.raises(ParseError, match="wall_seconds"):
            import_records(path)


class TestLock:
    def test_lock_round_trip(self, tmp_path):
        path = tmp_path / "bench.lock"
        with BenchLock(path):
            assert path.is_file()
        with BenchLock(path):  # released on exit
            assert path.is_file()

    def test_second_holder_refused(self, tmp_path):
        path = tmp_path / "bench.lock"
        with BenchLock(path):
            with pytest.raises(LockHeldError):
                BenchLock(path).__enter__()

    def test_stale_lock_is_stolen(self, tmp_path):
        path = tmp_path / "bench.lock"
        path.write_text("999999999")  # left behind by a runner that died
        with BenchLock(path):
            with pytest.raises(LockHeldError):
                BenchLock(path).__enter__()


class TestRendering:
    def _rows(self):
        records = import_records(REFERENCE_CSV)
        return records, compute_speedups(records)

    def test_records_csv_round_trips(self, tmp_path):
        records, _ = self._rows()
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        again = import_records(path)
        assert [(r.case_id, r.threads) for r in again] == [
            (r.case_id, r.threads) for r in records
        ]

    def test_speedups_csv_layout(self, tmp_path):
        _, rows = self._rows()
        path = tmp_path / "speedups.csv"
        write_speedups_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "case_id,threads,speedup"
        assert len(lines) == 1 + 28

    def test_speedup_series_wide_layout(self, tmp_path):
        _, rows = self._rows()
        path = tmp_path / "series.csv"
        write_speedup_series(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("threads,")
        assert len(lines[0].split(",")) == 8  # threads column + 7 cases
        assert len(lines) == 5  # header + 4 thread counts

    def test_runtime_table_mentions_every_case_and_time(self):
        records, _ = self._rows()
        table = render_runtime_table(records)
        assert "matrix_multiply" in table
        assert "179.809" in table
        assert "8 threads (s)" in table


# Stands in for a compiler: "compiles" a shell script by copying it to an
# executable output, and sleeps on a source that mentions SLOW.
_COPYING_CC = """
import os, shutil, sys, time
src, out = sys.argv[1], sys.argv[2]
if "SLOW" in open(src).read():
    time.sleep(60)
shutil.copy(src, out)
os.chmod(out, 0o755)
"""


def test_cli_bench_skips_a_failed_case_and_keeps_the_rest(tmp_path, caplog):
    compiler = tmp_path / "copying_cc.py"
    compiler.write_text(_COPYING_CC)
    config = tmp_path / "bench.ini"
    config.write_text(
        f"[omprag]\ncompile_cmd = {sys.executable} {compiler} {{src}} {{bin}}\n"
        "compile_timeout = 2\n"
    )
    run_dir = tmp_path / "run"
    generated = {
        "a": 'echo "ELAPSED_SECONDS=0.5"',
        "b": "exit 3",
        "c": "echo no timing line",
        "d": "# SLOW",
    }
    for case_id, body in generated.items():
        (run_dir / "cases" / case_id).mkdir(parents=True)
        (run_dir / "cases" / case_id / "generated.cpp").write_text(f"#!/bin/sh\n{body}\n")
    cases = [CaseSpec(case_id, "unused.cc") for case_id in [*generated, "missing"]]
    save_jsonl(cases, tmp_path / "cases.jsonl")
    out = tmp_path / "out"

    rc = cli_main([
        "bench", "--config", str(config), "--case-manifest", str(tmp_path / "cases.jsonl"),
        "--run-dir", str(run_dir), "--out-dir", str(out),
        "--threads-sweep", "1,2", "--repetitions", "1",
    ])
    assert rc == 0
    with (out / "records.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["case_id"], r["threads"]) for r in rows] == [("a", "1"), ("a", "2")]
    assert all((out / name).is_file() for name in
               ("records.csv", "speedups.csv", "speedup_series.csv", "runtime_table.txt"))
    warned = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    for prefix in (
        "skipping bench of b: b: benchmark exited 3 at 1 threads",
        "skipping bench of c: benchmark output has no ELAPSED_SECONDS",
        "skipping bench of d: compile exceeded 2s",
        "no generated code for missing",
    ):
        assert any(m.startswith(prefix) for m in warned), warned
