"""The compile gate's build store: one compiler run per (source, argv, compiler)
in a process, hits that look like fresh compiles, and nothing kept across
processes."""

from __future__ import annotations

import logging
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import omprag
from omprag.config import PipelineConfig
from omprag.errors import CompileTimeoutError
from omprag.harvest import FixtureQaApi, harvest_cases
from omprag.pipeline import validate_case
from omprag.validation import Verdict, compile_gate

from conftest import FIXTURES, requires_compiler

# Stands in for a compiler: logs each run, answers --version from VERSION,
# fails on a source marked BROKEN, sleeps on one marked SLOW, and otherwise
# writes a shell script that prints one line.
_STAND_IN = """#!{python}
import os, sys, time
VERSION = {version!r}
if sys.argv[1:] == ["--version"]:
    {on_version}
src, out = sys.argv[-2:]
text = open(src).read()
with open({log!r}, "a") as fh:
    fh.write(" ".join(sys.argv[1:]) + "\\n")
if "SLOW" in text:
    time.sleep(60)
if "BROKEN" in text:
    sys.exit("case.cpp:1: error: broken")
with open(out, "w") as fh:
    fh.write("#!/bin/sh\\necho RESULT 1\\n")
os.chmod(out, 0o755)
"""


class StandIn:
    def __init__(self, directory: Path):
        self.path = directory / "stand_in_cc"
        self.log = directory / "stand_in_runs.log"
        self.write()

    def write(self, version: str = "stand-in 1.0",
              on_version: str = "print(VERSION); sys.exit(0)") -> None:
        self.path.write_text(_STAND_IN.format(
            python=sys.executable, version=version, on_version=on_version, log=str(self.log)))
        self.path.chmod(0o755)

    def cmd(self, flags: str = "") -> str:
        return f"{self.path} {flags} {{src}} {{bin}}"

    @property
    def runs(self) -> int:
        return len(self.log.read_text().splitlines()) if self.log.exists() else 0


@pytest.fixture
def cc(tmp_path) -> StandIn:
    return StandIn(tmp_path)


def _run(binary: Path) -> str:
    return subprocess.run([str(binary)], capture_output=True, text=True, timeout=30).stdout


def test_same_source_and_flags_compile_once(cc, tmp_path, caplog):
    first = compile_gate("int main() {}", tmp_path / "a", compile_cmd=cc.cmd())
    with caplog.at_level(logging.DEBUG, logger="omprag.validation"):
        second = compile_gate("int main() {}", tmp_path / "b", compile_cmd=cc.cmd())
    assert cc.runs == 1
    assert (first.ok, first.diagnostics, first.cached) == (True, "", False)
    assert (second.ok, second.diagnostics, second.cached) == (True, "", True)
    assert second.binary == tmp_path / "b" / "case.bin"
    assert [r.message for r in caplog.records if "compile cache hit" in r.message]


def test_failed_compile_is_stored_with_its_diagnostics(cc, tmp_path):
    first = compile_gate("BROKEN", tmp_path / "a", compile_cmd=cc.cmd())
    second = compile_gate("BROKEN", tmp_path / "b", compile_cmd=cc.cmd())
    assert cc.runs == 1
    assert not first.ok and first.binary is None
    assert (second.ok, second.diagnostics, second.binary) == (False, first.diagnostics, None)
    assert "error: broken" in second.diagnostics
    assert {p.name for p in (tmp_path / "b").iterdir()} == {"case.cpp"}


@pytest.mark.parametrize("change", ["source", "openmp", "compile_cmd", "version"])
def test_any_key_input_change_misses(cc, tmp_path, change):
    compile_gate("int main() {}", tmp_path / "a", compile_cmd=cc.cmd("-fopenmp"))
    source, openmp, cmd = "int main() {}", True, cc.cmd("-fopenmp")
    if change == "source":
        source = "int main() { return 0; }"
    elif change == "openmp":
        openmp = False
    elif change == "compile_cmd":
        cmd = cc.cmd("-fopenmp -O2")
    else:
        cc.write(version="stand-in 10.0")
    again = compile_gate(source, tmp_path / "b", openmp=openmp, compile_cmd=cmd)
    assert cc.runs == 2
    assert again.ok and not again.cached


def test_hit_survives_the_first_work_dir(cc, tmp_path):
    compile_gate("int main() {}", tmp_path / "a", compile_cmd=cc.cmd())
    shutil.rmtree(tmp_path / "a")
    hit = compile_gate("int main() {}", tmp_path / "b", compile_cmd=cc.cmd())
    assert hit.cached and cc.runs == 1
    assert _run(hit.binary) == "RESULT 1\n"
    assert {p.name for p in (tmp_path / "b").iterdir()} == {"case.cpp", "case.bin"}
    assert (tmp_path / "b" / "case.cpp").read_text() == "int main() {}"


def test_timed_out_compile_is_not_stored(cc, tmp_path):
    for work in ("a", "b"):
        with pytest.raises(CompileTimeoutError):
            compile_gate("// SLOW", tmp_path / work, compile_cmd=cc.cmd(), timeout=1.0)
    assert cc.runs == 2


@pytest.mark.parametrize("on_version", [
    "sys.exit('unknown option --version')",
    "time.sleep(60)",
])
def test_compiler_without_a_version_still_compiles(cc, tmp_path, on_version):
    cc.write(on_version=on_version)
    result = compile_gate("int main() {}", tmp_path / "a", compile_cmd=cc.cmd(), timeout=3.0)
    again = compile_gate("int main() {}", tmp_path / "b", compile_cmd=cc.cmd(), timeout=3.0)
    assert result.ok and again.cached and cc.runs == 1


def test_concurrent_same_key_calls_all_succeed(cc, tmp_path):
    workers = min(64, 4 * len(os.sched_getaffinity(0)))  # more workers than cores
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(compile_gate, "int main() {}", tmp_path / f"w{i}",
                            compile_cmd=cc.cmd())
                for i in range(workers)
            ]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert cc.runs == 1
    assert sum(not r.cached for r in results) == 1
    for result in results:
        assert result.ok and _run(result.binary) == "RESULT 1\n"
        assert {p.name for p in result.binary.parent.iterdir()} == {"case.cpp", "case.bin"}


@requires_compiler
def test_harvested_serial_source_is_built_once(tmp_path):
    """harvest_cases, then validation under two profiles:
    each serial source reaches g++ once."""
    log = tmp_path / "gpp_runs.log"
    wrapper = tmp_path / "gpp"
    wrapper.write_text(
        f"#!{sys.executable}\n"
        "import os, sys\n"
        f"with open({str(log)!r}, 'a') as fh:\n"
        "    fh.write(' '.join(sys.argv[1:]) + '\\n')\n"
        "os.execvp('g++', ['g++', *sys.argv[1:]])\n"
    )
    wrapper.chmod(0o755)
    compile_cmd = f"{wrapper} -fopenmp -std=c++17 -O2 {{src}} -o {{bin}}"

    def serial_runs() -> int:
        return sum(1 for line in log.read_text().splitlines()
                   if "-fopenmp" not in line and "--version" not in line)

    cfg = PipelineConfig(compile_cmd=compile_cmd, differential_threads=(1, 2))
    _, specs = harvest_cases(["histogram"], FixtureQaApi(FIXTURES / "harvest"),
                             tmp_path / "cases", cfg, max_pages=1)
    assert len(specs) == 2
    assert serial_runs() == 2

    for profile in ("baseline", "rag"):
        out_dir = tmp_path / profile
        for spec in specs:
            case_dir = out_dir / "cases" / spec.case_id
            case_dir.mkdir(parents=True)
            shutil.copy(spec.serial_path, case_dir / "generated.cpp")
            report = validate_case(spec, cfg, out_dir)
            assert report.differential_verdict is Verdict.PASS, report.diagnostics
            assert (case_dir / "build_serial" / "case.bin").is_file()
    assert serial_runs() == 2


def test_store_directory_is_removed_when_the_process_exits(cc, tmp_path):
    child = (
        "import sys\n"
        "from omprag import validation\n"
        f"validation.compile_gate('int main() {{}}', {str(tmp_path / 'a')!r},\n"
        f"                        compile_cmd={cc.cmd()!r})\n"
        "store = validation._store._dir\n"
        "assert store is not None and any(store.iterdir())\n"
        "print(store)\n"
    )
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [
               str(Path(omprag.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    store = Path(proc.stdout.strip())
    assert store.name.startswith("omprag-builds-")
    assert not store.exists()
