"""The compile gate's build store: one compiler run per (source, argv, compiler)
in a process, hits that look like fresh compiles, and nothing kept across
processes."""

from __future__ import annotations

import hashlib
import logging
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import omprag
from omprag import validation
from omprag.config import PipelineConfig
from omprag.errors import CompileTimeoutError
from omprag.harvest import FixtureQaApi, RejectionReason, harvest_cases
from omprag.pipeline import validate_case
from omprag.validation import (
    _PCH_AFTER_MISSES, CaseSpec, Verdict, _leading_includes, classify_failure, compile_gate,
)

from conftest import FIXTURES, StandIn, requires_compiler

# What a stand-in answers to --version to pass for GCC.
GCC_VERSION = "g++ (stand-in) 12.2.0\nCopyright (C) 2022 Free Software Foundation, Inc."
BLOCK = "#include <vector>\n\n"


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


def test_timed_out_compile_is_not_stored(cc, tmp_path, build_store):
    for work in ("a", "b"):
        (tmp_path / work).mkdir()
        (tmp_path / work / "case.bin").write_text("an older binary")
        with pytest.raises(CompileTimeoutError):
            compile_gate("// SLOW", tmp_path / work, compile_cmd=cc.cmd(), timeout=1.0)
        assert {p.name for p in (tmp_path / work).iterdir()} == {"case.cpp"}
        assert not any(build_store._dir.iterdir())
    assert cc.runs == 2


def test_sources_gated_at_once_in_one_work_dir_get_their_own_results(cc, tmp_path):
    cc.write(before_read="time.sleep(0.5)")  # both sources are written before either is read
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(compile_gate, source, tmp_path / "gate", compile_cmd=cc.cmd())
                   for source in ("int main() {}", "BROKEN")]
        good, broken = [f.result(timeout=60) for f in futures]
    assert (good.ok, good.diagnostics, good.cached) == (True, "", False)
    assert (broken.ok, broken.binary, broken.cached) == (False, None, False)
    assert "error: broken" in broken.diagnostics
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


def test_compiler_that_writes_no_binary_is_a_failed_compile(tmp_path):
    """A compiler that exits 0 without writing the binary fails the case, in
    the gate, in the harvest and in validation, and raises nothing."""
    cmd = "/bin/true {src} {bin}"
    result = compile_gate("int main(){}", tmp_path / "gate", compile_cmd=cmd)
    assert not result.ok and result.binary is None
    assert "compiler wrote no binary case.bin" in result.diagnostics
    assert not (tmp_path / "gate" / "case.bin").exists()
    assert compile_gate("int main(){}", tmp_path / "again", compile_cmd=cmd).cached

    cfg = PipelineConfig(compile_cmd=cmd)
    candidates, specs = harvest_cases(["histogram"], FixtureQaApi(FIXTURES / "harvest"),
                                      tmp_path / "cases", cfg, max_pages=1)
    assert candidates and specs == []
    assert RejectionReason.COMPILE_FAIL in {c.rejection_reason for c in candidates}

    spec = CaseSpec("c1", str(tmp_path / "serial.cc"))
    case_dir = tmp_path / "run" / "cases" / "c1"
    case_dir.mkdir(parents=True)
    (case_dir / "generated.cpp").write_text("int main(){}\n")
    report = validate_case(spec, cfg, tmp_path / "run")
    assert not report.compile_ok
    assert "compiler wrote no binary case.bin" in report.diagnostics


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
    cc.write(version=GCC_VERSION)
    child = (
        "import sys\n"
        "from omprag import validation\n"
        f"validation.compile_gate('int main() {{}}', {str(tmp_path / 'a')!r},\n"
        f"                        compile_cmd={cc.cmd()!r})\n"
        f"for i in range(validation._PCH_AFTER_MISSES + 1):\n"
        f"    validation.compile_gate({BLOCK!r} + f'int main() {{{{ return {{i}}; }}}}',\n"
        f"                            {str(tmp_path / 'b')!r}, compile_cmd={cc.cmd()!r})\n"
        "store = validation._store._dir\n"
        "assert store is not None and any(store.iterdir())\n"
        "assert [p.name for p in store.glob('pch-*/*')] == ['vector.gch']\n"
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


def _header_builds(cc: StandIn) -> list[str]:
    return [line for line in cc.lines if "-x c++-header" in line]


def _misses_sharing_a_block(cc, tmp_path, count, flags="", block=BLOCK):
    """count distinct sources that start with the same include block, compiled in turn."""
    return [compile_gate(f"{block}int main() {{ return {i}; }}", tmp_path / f"m{i}",
                         compile_cmd=cc.cmd(flags)) for i in range(count)]


@pytest.mark.parametrize("header", ["vector", "bits/stdc++.h"])
def test_gcc_block_gets_one_precompiled_header_after_its_plain_misses(cc, tmp_path, header,
                                                                      build_store):
    cc.write(version=GCC_VERSION)
    block = f"// leading comment\n#include <{header}>\n\n#include <cstdio>\n\n"
    results = _misses_sharing_a_block(cc, tmp_path, _PCH_AFTER_MISSES + 2, "-O2", block)
    assert all(r.ok and not r.cached for r in results)
    build, = _header_builds(cc)
    assert build == f"-O2 -x c++-header case.cpp {header}.gch"
    pch_dir, = build_store._dir.glob("pch-*")
    assert sorted(str(p.relative_to(pch_dir)) for p in pch_dir.rglob("*.gch")) == [f"{header}.gch"]
    assert not (pch_dir / "case.cpp").exists()
    plain = cc.lines[:_PCH_AFTER_MISSES]
    with_pch = [line for line in cc.lines if line not in plain and line != build]
    assert all(line == "-O2 case.cpp case.bin" for line in plain)
    assert with_pch == [f"-O2 -I {pch_dir} case.cpp case.bin"] * 2


# Stands in for a wrapper such as env, nice or ccache: it answers --version
# for GCC, takes no option of its own, and runs the command that follows.
_WRAPPER = """#!{python}
import os, sys
if sys.argv[1:] == ["--version"]:
    print({version!r})
    sys.exit(0)
if sys.argv[1].startswith("-"):
    sys.exit("wrapper: unknown option " + sys.argv[1])
os.execv(sys.argv[1], sys.argv[1:])
"""


def test_wrapped_compiler_gets_the_header_directory_beside_the_source(cc, tmp_path,
                                                                      build_store):
    wrapper = tmp_path / "wrapper"
    wrapper.write_text(_WRAPPER.format(python=sys.executable, version=GCC_VERSION))
    wrapper.chmod(0o755)
    cmd = f"{wrapper} {cc.path} -O2 {{src}} {{bin}}"
    results = [compile_gate(f"{BLOCK}int main() {{ return {i}; }}", tmp_path / f"m{i}",
                            compile_cmd=cmd) for i in range(_PCH_AFTER_MISSES + 2)]
    assert [(r.ok, r.diagnostics) for r in results] == [(True, "")] * (_PCH_AFTER_MISSES + 2)
    assert _header_builds(cc) == ["-O2 -x c++-header case.cpp vector.gch"]
    pch_dir, = build_store._dir.glob("pch-*")
    assert cc.lines[-2:] == [f"-O2 -I {pch_dir} case.cpp case.bin"] * 2


def test_leading_include_block_keeps_line_numbers():
    source = ("// banner\n#include <iostream>\r\n\n  # include <vector>  \n//\n\n"
              "#define N 4\n#include <cmath>\n")
    assert _leading_includes(source) == (
        ["", "#include <iostream>\r", "", "  # include <vector>  "], "iostream")
    for continued in ("// a comment \\", "// a note ??/"):  # a backslash, or its trigraph
        assert _leading_includes(f"#include <omp.h>\n{continued}\n#include <x>\n") == (
            ["#include <omp.h>"], "omp.h")
    assert _leading_includes("// why?\n#include <vector>\n") == (["", "#include <vector>"],
                                                                  "vector")
    for source in ("int main() {}", '#include "local.h"\n', "// only\n\n",
                   "#include <../escape.h>\n", "#include </abs.h>\n",
                   "/* c */\n#include <vector>\n", "#include <vector> // trailing\n",
                   "// old Mac line end\r#include <vector>\n"):
        assert _leading_includes(source) is None, source


@pytest.mark.parametrize("on_version", [
    "sys.exit('unknown option --version')",
    "print(VERSION); sys.exit(0)",  # answers, but not as GCC
])
def test_compiler_that_is_not_gcc_never_builds_a_header(cc, tmp_path, on_version):
    cc.write(on_version=on_version)
    results = _misses_sharing_a_block(cc, tmp_path, _PCH_AFTER_MISSES + 2)
    assert all(r.ok for r in results)
    assert cc.runs == _PCH_AFTER_MISSES + 2
    assert not _header_builds(cc) and not any("-I" in line for line in cc.lines)


@pytest.mark.parametrize("flags", ["-I.", "-isystem inc", "--sysroot=/", "-nostdinc", "-H"])
def test_include_search_flags_get_no_header(cc, tmp_path, flags):
    cc.write(version=GCC_VERSION)
    _misses_sharing_a_block(cc, tmp_path, _PCH_AFTER_MISSES + 2, flags)
    assert cc.runs == _PCH_AFTER_MISSES + 2 and not _header_builds(cc)


def test_placeholder_inside_a_word_gets_no_header(cc, tmp_path):
    cc.write(version=GCC_VERSION)
    cmd = f"{cc.path} -O2 -x c++ ./{{src}} {{bin}}"
    for i in range(_PCH_AFTER_MISSES + 2):
        assert compile_gate(f"{BLOCK}int main() {{ return {i}; }}", tmp_path / f"m{i}",
                            compile_cmd=cmd).ok
    assert cc.runs == _PCH_AFTER_MISSES + 2 and not _header_builds(cc)


def test_failed_header_build_falls_back_and_is_not_retried(cc, tmp_path, build_store):
    cc.write(version=GCC_VERSION, on_header="sys.exit('no headers here')")
    plain = _misses_sharing_a_block(cc, tmp_path / "plain", _PCH_AFTER_MISSES + 3)
    assert len(_header_builds(cc)) == 1
    assert [(r.ok, r.diagnostics) for r in plain] == [(True, "")] * (_PCH_AFTER_MISSES + 3)
    assert all(_run(r.binary) == "RESULT 1\n" for r in plain)
    assert not any(line.startswith("-I") for line in cc.lines)
    assert not list(build_store._dir.glob("pch-*"))
    broken = compile_gate(f"{BLOCK}BROKEN", tmp_path / "broken", compile_cmd=cc.cmd())
    assert not broken.ok and "error: broken" in broken.diagnostics
    assert len(_header_builds(cc)) == 1


def test_concurrent_misses_build_the_header_once(cc, tmp_path):
    cc.write(version=GCC_VERSION)
    workers = min(64, 4 * len(os.sched_getaffinity(0)))  # more workers than cores
    count = _PCH_AFTER_MISSES + 2 * workers
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(compile_gate, f"{BLOCK}int main() {{ return {i}; }}",
                            tmp_path / f"w{i}", compile_cmd=cc.cmd())
                for i in range(count)
            ]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(r.ok and not r.cached for r in results)
    assert len(_header_builds(cc)) == 1
    assert cc.runs == count + 1
    assert sum(line.startswith("-I ") for line in cc.lines) == count - _PCH_AFTER_MISSES


def test_close_removes_the_header_and_forgets_the_counts(cc, tmp_path, build_store):
    cc.write(version=GCC_VERSION)
    _misses_sharing_a_block(cc, tmp_path / "a", _PCH_AFTER_MISSES + 1)
    gch, = build_store._dir.glob("pch-*/vector.gch")
    build_store.close()
    assert not gch.exists()
    _misses_sharing_a_block(cc, tmp_path / "b", _PCH_AFTER_MISSES)
    assert len(_header_builds(cc)) == 1  # the counts started again


# Logs each run as the SHA-256 of its case.cpp ("-" for the --version probe)
# and its arguments, tab-separated, then runs g++.
_GPP_LOGGER = """#!{python}
import hashlib, os, sys
args = sys.argv[1:]
digest = "-" if args == ["--version"] else hashlib.sha256(
    open("case.cpp", "rb").read()).hexdigest()
with open({log!r}, "a") as fh:
    fh.write(digest + "\\t" + "\\t".join(args) + "\\n")
os.execvp("g++", ["g++", *args])
"""


@requires_compiler
def test_precompiled_header_gives_the_same_binaries_and_diagnostics(tmp_path, monkeypatch):
    """Every fixture compiles to the same result with no header as through
    the header its leading block gets once enough other sources shared it."""
    log = tmp_path / "gpp.log"
    gpp = tmp_path / "gpp"
    gpp.write_text(_GPP_LOGGER.format(python=sys.executable, log=str(log)))
    gpp.chmod(0o755)
    cmd = f"{gpp} -fopenmp -std=c++17 -O2 {{src}} -o {{bin}}"
    sources = {path.name: path.read_text(encoding="utf-8") for path in [
        *sorted((FIXTURES / "broken").glob("*.cpp")), *sorted((FIXTURES / "cases").glob("*.cc"))]}

    def compile_all(jobs: dict, side: str) -> dict:
        with ThreadPoolExecutor(max_workers=len(os.sched_getaffinity(0))) as pool:
            futures = {name: pool.submit(compile_gate, source, tmp_path / side / name,
                                         compile_cmd=cmd)
                       for name, source in jobs.items()}
            results = {name: future.result(timeout=300) for name, future in futures.items()}
        return {name: (r.ok, r.diagnostics, r.binary.read_bytes() if r.ok else None,
                       None if r.ok else classify_failure(r.diagnostics, jobs[name]))
                for name, r in results.items()}

    def runs(after: int = 0) -> dict:
        """The arguments of each source's compile logged after line ``after``."""
        names = {hashlib.sha256(s.encode()).hexdigest(): name for name, s in sources.items()}
        lines = [line.split("\t") for line in log.read_text().splitlines()[after:]]
        return {names[digest]: args for digest, *args in lines if digest in names}

    with monkeypatch.context() as patch:  # a store that never builds a header
        patch.setattr(validation, "_PCH_AFTER_MISSES", len(sources))
        plain = compile_all(sources, "plain")
    assert not any("-I" in args for args in runs().values())

    monkeypatch.setattr(validation, "_store", validation.BuildStore())
    blocks = {"\n".join(_leading_includes(s)[0]) + "\n" for s in sources.values()}
    compile_all({f"{b}-{i}": f"{block}int main() {{ return {i}; }}\n"
                 for b, block in enumerate(sorted(blocks)) for i in range(_PCH_AFTER_MISSES)},
                "warm")
    warmed = len(log.read_text().splitlines())
    with_pch = compile_all(sources, "pch")
    for name, source in sources.items():
        assert with_pch[name] == plain[name], name
        args = runs(warmed)[name]
        at = args.index("-I")
        assert args[at + 2] == "case.cpp", name
        assert (Path(args[at + 1]) / f"{_leading_includes(source)[1]}.gch").is_file(), name
    header_builds = [line for line in log.read_text().splitlines() if "c++-header" in line]
    assert len(header_builds) == len(blocks)


@requires_compiler
def test_header_that_warns_gets_no_precompiled_header(tmp_path, build_store):
    """GCC does not replay a header's #warning when it loads a PCH, so a block
    whose header warns keeps compiling in full, with its warning."""
    log = tmp_path / "gpp.log"
    gpp = tmp_path / "gpp"
    gpp.write_text(_GPP_LOGGER.format(python=sys.executable, log=str(log)))
    gpp.chmod(0o755)
    cmd = f"{gpp} -std=c++17 -O2 {{src}} -o {{bin}}"
    results = [compile_gate(f"#include <strstream>\nint main() {{ return {i}; }}\n",
                            tmp_path / f"m{i}", compile_cmd=cmd)
               for i in range(_PCH_AFTER_MISSES + 2)]
    assert all(r.ok and "#warning" in r.diagnostics for r in results)
    assert len({r.diagnostics for r in results}) == 1
    runs = log.read_text().splitlines()
    assert len([line for line in runs if "c++-header" in line]) == 1
    assert not any("\t-I\t" in line for line in runs)
    assert not list(build_store._dir.glob("pch-*"))


@requires_compiler
def test_failed_link_diagnostics_name_case_o_on_every_run():
    """g++ links a temporary object with a fresh random name on each run."""
    source = "#include <omp.h>\nint main() { return omp_get_wtime() < 0; }\n"
    argv = validation.compile_argv("g++ -std=c++17 -O2 {src} -o {bin}")

    def link_once() -> tuple:
        store = validation.BuildStore()
        try:
            return store.build(source, argv, shutil.which("g++"), 60.0)
        finally:
            store.close()

    first, second = link_once(), link_once()
    assert first[0] is False and "undefined reference to `omp_get_wtime'" in first[1]
    assert "case.o: in function `main'" in first[1]
    assert second[:2] == first[:2]
