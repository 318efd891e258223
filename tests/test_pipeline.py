from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from omprag.cli import _config_from_args, build_parser
from omprag.cli import main as cli_main
from omprag.config import PipelineConfig, load_config
from omprag.embedding import HashedTfidfEmbedder
from omprag.errors import InvalidInputError, ProviderError, UsageError
from omprag.generation import ReplayProvider
from omprag.pipeline import (
    PipelineDeps,
    RunSummary,
    render_comparison,
    report,
    run_pipeline,
    summarize,
    validate_and_report,
)
from omprag.validation import (
    CaseSpec,
    FailureCategory,
    ValidationReport,
    Verdict,
    load_jsonl,
    save_jsonl,
)

from conftest import FIXTURES, requires_compiler

import omprag

REFERENCE_OUTCOMES = Path(omprag.__file__).parent / "data" / "reference_outcomes"


def _deps(mini_env, profile: str) -> PipelineDeps:
    return PipelineDeps(
        provider=ReplayProvider(mini_env.replay_dirs[profile]),
        template=mini_env.template,
        corpus_manifest=mini_env.manifest,
        index=mini_env.index,
        embedder=mini_env.embedder,
    )


def _report(case_id, ok=True, category=None, excluded=False):
    return ValidationReport(
        case_id=case_id,
        compile_ok=ok,
        failure_category=category,
        diagnostics="",
        differential_verdict=Verdict.PASS if ok else Verdict.SKIPPED,
        threads_tested=[1] if ok else [],
        excluded_unparallelizable=excluded,
    )


class TestSummarize:
    def test_counts_and_rate(self):
        reports = (
            [_report(f"c{i}") for i in range(5)]
            + [_report("f1", ok=False, category=FailureCategory.SYNTAX_ERROR)]
            + [_report("x1", ok=False, excluded=True)]
        )
        summary = summarize(reports)
        assert summary.total_cases == 7
        assert summary.compile_success == 5
        assert summary.fixable_failures == 1
        assert summary.excluded_unparallelizable == 1
        assert summary.effective_success_rate == pytest.approx(5 / 6)

    def test_empty_run(self):
        summary = summarize([])
        assert summary.total_cases == 0
        assert summary.effective_success_rate is None

    def test_inconsistent_counts_rejected(self):
        with pytest.raises(InvalidInputError):
            RunSummary(3, 1, 1, 0, None)


class TestReport:
    def _load(self, name):
        return load_jsonl(REFERENCE_OUTCOMES / f"{name}.jsonl", ValidationReport)

    def test_text_contains_counts_and_rates(self):
        text = report(self._load("baseline"), "text")
        assert "82/108 (75.9%)" in text
        assert "20/108 (18.5%)" in text
        assert "6/108 (excluded)" in text
        assert "82/102 (80.4%)" in text
        assert "UndeclaredInClause" in text

    def test_json_format(self):
        payload = json.loads(report(self._load("augmented"), "json"))
        assert payload["compile_success"] == 102
        assert payload["effective_success_rate"] == 1.0

    def test_csv_format(self):
        text = report(self._load("baseline"), "csv")
        assert "compile_success,82" in text
        assert "category_SyntaxError,3" in text

    def test_unknown_format_is_usage_error(self):
        with pytest.raises(UsageError):
            report([], "xml")

    def test_single_passing_case_is_full_success(self):
        text = report([_report("only")], "text")
        assert "1/1 (100.0%)" in text

    def test_all_excluded_renders_undefined_marker(self):
        text = report([_report("x", ok=False, excluded=True)], "text")
        assert "0/0 (n/a)" in text

    def test_comparison_table(self):
        labeled = [
            ("baseline", summarize(self._load("baseline"))),
            ("rag", summarize(self._load("augmented"))),
        ]
        table = render_comparison(labeled)
        assert "75.9%" in table and "94.4%" in table
        assert "80.4%" in table and "100.0%" in table


@requires_compiler
class TestRunPipeline:
    def test_rag_profile_end_to_end(self, mini_env, tmp_path, no_network):
        cfg = load_config(overrides={"out_dir": str(tmp_path / "out")})
        reports, summary = run_pipeline(
            mini_env.cases, cfg, _deps(mini_env, "rag"), tmp_path / "out"
        )
        assert [r.case_id for r in reports] == [c.case_id for c in mini_env.cases]
        assert all(r.compile_ok for r in reports)
        assert all(r.differential_verdict is Verdict.PASS for r in reports)
        assert summary.effective_success_rate == 1.0
        assert (tmp_path / "out" / "reports.jsonl").is_file()
        assert (tmp_path / "out" / "cases" / "case1" / "generated.cpp").is_file()
        # rendered prompts in rag mode embed retrieved tutorial context
        prompt = (tmp_path / "out" / "cases" / "case1" / "prompt.txt").read_text()
        assert "BEGIN CONTEXT" in prompt

    def test_baseline_profile_omits_context(self, mini_env, tmp_path, no_network):
        cfg = load_config(overrides={"profile": "baseline", "out_dir": str(tmp_path / "o")})
        deps = _deps(mini_env, "baseline")
        reports, summary = run_pipeline(mini_env.cases, cfg, deps, tmp_path / "o")
        prompt = (tmp_path / "o" / "cases" / "case1" / "prompt.txt").read_text()
        assert "[no retrieved context]" in prompt
        assert "BEGIN CONTEXT" not in prompt
        assert summary.compile_success == 5

    def test_byte_identical_across_runs(self, mini_env, tmp_path, no_network):
        cfg = load_config()
        deps = _deps(mini_env, "rag")
        run_pipeline(mini_env.cases, cfg, deps, tmp_path / "a")
        run_pipeline(mini_env.cases, cfg, deps, tmp_path / "b")
        for name in ("reports.jsonl", "summary.json", "summary.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_replay_miss_recorded_not_fatal(self, mini_env, tmp_path, no_network):
        cases = mini_env.cases + [
            CaseSpec("case_unrecorded", str(FIXTURES / "cases" / "case1.cc"))
        ]
        cfg = load_config()
        reports, summary = run_pipeline(cases, cfg, _deps(mini_env, "rag"), tmp_path / "o")
        by_id = {r.case_id: r for r in reports}
        missing = by_id["case_unrecorded"]
        assert not missing.compile_ok
        assert "generation failed" in missing.diagnostics
        assert summary.compile_success == 5
        assert summary.fixable_failures == 1

    def test_unparallelizable_case_excluded(self, mini_env, tmp_path, no_network):
        cases = mini_env.cases + [
            CaseSpec("case_skip", str(FIXTURES / "cases" / "case1.cc"), [], True)
        ]
        cfg = load_config()
        reports, summary = run_pipeline(cases, cfg, _deps(mini_env, "rag"), tmp_path / "o")
        skip = [r for r in reports if r.case_id == "case_skip"][0]
        assert skip.excluded_unparallelizable
        assert skip.differential_verdict is Verdict.SKIPPED
        assert summary.excluded_unparallelizable == 1
        assert summary.effective_success_rate == 1.0

    def test_empty_manifest_gives_zero_summary(self, mini_env, tmp_path):
        cfg = load_config()
        reports, summary = run_pipeline([], cfg, _deps(mini_env, "rag"), tmp_path / "o")
        assert reports == []
        assert summary.total_cases == 0

    def test_bad_generated_code_is_classified_failure(self, mini_env, tmp_path, no_network):
        from omprag.generation import write_record
        from omprag.prompt import build_prompt

        replay = tmp_path / "replay"
        replay.mkdir()
        case = CaseSpec("case_bad", str(FIXTURES / "cases" / "case1.cc"))
        source = Path(case.serial_path).read_text()
        hits = mini_env.index.query_topk(mini_env.embedder.embed(source), 4)
        bundle = build_prompt(source, hits, mini_env.manifest, mini_env.template)
        broken = (FIXTURES / "broken" / "default_none_violation.cpp").read_text()
        write_record(replay, "case_bad", bundle.rendered,
                     f"```cpp\n{broken}\n```")
        cfg = load_config()
        deps = PipelineDeps(
            provider=ReplayProvider(replay),
            template=mini_env.template,
            corpus_manifest=mini_env.manifest,
            index=mini_env.index,
            embedder=mini_env.embedder,
        )
        reports, summary = run_pipeline([case], cfg, deps, tmp_path / "o")
        assert reports[0].failure_category is FailureCategory.DEFAULT_NONE_VIOLATION
        assert summary.fixable_failures == 1

    def test_a_rerun_is_judged_on_its_own_reply(self, mini_env, tmp_path, no_network):
        """Rerunning into one out_dir leaves no earlier outcome file behind."""
        from omprag.generation import write_record
        from omprag.prompt import build_prompt

        case = mini_env.cases[0]
        source = Path(case.serial_path).read_text()
        hits = mini_env.index.query_topk(mini_env.embedder.embed(source), 4)
        bundle = build_prompt(source, hits, mini_env.manifest, mini_env.template)
        recorded = mini_env.replay_dirs["rag"]
        unrecorded, prose = tmp_path / "none", tmp_path / "prose"
        unrecorded.mkdir()
        write_record(prose, case.case_id, bundle.rendered, "No code block this time.")
        expected = {unrecorded: "generation failed: no recorded reply",
                    recorded: Verdict.PASS,
                    prose: "model reply contained no code block"}
        deps = _deps(mini_env, "rag")
        for replay in (unrecorded, recorded, prose, recorded, unrecorded):
            deps.provider = ReplayProvider(replay)
            (only,), _ = run_pipeline([case], load_config(), deps, tmp_path / "o")
            if expected[replay] is Verdict.PASS:
                assert only.differential_verdict is Verdict.PASS, only.diagnostics
            else:
                assert only.diagnostics.startswith(expected[replay]), replay


# Stands in for g++: sleeps past the timeout on a source marked SLOW, and
# otherwise writes a binary that prints one fixed line.
_FAKE_COMPILER = """
import os, sys, time
src, out = sys.argv[1], sys.argv[2]
if "SLOW" in open(src).read():
    time.sleep(60)
with open(out, "w") as fh:
    fh.write("#!/bin/sh\\necho RESULT 1\\n")
os.chmod(out, 0o755)
"""


class TestCompileTimeout:
    def test_timed_out_compile_is_a_report_not_an_abort(self, tmp_path):
        compiler = tmp_path / "fake_cc.py"
        compiler.write_text(_FAKE_COMPILER)
        command = f"{shlex.quote(sys.executable)} {shlex.quote(str(compiler))}"
        cfg = PipelineConfig(
            compile_cmd=command + " {src} {bin}",
            compile_timeout=2.0,
            differential_threads=(1, 2),
            workers=3,
        )
        out = tmp_path / "o"
        cases = []
        for case_id, serial, generated in [
            ("ok", "int main() {}", "int main() {}"),
            ("slow_parallel", "int main() {}", "// SLOW"),
            ("slow_serial", "// SLOW", "int main() {}"),
        ]:
            serial_path = tmp_path / f"{case_id}.cc"
            serial_path.write_text(serial)
            (out / "cases" / case_id).mkdir(parents=True)
            (out / "cases" / case_id / "generated.cpp").write_text(generated)
            cases.append(CaseSpec(case_id, str(serial_path)))

        validate_and_report(cases, cfg, out)
        ok, slow_parallel, slow_serial = load_jsonl(out / "reports.jsonl", ValidationReport)
        assert (ok.compile_ok, ok.differential_verdict) == (True, Verdict.PASS)
        assert not slow_parallel.compile_ok
        assert slow_parallel.failure_category is None
        assert slow_parallel.diagnostics.startswith("compile timed out: ")
        assert slow_serial.compile_ok
        assert slow_serial.differential_verdict is Verdict.SKIPPED


class _DownEmbedder:
    provider_tag = "remote:down"

    def embed(self, text):
        raise ProviderError("embedding endpoint returned 503")


@pytest.mark.parametrize("profile", ["rag", "baseline"])
def test_a_serial_source_that_cannot_be_embedded_is_a_report(mini_env, cc, tmp_path, profile):
    """An empty or symbols-only source is that case's failure, not the run's."""
    blank, symbols = tmp_path / "blank.cc", tmp_path / "symbols.cc"
    blank.write_text("  \n\t\n")
    symbols.write_text("+-*/ {} ;;\n")
    cases = [mini_env.cases[0], CaseSpec("blank", str(blank)), CaseSpec("symbols", str(symbols))]
    cfg = PipelineConfig(profile=profile, compile_cmd=cc.cmd())
    reports, _ = run_pipeline(cases, cfg, _deps(mini_env, profile), tmp_path / "o")
    first, empty, only_symbols = load_jsonl(tmp_path / "o" / "reports.jsonl", ValidationReport)
    assert [r.case_id for r in reports] == ["case1", "blank", "symbols"]
    assert first.differential_verdict is Verdict.PASS
    assert empty.diagnostics == "generation failed: serial source is empty"
    if profile == "rag":
        assert only_symbols.diagnostics == ("generation failed: cannot embed serial source: "
                                            "text contains no embeddable tokens")
    else:  # nothing to embed; its prompt is rendered and has no recorded reply
        assert only_symbols.diagnostics.startswith("generation failed: no recorded reply")


def test_an_embedding_provider_error_is_a_report(mini_env, cc, tmp_path):
    deps = _deps(mini_env, "rag")
    deps.embedder = _DownEmbedder()
    reports, _ = run_pipeline(mini_env.cases[:2], PipelineConfig(compile_cmd=cc.cmd()), deps,
                              tmp_path / "o")
    assert [r.diagnostics for r in reports] == [
        "generation failed: cannot embed serial source: embedding endpoint returned 503"] * 2


def test_a_query_from_another_vector_space_still_aborts(mini_env, tmp_path):
    deps = _deps(mini_env, "rag")
    deps.embedder = HashedTfidfEmbedder(dimension=64).fit(c.body for c in mini_env.manifest.chunks)
    with pytest.raises(InvalidInputError, match="index expects"):
        run_pipeline(mini_env.cases[:1], PipelineConfig(), deps, tmp_path / "o")


def test_a_serial_source_gone_before_validation_skips_the_differential(tmp_path):
    """validate_case treats an unreadable serial source like one that no longer compiles."""
    compiler = tmp_path / "fake_cc.py"
    compiler.write_text(_FAKE_COMPILER)
    cfg = PipelineConfig(compile_cmd=f"{shlex.quote(sys.executable)} "
                                     f"{shlex.quote(str(compiler))} {{src}} {{bin}}")
    out = tmp_path / "o"
    (out / "cases" / "gone").mkdir(parents=True)
    (out / "cases" / "gone" / "generated.cpp").write_text("int main() {}")
    (report,), _ = validate_and_report([CaseSpec("gone", str(tmp_path / "gone.cc"))], cfg, out)
    assert report.compile_ok
    assert report.differential_verdict is Verdict.SKIPPED


@requires_compiler
class TestCli:
    def test_ingest_and_index_commands(self, tmp_path, capsys):
        manifest_path = tmp_path / "m.jsonl"
        rc = cli_main(
            ["ingest", "--root", str(FIXTURES / "docs"), "--out", str(manifest_path)]
        )
        assert rc == 0
        rc = cli_main(
            ["index", "--manifest", str(manifest_path), "--out", str(tmp_path / "i.jsonl")]
        )
        assert rc == 0
        assert (tmp_path / "i.jsonl").is_file()

    def test_staged_equals_end_to_end(self, mini_env, tmp_path):
        """transform + validate through the CLI write run's three outputs, byte for byte."""
        common = [
            "--case-manifest", str(mini_env.case_manifest_path),
            "--corpus-manifest", str(mini_env.corpus_manifest_path),
            "--index", str(mini_env.index_path),
            "--replay-dir", str(mini_env.replay_dirs["rag"]),
        ]
        staged = tmp_path / "staged"
        assert cli_main(["transform", *common, "--out-dir", str(staged)]) == 0
        assert cli_main([
            "validate", "--case-manifest", str(mini_env.case_manifest_path),
            "--out-dir", str(staged),
        ]) == 0
        direct = tmp_path / "direct"
        assert cli_main(["run", *common, "--out-dir", str(direct)]) == 0
        for name in ("reports.jsonl", "summary.json", "summary.txt"):
            assert (staged / name).read_bytes() == (direct / name).read_bytes(), name

    def test_report_command_single_and_comparison(self, capsys):
        rc = cli_main([
            "report",
            "--reports", f"baseline={REFERENCE_OUTCOMES / 'baseline.jsonl'}",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "75.9%" in out
        rc = cli_main([
            "report",
            "--reports", f"baseline={REFERENCE_OUTCOMES / 'baseline.jsonl'}",
            "--reports", f"rag={REFERENCE_OUTCOMES / 'augmented.jsonl'}",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "94.4%" in out and "80.4%" in out

    def test_bench_import_command(self, tmp_path, capsys):
        rc = cli_main([
            "bench",
            "--import-csv", str(Path(omprag.__file__).parent / "data" / "reference_runtimes.csv"),
            "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        import csv

        with (tmp_path / "speedups.csv").open() as fh:
            rows = {(r["case_id"], int(r["threads"])): float(r["speedup"])
                    for r in csv.DictReader(fh)}
        assert rows[("matrix_multiply", 8)] == pytest.approx(7.922, abs=1e-3)
        assert rows[("histogram", 2)] == pytest.approx(0.805, abs=1e-3)
        assert (tmp_path / "speedup_series.csv").is_file()
        assert (tmp_path / "runtime_table.txt").is_file()

    def test_bench_writes_to_the_configured_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OMPRAG_OUT_DIR", str(tmp_path / "configured"))
        monkeypatch.chdir(tmp_path)
        rc = cli_main([
            "bench",
            "--import-csv", str(Path(omprag.__file__).parent / "data" / "reference_runtimes.csv"),
        ])
        assert rc == 0
        assert (tmp_path / "configured" / "records.csv").is_file()
        assert not (tmp_path / "out").exists()

    def test_usage_error_exit_code(self, mini_env, tmp_path, capsys):
        rc = cli_main([
            "run",
            "--case-manifest", str(mini_env.case_manifest_path),
            "--out-dir", str(tmp_path / "x"),
        ])  # rag profile without corpus/index
        assert rc == 2

    def test_per_case_failures_keep_exit_zero(self, mini_env, tmp_path):
        """A case with no replay record is data, not a process failure."""
        from omprag.validation import save_jsonl

        cases = mini_env.cases + [
            CaseSpec("case_unrecorded", str(FIXTURES / "cases" / "case1.cc"))
        ]
        manifest = tmp_path / "cases.jsonl"
        save_jsonl(cases, manifest)
        rc = cli_main([
            "run",
            "--case-manifest", str(manifest),
            "--corpus-manifest", str(mini_env.corpus_manifest_path),
            "--index", str(mini_env.index_path),
            "--replay-dir", str(mini_env.replay_dirs["rag"]),
            "--out-dir", str(tmp_path / "o"),
        ])
        assert rc == 0
        reports = load_jsonl(tmp_path / "o" / "reports.jsonl", ValidationReport)
        assert any(not r.compile_ok for r in reports)

    def test_a_missing_serial_source_is_a_report_not_an_abort(self, mini_env, tmp_path):
        missing = tmp_path / "gone.cc"
        manifest = tmp_path / "cases.jsonl"
        save_jsonl([mini_env.cases[0], CaseSpec("gone", str(missing))], manifest)
        rc = cli_main([
            "run",
            "--case-manifest", str(manifest),
            "--corpus-manifest", str(mini_env.corpus_manifest_path),
            "--index", str(mini_env.index_path),
            "--replay-dir", str(mini_env.replay_dirs["rag"]),
            "--out-dir", str(tmp_path / "o"),
        ])
        assert rc == 0
        first, gone = load_jsonl(tmp_path / "o" / "reports.jsonl", ValidationReport)
        assert first.differential_verdict is Verdict.PASS
        assert not gone.compile_ok
        assert gone.diagnostics.startswith("generation failed: cannot read serial source: ")
        assert str(missing) in gone.diagnostics

    def test_config_file_and_flag_precedence(self, mini_env, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(
            "[omprag]\n"
            "profile = baseline\n"
            "k = 2\n"
            f"replay_dir = {mini_env.replay_dirs['baseline']}\n"
        )
        cfg = load_config(config)
        assert cfg.profile == "baseline"
        assert cfg.k == 2
        cfg = load_config(config, overrides={"profile": "rag"})
        assert cfg.profile == "rag"

    def test_bench_repetitions_flag_reaches_config(self):
        args = build_parser().parse_args(
            ["bench", "--case-manifest", "x", "--repetitions", "7", "--threads-sweep", "1,2"]
        )
        cfg = _config_from_args(args)
        assert cfg.repetitions == 7
        assert cfg.thread_sweep == (1, 2)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"workers": 0},
            {"differential_threads": ()},
            {"differential_threads": (1, 0)},
            {"compile_timeout": 0},
            {"run_timeout": -1.0},
            {"repetitions": 0},
            {"workers": "two"},
            {"compile_cmd": "g++ -O2 {src}"},
            {"compile_cmd": "g++ -DX={x} {src} -o {bin}"},
            {"compile_cmd": ""},
            {"compile_cmd": "   "},
            {"compile_cmd": "g++ {0} {src} -o {bin}"},
            {"compile_cmd": "g++ {src.stem} -o {bin}"},
            {"compile_cmd": "g++ {src} -o {bin"},
            {"compile_cmd": "g++ '{src} -o {bin}"},
        ],
    )
    def test_meaningless_settings_refused(self, overrides):
        with pytest.raises(InvalidInputError):
            load_config(overrides=overrides, env={})

    def test_unparseable_values_name_their_key(self, tmp_path):
        with pytest.raises(InvalidInputError, match="workers"):
            load_config(env={"OMPRAG_WORKERS": "two"})
        config = tmp_path / "run.ini"
        config.write_text("[omprag]\nrun_timeout = soon\n")
        with pytest.raises(InvalidInputError, match="run_timeout"):
            load_config(config, env={})

    def test_api_keys_come_from_the_environment(self):
        cfg = load_config(env={"OMPRAG_CHAT_API_KEY": "k", "OMPRAG_EMBED_API_KEY": "e"})
        assert (cfg.chat_api_key, cfg.embed_api_key) == ("k", "e")

    def test_workers_default_to_the_cores_this_process_may_use(self):
        assert PipelineConfig().workers == len(os.sched_getaffinity(0))
        assert load_config(env={}).workers == len(os.sched_getaffinity(0))
        assert load_config(env={"OMPRAG_WORKERS": "3"}).workers == 3

    def test_env_beats_file_flags_beat_env(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text("[omprag]\nk = 2\n")
        env = {"OMPRAG_K": "6"}
        assert load_config(config, env=env).k == 6
        assert load_config(config, overrides={"k": 9}, env=env).k == 9


def test_importing_omprag_does_not_load_requests():
    """Only an HTTP client pays for importing requests."""
    child = (
        "import importlib, pkgutil, sys\n"
        "import omprag\n"
        "for module in pkgutil.iter_modules(omprag.__path__):\n"
        "    importlib.import_module('omprag.' + module.name)\n"
        "assert len(sys.modules) > 20 and 'omprag.cli' in sys.modules\n"
        "print('requests' in sys.modules)\n"
    )
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [
               str(Path(omprag.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
