from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from omprag.cli import main as cli_main
from omprag.config import PipelineConfig
from omprag.errors import InvalidInputError, ParseError, ProviderError, ReplayMissError
from omprag.harvest import (
    CANONICAL_MARK,
    CATEGORIES,
    FixtureQaApi,
    HttpQaApi,
    RejectionReason,
    SnippetCandidate,
    build_case_manifest,
    clean_and_filter,
    compile_filter,
    extract_code_blocks,
    fetch_candidates,
    harvest_cases,
)
from omprag.validation import load_case_manifest, save_jsonl

from conftest import FIXTURES, requires_compiler

HARVEST_FIXTURES = FIXTURES / "harvest"


def _candidate(code: str) -> SnippetCandidate:
    return SnippetCandidate(origin_url="https://example.com/q/1", category="histogram",
                            raw_code=code)


class TestFetch:
    def test_fixture_page_with_three_answers_two_code_blocks(self):
        api = FixtureQaApi(HARVEST_FIXTURES)
        candidates = fetch_candidates("histogram", max_pages=1, api=api)
        assert len(candidates) == 2
        assert all(c.category == "histogram" for c in candidates)
        assert candidates[0].origin_url == "https://example.com/q/101#answer-1"
        assert "#include <vector>" in candidates[0].raw_code
        assert "#include <cstdio>" in candidates[1].raw_code  # html-unescaped

    def test_pagination_follows_has_more(self):
        api = FixtureQaApi(HARVEST_FIXTURES)
        one = fetch_candidates("dot product", max_pages=1, api=api)
        both = fetch_candidates("dot product", max_pages=2, api=api)
        assert len(one) == 1
        assert len(both) == 2

    def test_fixture_replay_is_deterministic(self):
        api = FixtureQaApi(HARVEST_FIXTURES)
        a = fetch_candidates("histogram", max_pages=1, api=api)
        b = fetch_candidates("histogram", max_pages=1, api=api)
        assert [c.raw_code for c in a] == [c.raw_code for c in b]

    def test_zero_pages_rejected(self):
        with pytest.raises(InvalidInputError):
            fetch_candidates("histogram", max_pages=0, api=FixtureQaApi(HARVEST_FIXTURES))

    def test_fixture_miss(self):
        api = FixtureQaApi(HARVEST_FIXTURES)
        with pytest.raises(ReplayMissError):
            fetch_candidates("quicksort", max_pages=1, api=api)

    @pytest.mark.parametrize("page", [[], {"items": 5}, "items", None])
    def test_a_page_of_the_wrong_shape_is_a_parse_error(self, tmp_path, page):
        (tmp_path / "histogram_p2.json").write_text(json.dumps(page))
        (tmp_path / "histogram_p1.json").write_text(json.dumps({"items": [], "has_more": True}))
        with pytest.raises(ParseError, match="category 'histogram' page 2"):
            fetch_candidates("histogram", max_pages=2, api=FixtureQaApi(tmp_path))

    def test_items_of_the_wrong_shape_are_skipped(self, tmp_path, caplog):
        good = {"link": "https://example.com/q/7", "body": "```\nint x = 1;\n```"}
        items = [{"body": 5}, good, 7, {"body_markdown": ["x"]}, {"link": None, "body": ""}]
        (tmp_path / "histogram_p1.json").write_text(json.dumps({"items": items}))
        candidates = fetch_candidates("histogram", max_pages=1, api=FixtureQaApi(tmp_path))
        assert [(c.origin_url, c.raw_code) for c in candidates] == [
            ("https://example.com/q/7", "int x = 1;")]
        skipped = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert [m.split(", which")[0] for m in skipped] == [
            f"category 'histogram' page 1: skipping item {n}" for n in (1, 3, 4, 5)]

    def test_live_quota_exhaustion_advises_backoff(self, scripted_server):
        server = scripted_server([(429, {"error": "quota"})] * 3)
        api = HttpQaApi(server.url)
        api.client.backoff_base = 0.01
        with pytest.raises(ProviderError) as exc_info:
            api.fetch_page("histogram", 1)
        assert len(server.requests_seen) == 3
        assert exc_info.value.status == 429
        assert "429 on each of 3 attempts" in str(exc_info.value)

    def test_live_request_retries_a_503_then_returns_the_page(self, scripted_server):
        page = {"items": [], "has_more": False}
        server = scripted_server([(503, {"error": "busy"}), (200, page)])
        api = HttpQaApi(server.url, api_key="qa-key")
        api.client.backoff_base = 0.01
        assert api.fetch_page("histogram", 2) == page
        assert len(server.requests_seen) == 2
        sent = server.requests_seen[1]
        assert "key=qa-key" in sent["path"] and "page=2" in sent["path"]
        assert "Authorization" not in sent["headers"]

    def test_live_request_carries_keyword_query(self, scripted_server):
        server = scripted_server([(200, {"items": [], "has_more": False})])
        api = HttpQaApi(server.url, keywords={"histogram": "c++ histogram counting"})
        api.fetch_page("histogram", 1)
        assert "c%2B%2B+histogram+counting" in server.requests_seen[0]["path"]

    def test_ten_categories(self):
        assert len(CATEGORIES) == 10
        assert "matrix multiplication" in CATEGORIES


class TestExtractCodeBlocks:
    def test_markdown_and_html_blocks(self):
        body = "text\n```cpp\nint a;\n```\nmore <pre><code>int b &amp;= 1;\n</code></pre>"
        assert extract_code_blocks(body) == ["int a;", "int b &= 1;"]

    def test_no_blocks(self):
        assert extract_code_blocks("nothing to see") == []


class TestCleanAndFilter:
    def test_missing_include_rejected(self):
        code = "\n".join(["int main() {"] + [f"    int x{i} = {i};" for i in range(9)]
                         + ["    for (int i = 0; i < 3; ++i) {}", "    return 0;", "}"])
        out = clean_and_filter(_candidate(code))
        assert out.rejection_reason is RejectionReason.NO_INCLUDE
        assert out.cleaned_code is None

    def test_while_only_loop_rejected(self):
        code = (FIXTURES / "snippets" / "noforloop_1.cc").read_text()
        out = clean_and_filter(_candidate(code))
        assert out.rejection_reason is RejectionReason.NO_FOR_LOOP

    def test_short_snippet_rejected(self):
        code = (FIXTURES / "snippets" / "tooshort_1.cc").read_text()
        out = clean_and_filter(_candidate(code))
        assert out.rejection_reason is RejectionReason.TOO_SHORT

    def test_comments_only_snippet_is_empty(self):
        code = (FIXTURES / "snippets" / "empty_1.cc").read_text()
        out = clean_and_filter(_candidate(code))
        assert out.rejection_reason is RejectionReason.EMPTY

    def test_first_failed_filter_names_rejection(self):
        # lacks an include AND has no for-loop: include filter runs first
        code = "int main() {\n    while (true) { break; }\n    return 0;\n}\n"
        out = clean_and_filter(_candidate(code))
        assert out.rejection_reason is RejectionReason.NO_INCLUDE

    def test_io_statements_removed_and_declarations_kept(self):
        code = (
            "#include <iostream>\n"
            "int main() {\n"
            "    int n; std::cin >> n;\n"
            "    int total = 0;\n"
            "    for (int i = 0; i < n; ++i) {\n"
            "        total += i;\n"
            "    }\n"
            "    int doubled = total * 2;\n"
            "    int halved = total / 2;\n"
            "    int spread = doubled - halved;\n"
            "    std::cout << spread << std::endl;\n"
            "    return 0;\n"
            "}\n"
        )
        out = clean_and_filter(_candidate(code))
        assert out.rejection_reason is None
        assert "std::cin" not in out.cleaned_code
        assert "int n;" in out.cleaned_code  # declaration preserved: n is referenced
        assert "<< spread << std::endl" not in out.cleaned_code

    def test_unreferenced_declaration_dropped(self):
        code = (
            "#include <cstdio>\n"
            "int main() {\n"
            "    int unused_input; scanf(\"%d\", &unused_input);\n"
            "    int total = 0;\n"
            "    for (int i = 0; i < 10; ++i) {\n"
            "        total += i;\n"
            "    }\n"
            "    int doubled = total + total;\n"
            "    int tripled = doubled + total;\n"
            "    int final_value = tripled - doubled;\n"
            "    return final_value;\n"
            "}\n"
        )
        out = clean_and_filter(_candidate(code))
        assert out.rejection_reason is None
        assert "unused_input" not in out.cleaned_code

    def test_comment_lines_removed_trailing_comments_kept(self):
        code = (
            "#include <cstdio>\n"
            "// whole-line comment goes away\n"
            "/* block comment\n   also goes away */\n"
            "int main() {\n"
            "    int total = 0;  // trailing comment stays\n"
            "    for (int i = 0; i < 10; ++i) {\n"
            "        total += i;\n"
            "    }\n"
            "    int a = total + 1;\n"
            "    int b = total + 2;\n"
            "    int c = a + b;\n"
            "    return c;\n"
            "}\n"
        )
        out = clean_and_filter(_candidate(code))
        assert out.rejection_reason is None
        assert "whole-line" not in out.cleaned_code
        assert "block comment" not in out.cleaned_code
        assert "// trailing comment stays" in out.cleaned_code

    def test_harness_reintroduces_canonical_print(self):
        code = (FIXTURES / "snippets" / "accept_2.cc").read_text()
        out = clean_and_filter(_candidate(code))
        assert out.rejection_reason is None
        assert 'std::cout << "RESULT largest="' in out.cleaned_code
        assert CANONICAL_MARK in out.cleaned_code
        assert "#include <iostream>" in out.cleaned_code

    def test_idempotent_on_survivors(self):
        for name in ("accept_1.cc", "accept_2.cc"):
            code = (FIXTURES / "snippets" / name).read_text()
            once = clean_and_filter(_candidate(code))
            assert once.rejection_reason is None
            twice = clean_and_filter(_candidate(once.cleaned_code))
            assert twice.rejection_reason is None
            assert twice.cleaned_code == once.cleaned_code

    def test_empty_raw_code_is_precondition_violation(self):
        with pytest.raises(InvalidInputError):
            clean_and_filter(_candidate("   "))

    def test_candidate_invariant(self):
        both = SnippetCandidate("u", "c", "raw", cleaned_code="x",
                                rejection_reason=RejectionReason.EMPTY)
        with pytest.raises(InvalidInputError):
            both.validate()


@requires_compiler
class TestCompileFilterAndManifest:
    def test_survivor_retained_and_case_files_written(self, tmp_path):
        code = (FIXTURES / "snippets" / "accept_1.cc").read_text()
        cleaned = clean_and_filter(_candidate(code))
        survivor = compile_filter(cleaned, tmp_path / "gate")
        assert survivor.rejection_reason is None
        specs = build_case_manifest([survivor], tmp_path / "cases")
        assert [s.case_id for s in specs] == ["case1"]
        assert Path(specs[0].serial_path).is_file()
        manifest_path = tmp_path / "cases.jsonl"
        save_jsonl(specs, manifest_path)
        assert load_case_manifest(manifest_path) == specs

    def test_undeclared_identifier_rejected(self, tmp_path):
        code = (FIXTURES / "snippets" / "compilefail_1.cc").read_text()
        cleaned = clean_and_filter(_candidate(code))
        assert cleaned.rejection_reason is None
        rejected = compile_filter(cleaned, tmp_path / "gate")
        assert rejected.rejection_reason is RejectionReason.COMPILE_FAIL
        assert rejected.cleaned_code is None

    def test_sequential_ids_respect_start_index(self, tmp_path):
        code = (FIXTURES / "snippets" / "accept_1.cc").read_text()
        survivors = [clean_and_filter(_candidate(code)) for _ in range(3)]
        specs = build_case_manifest(survivors, tmp_path / "cases", start_index=15)
        assert [s.case_id for s in specs] == ["case15", "case16", "case17"]

    def test_fixture_pages_harvest_into_working_cases(self, tmp_path):
        import subprocess

        api = FixtureQaApi(HARVEST_FIXTURES)
        _, specs = harvest_cases(["histogram"], api, tmp_path / "cases", PipelineConfig(),
                                 max_pages=1)
        assert [s.case_id for s in specs] == ["case1", "case2"]
        for spec in specs:
            built = subprocess.run(
                ["g++", "-std=c++17", spec.serial_path, "-o", str(tmp_path / "bin")],
                capture_output=True, text=True,
            )
            assert built.returncode == 0, built.stderr
            run = subprocess.run([str(tmp_path / "bin")], capture_output=True, text=True)
            assert run.returncode == 0
            assert "RESULT" in run.stdout

    def test_harnessed_survivor_compiles_and_prints(self, tmp_path):
        import subprocess

        code = (FIXTURES / "snippets" / "accept_2.cc").read_text()
        cleaned = clean_and_filter(_candidate(code))
        survivor = compile_filter(cleaned, tmp_path / "gate")
        assert survivor.rejection_reason is None
        binary = tmp_path / "gate" / "case.bin"
        out = subprocess.run([str(binary)], capture_output=True, text=True, timeout=30)
        assert out.returncode == 0
        assert out.stdout.strip() == "RESULT largest=961"

    def test_harness_prints_doubles_exactly(self, tmp_path):
        import subprocess

        code = "\n".join([
            "#include <cstdio>",
            "int main() {",
            "    const int n = 10;",
            "    double step = 0.1;",
            "    double s = 0.0;",
            "    for (int i = 0; i < n; ++i) {",
            "        s += step;",
            "    }",
            "    if (s < 0.0) {",
            "        return 1;",
            "    }",
            '    printf("%f\\n", s);',
            "    return 0;",
            "}",
        ])
        survivor = compile_filter(clean_and_filter(_candidate(code)), tmp_path / "gate")
        assert survivor.rejection_reason is None
        out = subprocess.run([str(tmp_path / "gate" / "case.bin")],
                             capture_output=True, text=True, timeout=30)
        expected = 0.0
        for _ in range(10):
            expected += 0.1
        # 0.9999999999999999: six significant digits would print it as 1
        assert out.stdout.startswith("RESULT s=")
        assert float(out.stdout.strip().removeprefix("RESULT s=")) == expected


# Stands in for a compiler: logs each compile, sleeps on a source that
# mentions SLOW, and otherwise writes an empty output file.
_LOGGING_CC = """#!{python}
import sys, time
if sys.argv[1:] == ["--version"]:
    print("logging stand-in 1.0")
    sys.exit(0)
with open({log!r}, "a") as fh:
    fh.write(" ".join(sys.argv[1:]) + "\\n")
if "SLOW" in open(sys.argv[-3]).read():
    time.sleep(60)
open(sys.argv[-1], "w").close()
"""


def _logging_cc(tmp_path: Path) -> tuple[str, Path]:
    """(compile_cmd naming the stand-in, its log file)."""
    path = tmp_path / "logging_cc"
    log = tmp_path / "logging_cc.log"
    path.write_text(_LOGGING_CC.format(python=sys.executable, log=str(log)))
    path.chmod(0o755)
    return f"{path} -fopenmp -std=c++17 -O2 {{src}} -o {{bin}}", log


def test_compile_timeout_rejects_the_candidate_and_the_harvest_goes_on(tmp_path):
    compile_cmd, _ = _logging_cc(tmp_path)
    code = (FIXTURES / "snippets" / "accept_1.cc").read_text()
    slow = code.replace("double total = 0.0;", "double total = 0.0; // SLOW")
    pages = tmp_path / "pages"
    pages.mkdir()
    items = [{"link": f"https://example.com/q/{i}", "body_markdown": f"```cpp\n{c}```\n"}
             for i, c in enumerate([code, slow, code])]
    (pages / "histogram_p1.json").write_text(json.dumps({"items": items}))
    cfg = PipelineConfig(compile_cmd=compile_cmd, compile_timeout=2.0)

    candidates, specs = harvest_cases(["histogram"], FixtureQaApi(pages), tmp_path / "cases",
                                      cfg, max_pages=1)
    assert [c.rejection_reason for c in candidates] == [
        None, RejectionReason.COMPILE_FAIL, None]
    assert [s.case_id for s in specs] == ["case1", "case2"]
    assert [Path(s.serial_path).read_text() for s in specs] == [
        candidates[0].cleaned_code + "\n"] * 2


# SHA-256 of what `omprag harvest` wrote for these fixture pages before the
# harvest loop moved into harvest_cases.
_FIXTURE_HARVEST_SHA256 = {
    "cases.jsonl": "4ff688ebfd480263bd8530c54f3c8bfd3a50c0fcf49a5597befd97b49a03a09a",
    "cases/case1.cc": "8309d047011b72f52df1af7b0062f31f978852191585d1a8215c3d60f4629c6e",
    "cases/case2.cc": "9419f863f2bd34a2cd59ef2e541c8a2057deae171402b6f2c0e33105eefb896f",
}
_HARVEST_ARGV = [
    "harvest", "--fixture-dir", str(HARVEST_FIXTURES),
    "--categories", "histogram", "dot product", "--max-pages", "2",
    "--cases-dir", "cases", "--case-manifest", "cases.jsonl",
]


@requires_compiler
def test_cli_harvest_writes_the_same_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli_main(_HARVEST_ARGV) == 0
    assert capsys.readouterr().out == (
        "harvested 2 cases (2 rejected) -> cases, manifest cases.jsonl\n")
    written = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in _FIXTURE_HARVEST_SHA256}
    assert written == _FIXTURE_HARVEST_SHA256


@pytest.mark.parametrize("source", ["env", "config"])
def test_cli_harvest_gates_with_the_configured_compiler(tmp_path, monkeypatch, source):
    compile_cmd, log = _logging_cc(tmp_path)
    argv = list(_HARVEST_ARGV)
    if source == "env":
        monkeypatch.setenv("OMPRAG_COMPILE_CMD", compile_cmd)
    else:
        (tmp_path / "run.ini").write_text(f"[omprag]\ncompile_cmd = {compile_cmd}\n")
        argv += ["--config", str(tmp_path / "run.ini")]
    monkeypatch.chdir(tmp_path)
    assert cli_main(argv) == 0
    # one serial compile (no -fopenmp) per survivor of the cleaning filters
    assert log.read_text().splitlines() == ["-std=c++17 -O2 case.cpp -o case.bin"] * 2
    assert len(load_case_manifest(tmp_path / "cases.jsonl")) == 2
