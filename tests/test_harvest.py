from __future__ import annotations

import hashlib
import itertools
import json
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    _clean_snippet,
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

    def test_a_page_that_is_not_json_is_a_parse_error_naming_the_file(self, tmp_path, capsys):
        page = tmp_path / "pages" / "histogram_p1.json"
        page.parent.mkdir()
        page.write_text('{"items": [')
        assert cli_main(["harvest", "--fixture-dir", str(page.parent), "--categories",
                         "histogram", "--cases-dir", str(tmp_path / "cases"),
                         "--case-manifest", str(tmp_path / "cases.jsonl")]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {page}: recorded page is not UTF-8 JSON: ")

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

    @pytest.mark.parametrize("content", [
        None, b'{"histogram": ', b'{"histogram": "\xff"}', b'["histogram"]',
        b'{"histogram": ["c++", "histogram"]}',
    ], ids=["missing", "not-json", "not-utf8", "a-list", "a-list-value"])
    def test_a_bad_keywords_file_is_a_parse_error_naming_it(self, tmp_path, capsys,
                                                            scripted_server, content):
        server = scripted_server([(200, {"items": [], "has_more": False})])
        keywords = tmp_path / "keywords.json"
        if content is not None:
            keywords.write_bytes(content)
        assert cli_main(["harvest", "--endpoint", server.url, "--keywords", str(keywords),
                         "--categories", "histogram", "--cases-dir", str(tmp_path / "cases"),
                         "--case-manifest", str(tmp_path / "cases.jsonl")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {keywords}: ")
        assert server.requests_seen == []

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

    def test_a_declaration_list_stays_while_one_of_its_names_is_used(self):
        code = "\n".join([
            "#include <cstdio>", "int main() {", '    int a, b; scanf("%d %d", &a, &b);',
            "    a = 3;", "    int total = 0;", "    for (int i = 0; i < 10; ++i) {",
            "        total += a * i;", "    }", "    int twice = total * 2;",
            "    return twice > 0 ? 0 : 1;", "}",
        ])
        out = clean_and_filter(_candidate(code))
        assert out.rejection_reason is None
        assert "    int a, b;\n    a = 3;" in out.cleaned_code

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

    @pytest.mark.parametrize("split_print", [
        ['    std::cout << "sum = "', "              << s << std::endl;"],
        ['    printf("%lld\\n",', "           s);"],
    ])
    def test_a_print_split_over_two_lines_keeps_its_value(self, split_print):
        code = "\n".join([
            "#include <cstdio>",
            "#include <iostream>",
            "int main() {",
            "    long long s = 0;",
            "    for (int i = 0; i < 100; ++i) {",
            "        s += i;",
            "    }",
            *split_print,
            "    if (s < 0) {",
            "        return 1;",
            "    }",
            "    return 0;",
            "}",
        ])
        out = clean_and_filter(_candidate(code))
        assert out.rejection_reason is None
        assert "<< s <<" not in out.cleaned_code and "s);" not in out.cleaned_code
        assert 'std::cout << "RESULT s=" << (s) << "\\n";' in out.cleaned_code

    @pytest.mark.parametrize("line, cleaned, printed", [
        ("    std::cout << n; for (int i = 0; i < n; ++i) {",
         "    for (int i = 0; i < n; ++i) {", ["n"]),
        ('    for (int i = 0; i < n; ++i) { sum += a[i]; printf("%d", i); }',
         "    for (int i = 0; i < n; ++i) { sum += a[i]; }", ["i"]),
        ("    for (int i = 0; i < n; ++i) std::cout << a[i] << std::endl;", "", ["a[i]"]),
        ('    printf("a;b %d\\n", x); y = 2;', "    y = 2;", ["x"]),
        ("    if (v) { std::cout << v; }", "    if (v) { }", ["v"]),
        ("    for (int i = 0; i < n; ++i) { std::cout << a[i]; }",
         "    for (int i = 0; i < n; ++i) { }", ["a[i]"]),
        ('    if (a) { x = 1; } printf("%d", x);', "    if (a) { x = 1; }", ["x"]),
        ('    } else { printf("%d", k); }', "    } else { }", ["k"]),
    ])
    def test_only_io_statements_leave_a_line(self, line, cleaned, printed):
        """A ';' in a for header or a string ends no statement, and an I/O
        statement goes whole, with the blanks that part it from its line."""
        code, got_printed, _ = _clean_snippet(line)
        assert (code, got_printed) == (cleaned, printed)

    def test_printed_expressions_keep_braced_initialisers_whole(self):
        _, printed, _ = _clean_snippet('    printf("%d %d", T{1, 2}.x, f(a, b));')
        assert printed == ["T{1, 2}.x", "f(a, b)"]

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


def _survivor_output(code: str, tmp_path: Path) -> list[str]:
    """The lines the compiled survivor of a snippet prints."""
    import subprocess

    survivor = compile_filter(clean_and_filter(_candidate(code)), tmp_path / "gate")
    assert survivor.rejection_reason is None
    run = subprocess.run([str(tmp_path / "gate" / "case.bin")], capture_output=True,
                         text=True, timeout=30, stdin=subprocess.DEVNULL)
    assert run.returncode == 0
    return run.stdout.splitlines()


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

    @pytest.mark.parametrize("loop_print, printed", [
        (["    for (int i = 0; i < n; ++i) {", "        std::cout << a[i] << std::endl;", "    }"],
         [f"RESULT a_i={i * i}" for i in range(8)]),
        (["    for (int i = 0; i < n; ++i) { std::cout << a[i]; }"],
         [f"RESULT a_i={i * i}" for i in range(8)]),
        (["    for (int i = 0; i < n; ++i) std::cout << a[i] << std::endl;"],
         [f"RESULT a_i={i * i}" for i in range(8)]),
        (["    if (s > 0) { std::cout << s; }"], ["RESULT s=140"]),
    ])
    def test_a_print_in_a_loop_or_block_leaves_a_snippet_that_compiles(self, tmp_path,
                                                                     loop_print, printed):
        """A print's braces stay balanced, and a value indexed by a loop
        variable is reprinted inside a copy of the loop's header."""
        code = "\n".join([
            "#include <iostream>",
            "#include <vector>",
            "int main() {",
            "    const int n = 8;",
            "    std::vector<long> a(n);",
            "    long s = 0;",
            "    for (int i = 0; i < n; ++i) {",
            "        a[i] = i * i;",
            "        s += a[i];",
            "    }",
            *loop_print,
            "    return 0;",
            "}",
        ])
        assert _survivor_output(code, tmp_path) == printed

    @pytest.mark.parametrize("code, printed", [
        # a comment that names a print is whitespace, not a print
        (["#include <cstdio>", "#include <vector>", "int main() {", "    const int n = 100;",
          "    std::vector<long long> a(n);", "    for (int i = 0; i < n; ++i) {",
          "        a[i] = i;", "    }", "    long long sum = 0;",
          "    for (int i = 0; i < n; ++i) {", "        // accumulate, then printf the total",
          "        sum += a[i];", "    }", '    printf("%lld\\n", sum);', "    return 0;", "}"],
         ["RESULT sum=4950"]),
        # a helper's parameter is not reprinted in main; main's own value is
        (["#include <iostream>", "void show(long long v) { std::cout << v << std::endl; }",
          "int main() {", "    long long total = 0;", "    for (int i = 0; i < 10; ++i) {",
          "        total += i;", "    }", "    long long twice = 2 * total;",
          "    long long thrice = 3 * total;", "    show(twice + thrice);",
          "    std::cout << total << std::endl;", "    return 0;", "}"],
         ["RESULT total=45"]),
        # an input loop goes whole, with the declarations only it used
        (["#include <iostream>", "#include <vector>", "int main() {",
          "    std::vector<long> values;", "    long x;", "    while (std::cin >> x) {",
          "        values.push_back(x);", "    }", "    long s = 0;",
          "    for (int i = 0; i < 10; ++i) {", "        s += i * i;", "    }",
          "    long t = s + 1;", "    std::cout << s << std::endl;", "    return t > 0 ? 0 : 1;",
          "}"],
         ["RESULT s=285"]),
        # the harness goes before main's return, not a helper's after it
        (["#include <cstdio>", "int twice(int v);", "int main() {", "    int total = 0;",
          "    for (int i = 0; i < 10; ++i) {", "        total += i;", "    }",
          "    int spread = total - 5;", "    int scaled = spread * 3;",
          '    printf("%d %d\\n", twice(total), scaled);', "    return 0;", "}",
          "int twice(int v) {", "    return 2 * v;", "}"],
         ["RESULT twice_total=90", "RESULT scaled=120"]),
        # an early `if (...) return 1;` is no anchor when main has no final return
        (["#include <iostream>", "int main() {", "    int n = 10;", "    long sum = 0;",
          "    if (n <= 0) return 1;", "    for (int i = 0; i < n; ++i) {", "        sum += i;",
          "    }", "    long sq = sum * sum;", "    long half = sq / 2;",
          "    std::cout << sum << \" \" << sq << std::endl;", "}"],
         ["RESULT sum=45", "RESULT sq=2025"]),
        # a loop copy needs its header's initialiser in scope, not only its variable
        (["#include <iostream>", "#include <vector>", "int main() {", "    std::vector<long> a(12);",
          "    long s = 0;", "    for (int i = 0; i < 12; ++i) {", "        a[i] = i * i;",
          "        s += a[i];", "    }", "    for (int r = 0; r < 3; ++r) {",
          "        int base = r * 4;",
          "        for (int k = base; k < base + 2; ++k) std::cout << a[k] << std::endl;",
          "    }", "    std::cout << s << std::endl;", "    return 0;", "}"],
         ["RESULT s=506"]),
    ], ids=["comment-names-a-print", "helper-prints", "input-loop", "helper-after-main",
            "early-return-guard", "loop-bound-from-body"])
    def test_a_snippet_keeps_the_values_it_printed(self, tmp_path, code, printed):
        assert _survivor_output("\n".join(code), tmp_path) == printed

    @pytest.mark.parametrize("code", [
        # a helper's parameter is out of scope in main
        ["#include <iostream>", "void show(long long v) { std::cout << v << std::endl; }",
         "int main() {", "    long long total = 0;", "    for (int i = 0; i < 10; ++i) {",
         "        total += i;", "    }", "    long long twice = 2 * total;",
         "    long long thrice = 3 * total;", "    show(twice + thrice);", "    return 0;", "}"],
        # with its input gone, a value input gave would print a constant
        ["#include <iostream>", "int main() {", "    long x = 0;", "    long sum = 0;",
         "    while (std::cin >> x) {", "        sum += x;", "    }", "    long a[8];",
         "    for (int i = 0; i < 8; ++i) {", "        a[i] = i;", "    }",
         "    std::cout << sum << std::endl;", "    return 0;", "}"],
        ["#include <cstdio>", "int main() {", "    long sum = 0;", '    scanf("%ld", &sum);',
         "    long a[8];", "    for (int i = 0; i < 8; ++i) {", "        a[i] = i;", "    }",
         "    long last = a[7];", "    long first = a[0];", '    printf("%ld\\n", sum);',
         "    return 0;", "}"],
    ], ids=["helper-prints", "input-loop", "scanf"])
    def test_a_snippet_with_no_value_left_to_reprint_is_no_output(self, code):
        out = clean_and_filter(_candidate("\n".join(code)))
        assert out.rejection_reason is RejectionReason.NO_OUTPUT
        assert out.cleaned_code is None

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


_PRINTS = (
    "std::cout << {} << std::endl;",
    'printf("%lld\\n", {});',
    "std::cout << \"value \" << {} << '\\n';",
)
_SPOTS = ("init loop", "reduce loop", "branch", "main", "helper")


@st.composite
def _printing_kernels(draw):
    """(code, spots, values): a kernel whose prints sit at the drawn spots,
    and every value it prints. The helper prints what main passes it."""
    n, p, q = draw(st.integers(2, 6)), draw(st.integers(1, 9)), draw(st.integers(0, 9))
    spots = draw(st.sets(st.sampled_from(_SPOTS), min_size=1))

    def note(indent: str) -> list[str]:
        return [indent + "// then printf the result"] if draw(st.booleans()) else []

    def put(spot: str, expr: str, indent: str) -> list[str]:
        if spot not in spots:
            return note(indent)
        return note(indent) + [indent + draw(st.sampled_from(_PRINTS)).format(expr)]

    helper = ["void report(long long v) {", *put("helper", "v", "    "), "}"]
    before = draw(st.booleans())
    code = [
        "#include <cstdio>", "#include <iostream>", "#include <vector>",
        *(helper if before else ["void report(long long v);"]),
        "int main() {",
        f"    const int n = {n};",
        "    std::vector<long long> a(n);",
        "    for (int i = 0; i < n; ++i) {",
        f"        a[i] = {p}LL * i + {q};",
        *put("init loop", "a[i]", "        "),
        "    }",
        "    long long total = 0;",
        "    for (int i = 0; i < n; ++i) {",
        *note("        "),
        "        total += a[i];",
        *put("reduce loop", "total", "        "),
        "    }",
        "    if (total > 0) {",
        *put("branch", "total", "        "),
        "    }",
        *put("main", "total", "    "),
        "    report(total);",
        "    return 0;",
        "}",
        *([] if before else helper),
    ]
    terms = [p * i + q for i in range(n)]
    return "\n".join(code), spots, set(terms) | set(itertools.accumulate(terms))


@requires_compiler
@settings(max_examples=30, deadline=None, derandomize=True)
@given(_printing_kernels())
def test_every_survivor_reprints_values_main_printed(kernel):
    """A value main printed, in a loop, a branch or its own body, comes back
    as a RESULT line; one only a helper printed leaves the case NoOutput.
    At most one compile per example."""
    code, spots, values = kernel
    if spots == {"helper"}:
        assert clean_and_filter(_candidate(code)).rejection_reason is RejectionReason.NO_OUTPUT
        return
    with tempfile.TemporaryDirectory() as tmp:
        lines = _survivor_output(code, Path(tmp))
    assert lines
    for line in lines:
        label, _, value = line.partition("=")
        assert label.startswith("RESULT ") and int(value) in values


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


def _cleaning_digest(rows) -> str:
    """SHA-256 over json.dumps([key, reason or "ok", cleaned_code]) of each row."""
    digest = hashlib.sha256()
    for key, code in rows:
        out = clean_and_filter(SnippetCandidate(origin_url=key, category="", raw_code=code))
        reason = out.rejection_reason.value if out.rejection_reason else "ok"
        digest.update(json.dumps([key, reason, out.cleaned_code]).encode())
    return digest.hexdigest()


def test_cleaning_keeps_the_bytes_of_the_benchmark_candidates_and_fixture_snippets():
    """The cleaned text of the 330 benchmark harvest candidates (seeds 1-5 x
    rounds 0-5: 210 survivors, 30 of each of four rejections) and of the
    fixture snippets, pinned as the cleaner wrote them before it scanned
    statements."""
    import random

    from perfbench import gen

    rows = []
    for seed in range(1, 6):
        for r in range(6):
            files, _ = gen.harvest_pages(random.Random(f"suite:{seed}:{r}"), CATEGORIES, r,
                                         (r + 1) * 1000, survivors=len(gen.FAMILIES),
                                         baseline_faults=1)
            rows += [(item["link"], block) for page in files.values()
                     for item in page["items"]
                     for block in extract_code_blocks(item["body_markdown"])]
    assert len(rows) == 330
    assert _cleaning_digest(rows) == (
        "b38f030398b10c586272dc145aae54239439970c944dbc15ab513a0cb3b56ea9")
    snippets = [(p.name, p.read_text()) for p in sorted((FIXTURES / "snippets").glob("*.cc"))]
    assert _cleaning_digest(snippets) == (
        "9fbe88e8474498fdd4d6a8eba895b41018de214bc9744cd7d226e02ff4c2e6a1")
