from __future__ import annotations

import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omprag.corpus import (
    CorpusChunk,
    CorpusManifest,
    chunk_document,
    ingest_corpus,
    token_estimate,
)
from omprag.cli import main as cli_main
from omprag.errors import CorpusEmptyError, IntegrityError, InvalidInputError, ParseError

FIXTURES = Path(__file__).parent / "fixtures"


def test_three_section_doc_yields_three_chunks():
    # fixtures/docs/guide.md has one h1 section and two h2 subsections
    text = (FIXTURES / "docs" / "guide.md").read_text()
    chunks = chunk_document(text, source_doc="guide.md")
    assert len(chunks) == 3
    assert chunks[0].heading_path == ["Loop parallelism quick guide"]
    assert chunks[1].heading_path == ["Loop parallelism quick guide", "Reductions"]
    assert chunks[2].heading_path == ["Loop parallelism quick guide", "Data sharing"]


def test_no_heading_doc_is_single_chunk():
    text = "plain prose line one\n\nplain prose line two\n"
    chunks = chunk_document(text, source_doc="plain.txt")
    assert len(chunks) == 1
    assert chunks[0].heading_path == []
    assert "line one" in chunks[0].body and "line two" in chunks[0].body


def test_empty_text_yields_no_chunks():
    assert chunk_document("") == []
    assert chunk_document("   \n\n  ") == []


def test_max_tokens_floor_enforced():
    with pytest.raises(InvalidInputError):
        chunk_document("some text", max_tokens=16)


def test_oversized_section_splits_on_paragraphs():
    p1 = " ".join(f"w{i}" for i in range(20))
    p2 = " ".join(f"x{i}" for i in range(20))
    p3 = " ".join(f"y{i}" for i in range(30))
    text = f"# Big\n\n{p1}\n\n{p2}\n\n{p3}\n"
    chunks = chunk_document(text, max_tokens=40)
    assert len(chunks) == 2
    assert chunks[0].body == p1 + "\n\n" + p2
    assert chunks[1].body == p3
    assert all(c.token_estimate <= 40 for c in chunks)


def test_single_paragraph_over_budget_is_its_own_chunk():
    huge = " ".join(f"t{i}" for i in range(50))
    text = f"# Top\n\nsmall intro\n\n{huge}\n\ntail para\n"
    chunks = chunk_document(text, max_tokens=32)
    bodies = [c.body for c in chunks]
    assert huge in bodies
    assert all(c.token_estimate <= 32 or c.body == huge for c in chunks)


def test_chunk_ids_unique_and_ordered():
    text = "# A\n\none\n\n# B\n\ntwo\n"
    chunks = chunk_document(text, source_doc="d.md")
    assert [c.chunk_id for c in chunks] == ["d.md#0000", "d.md#0001"]


def test_token_estimate_matches_whitespace_count():
    chunks = chunk_document("# H\n\nalpha beta  gamma\n", source_doc="d")
    assert chunks[0].token_estimate == 3 == token_estimate(chunks[0].body)


_LINES = st.lists(
    st.sampled_from(
        [
            "# Top heading",
            "## Sub heading",
            "### Deep heading",
            "prose alpha beta",
            "more text here",
            "code sample line",
            "",
        ]
    ),
    max_size=40,
)


@settings(max_examples=50, deadline=None)
@given(_LINES)
def test_coverage_property(lines):
    """Non-blank, non-heading lines survive chunking exactly (as a multiset)."""
    text = "\n".join(lines)
    chunks = chunk_document(text, max_tokens=32)
    expected = sorted(
        line for line in lines if line.strip() and not line.startswith("#")
    )
    got = sorted(
        line
        for chunk in chunks
        for line in chunk.body.splitlines()
        if line.strip()
    )
    assert got == expected


def test_ingest_fixture_corpus(tmp_path):
    manifest = ingest_corpus(FIXTURES / "docs")
    sources = {chunk.source_doc for chunk in manifest.chunks}
    assert sources == {"guide.md", "plain.txt", "stencils.md"}
    # documents contribute chunks in sorted-path, in-document order
    assert [c.chunk_id for c in manifest.chunks] == sorted(
        (c.chunk_id for c in manifest.chunks),
        key=lambda cid: (cid.split("#")[0], cid),
    )


def test_ingest_empty_directory_errors(tmp_path):
    with pytest.raises(CorpusEmptyError):
        ingest_corpus(tmp_path)


def test_ingest_missing_directory_errors(tmp_path):
    with pytest.raises(CorpusEmptyError):
        ingest_corpus(tmp_path / "nope")


def test_ingest_skips_unreadable_file_and_continues(tmp_path, caplog):
    (tmp_path / "good.md").write_text("# Ok\n\ncontent here\n")
    (tmp_path / "bad.md").mkdir()  # a directory named like a doc: unreadable
    manifest = ingest_corpus(tmp_path)
    assert {c.source_doc for c in manifest.chunks} == {"good.md"}


def test_ingest_all_unreadable_errors(tmp_path):
    (tmp_path / "bad.md").mkdir()
    with pytest.raises(CorpusEmptyError):
        ingest_corpus(tmp_path)


def test_manifest_round_trip(tmp_path):
    manifest = ingest_corpus(FIXTURES / "docs")
    path = tmp_path / "manifest.jsonl"
    manifest.save(path)
    loaded = CorpusManifest.load(path)
    assert loaded == manifest


def test_manifest_field_names_exact(tmp_path):
    import json

    manifest = ingest_corpus(FIXTURES / "docs")
    path = tmp_path / "manifest.jsonl"
    manifest.save(path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert set(header) == {"corpus_version", "created_at"}
    for line in lines[1:]:
        record = json.loads(line)
        assert list(record) == [
            "chunk_id", "source_doc", "heading_path", "body", "token_estimate",
        ]


def test_ingest_deterministic_except_created_at():
    first = ingest_corpus(FIXTURES / "docs")
    second = ingest_corpus(FIXTURES / "docs")
    second.created_at = first.created_at
    assert first == second


def test_duplicate_chunk_id_rejected(tmp_path):
    chunk = CorpusChunk("c1", "d", [], "body text", 2)
    manifest = CorpusManifest(chunks=[chunk, CorpusChunk("c1", "d", [], "other", 1)])
    with pytest.raises(IntegrityError):
        manifest.validate()


def test_load_rejects_bad_token_estimate(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text(
        '{"corpus_version": "1", "created_at": ""}\n'
        '{"chunk_id": "c", "source_doc": "d", "heading_path": [], '
        '"body": "two words", "token_estimate": 5}\n'
    )
    with pytest.raises(InvalidInputError):
        CorpusManifest.load(path)


_HEADER_LINE = '{"corpus_version": "1", "created_at": ""}\n'


@pytest.mark.parametrize("bad_line", [
    '{"chunk_id": "c", ',
    '["chunk_id", "c"]',
    '{"chunk_id": "c", "source_doc": "d", "heading_path": 5, "body": "b", "token_estimate": 1}',
])
def test_load_names_a_malformed_line(tmp_path, bad_line):
    path = tmp_path / "m.jsonl"
    path.write_text(_HEADER_LINE + "\n" + bad_line + "\n")
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:3: "):
        CorpusManifest.load(path)


def test_cli_index_of_a_bad_manifest_is_an_error(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text(_HEADER_LINE + "not json\n")
    assert cli_main(["index", "--manifest", str(path), "--out", str(tmp_path / "i")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}:2: ")


def test_chunk_by_id_sees_chunks_appended_after_a_lookup():
    manifest = CorpusManifest(chunks=[CorpusChunk("c1", "d", [], "body one", 2)])
    assert manifest.chunk_by_id("c1").body == "body one"
    manifest.chunks.append(CorpusChunk("c2", "d", [], "body two", 2))
    assert manifest.chunk_by_id("c2").body == "body two"
    manifest.chunks[0] = CorpusChunk("c0", "d", [], "body zero", 2)
    assert manifest.chunk_by_id("c0").body == "body zero"
    with pytest.raises(IntegrityError, match="'c1'"):
        manifest.chunk_by_id("c1")


def test_chunk_by_id_unknown_id_is_integrity_error():
    manifest = ingest_corpus(FIXTURES / "docs")
    for chunk in manifest.chunks:
        assert manifest.chunk_by_id(chunk.chunk_id) is chunk
    with pytest.raises(IntegrityError, match="not present"):
        manifest.chunk_by_id("no-such-chunk")
    with pytest.raises(IntegrityError):
        CorpusManifest().chunk_by_id("c1")


def test_concurrent_first_lookups_all_succeed():
    """Workers share one manifest; the first lookups all build the map at once."""
    ids = [f"c{i:04d}" for i in range(3000)]
    queries = ids[::-1][:200] * 4  # the last ids, which a half-built map lacks
    workers = 4 * len(os.sched_getaffinity(0))  # more workers than cores
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            manifest = CorpusManifest(chunks=[CorpusChunk(cid, "d", [], cid, 1) for cid in ids])
            with ThreadPoolExecutor(max_workers=workers) as pool:
                found = list(pool.map(lambda cid: manifest.chunk_by_id(cid).body, queries,
                                      timeout=60))
            assert found == queries
    finally:
        sys.setswitchinterval(previous)
