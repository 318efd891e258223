from __future__ import annotations

import math
import random
import re

import pytest

from omprag.corpus import CorpusChunk, CorpusManifest
from omprag.embedding import EmbeddingVector, HashedTfidfEmbedder
from omprag.errors import IntegrityError, InvalidInputError, ParseError, ProviderError
from omprag.index import IndexEntry, RetrievalHit, VectorIndex, build_index

TAG = "test-space"


def _unit(rng: random.Random, dim: int) -> EmbeddingVector:
    return EmbeddingVector.from_raw([rng.gauss(0, 1) for _ in range(dim)], TAG)


def _index_of(vectors: list[EmbeddingVector]) -> VectorIndex:
    entries = [IndexEntry(f"c{i:03d}", v) for i, v in enumerate(vectors)]
    return VectorIndex(entries, TAG, vectors[0].dimension)


def brute_force_topk(
    entries: list[IndexEntry], query: EmbeddingVector, k: int
) -> list[tuple[str, float]]:
    """Independent oracle: fsum dot products, full sort, same tie-break."""
    scored = [
        (
            entry.chunk_id,
            math.fsum(a * b for a, b in zip(entry.vector.values, query.values)),
        )
        for entry in entries
    ]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


def _manifest(bodies: list[str]) -> CorpusManifest:
    chunks = [
        CorpusChunk(f"c{i:03d}", "doc", [], body, len(body.split()))
        for i, body in enumerate(bodies)
    ]
    return CorpusManifest(chunks=chunks)


def test_build_index_cardinality():
    manifest = _manifest(["reduction clause sums", "collapse nested loops", "atomic updates"])
    index = build_index(manifest, HashedTfidfEmbedder())
    assert len(index) == 3


def test_build_rejects_duplicate_chunk_ids():
    chunk = CorpusChunk("dup", "doc", [], "text body", 2)
    manifest = CorpusManifest(chunks=[chunk, CorpusChunk("dup", "doc", [], "other", 1)])
    with pytest.raises(IntegrityError):
        build_index(manifest, HashedTfidfEmbedder())


def test_build_failure_names_the_chunk():
    class Flaky:
        provider_tag = "flaky"

        def embed(self, text):
            if "trigger" in text:
                raise ProviderError("backend down", status=503)
            return EmbeddingVector.from_raw([1.0, 0.0], "flaky")

    manifest = _manifest(["fine body", "trigger failure here", "also fine"])
    with pytest.raises(ProviderError, match="c001"):
        build_index(manifest, Flaky())


def test_rebuild_persists_identical_bytes(tmp_path):
    manifest = _manifest(["reduction clause sums", "collapse nested loops"])
    a, b = tmp_path / "a.idx", tmp_path / "b.idx"
    build_index(manifest, HashedTfidfEmbedder()).save(a)
    build_index(manifest, HashedTfidfEmbedder()).save(b)
    assert a.read_bytes() == b.read_bytes()


def test_self_retrieval_rank_one():
    rng = random.Random(7)
    vectors = [_unit(rng, 16) for _ in range(10)]
    index = _index_of(vectors)
    hits = index.query_topk(vectors[3], k=1)
    assert hits[0].chunk_id == "c003"
    assert hits[0].score == pytest.approx(1.0, abs=1e-9)
    assert hits[0].rank == 1


def test_k_larger_than_index_truncates():
    rng = random.Random(8)
    index = _index_of([_unit(rng, 8) for _ in range(4)])
    hits = index.query_topk(_unit(rng, 8), k=100)
    assert len(hits) == 4
    assert [h.rank for h in hits] == [1, 2, 3, 4]


def test_scores_non_increasing_and_ranks_consecutive():
    rng = random.Random(9)
    index = _index_of([_unit(rng, 8) for _ in range(20)])
    hits = index.query_topk(_unit(rng, 8), k=20)
    assert [h.rank for h in hits] == list(range(1, 21))
    assert all(hits[i].score >= hits[i + 1].score for i in range(len(hits) - 1))


def test_matches_brute_force_oracle_on_random_vectors():
    rng = random.Random(42)
    vectors = [_unit(rng, 32) for _ in range(50)]
    index = _index_of(vectors)
    query = _unit(rng, 32)
    hits = index.query_topk(query, k=5)
    expected = brute_force_topk(index.entries, query, 5)
    assert [h.chunk_id for h in hits] == [cid for cid, _ in expected]
    for hit, (_, score) in zip(hits, expected):
        assert hit.score == pytest.approx(score, abs=1e-9)


def test_tie_break_on_ascending_chunk_id():
    v = EmbeddingVector.from_raw([1.0, 1.0, 0.0], TAG)
    entries = [IndexEntry(cid, v) for cid in ("zz", "aa", "mm")]
    index = VectorIndex(entries, TAG, 3)
    hits = index.query_topk(v, k=3)
    assert [h.chunk_id for h in hits] == ["aa", "mm", "zz"]


def test_monotone_prefix_property():
    rng = random.Random(11)
    index = _index_of([_unit(rng, 8) for _ in range(15)])
    query = _unit(rng, 8)
    previous: list[RetrievalHit] = []
    for k in range(1, 16):
        hits = index.query_topk(query, k)
        assert [h.chunk_id for h in hits[: len(previous)]] == [h.chunk_id for h in previous]
        previous = hits


def test_persistence_round_trip_preserves_queries(tmp_path):
    rng = random.Random(12)
    index = _index_of([_unit(rng, 8) for _ in range(12)])
    path = tmp_path / "index.jsonl"
    index.save(path)
    loaded = VectorIndex.load(path)
    query = _unit(rng, 8)
    assert loaded.query_topk(query, 6) == index.query_topk(query, 6)


def test_save_load_save_is_byte_identical(tmp_path):
    rng = random.Random(16)
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    _index_of([_unit(rng, 8) for _ in range(12)]).save(first)
    VectorIndex.load(first).save(second)
    assert first.read_bytes() == second.read_bytes()


def test_load_rejects_non_numeric_components(tmp_path):
    rng = random.Random(17)
    path = tmp_path / "index.jsonl"
    _index_of([_unit(rng, 2) for _ in range(2)]).save(path)
    lines = path.read_text().splitlines()
    lines[2] = '{"chunk_id": "c001", "vector": ["a", "b"]}'
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InvalidInputError):
        VectorIndex.load(path)


def test_provider_tag_mismatch_on_query():
    rng = random.Random(13)
    index = _index_of([_unit(rng, 8) for _ in range(3)])
    other = EmbeddingVector.from_raw([1.0] * 8, "other-space")
    with pytest.raises(InvalidInputError):
        index.query_topk(other, 1)


def test_k_must_be_positive():
    rng = random.Random(14)
    index = _index_of([_unit(rng, 4)])
    with pytest.raises(InvalidInputError):
        index.query_topk(_unit(rng, 4), 0)


def test_load_detects_truncated_file(tmp_path):
    rng = random.Random(15)
    index = _index_of([_unit(rng, 4) for _ in range(3)])
    path = tmp_path / "index.jsonl"
    index.save(path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(IntegrityError):
        VectorIndex.load(path)


@pytest.mark.parametrize("bad_line", [
    '{"chunk_id": "c001", "vector": [0.6',  # a line cut short
    '{"vector": [0.6, 0.8]}',  # no chunk_id
    '["c001", [0.6, 0.8]]',  # not an object
])
def test_malformed_entry_is_parse_error_naming_the_line(tmp_path, bad_line):
    rng = random.Random(19)
    path = tmp_path / "index.jsonl"
    _index_of([_unit(rng, 2) for _ in range(3)]).save(path)
    lines = path.read_text().splitlines()
    lines[2] = bad_line
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=re.escape(f"{path}:3: bad index entry")):
        VectorIndex.load(path)


def test_malformed_header_is_parse_error(tmp_path):
    rng = random.Random(23)
    path = tmp_path / "index.jsonl"
    _index_of([_unit(rng, 2)]).save(path)
    lines = path.read_text().splitlines()
    lines[0] = '{"provider_tag": "test-space", "dimension": 2'
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=re.escape(f"{path}:1: bad index header")):
        VectorIndex.load(path)
