from __future__ import annotations

import json
import math
import random
import re

import numpy as np
import pytest

from omprag.cli import builtin_corpus_dir
from omprag.corpus import CorpusChunk, CorpusManifest, ingest_corpus
from omprag.embedding import EmbeddingVector, HashedTfidfEmbedder, cosine_similarity
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


def test_provider_tag_mismatch_on_query():
    rng = random.Random(13)
    index = _index_of([_unit(rng, 8) for _ in range(3)])
    other = EmbeddingVector.from_raw([1.0] * 8, "other-space")
    with pytest.raises(InvalidInputError):
        index.query_topk(other, 1)


@pytest.mark.parametrize("query, reason", [
    (EmbeddingVector.from_raw([1.0] * 4, TAG), "query has dimension 4, index expects 8"),
    (EmbeddingVector.from_raw([1.0] * 8, "other-space"), "query has provider_tag 'other-space'"),
])
def test_a_query_from_another_space_is_refused(query, reason):
    rng = random.Random(13)
    for index in (_index_of([_unit(rng, 8) for _ in range(3)]), VectorIndex([], TAG, 8)):
        with pytest.raises(InvalidInputError, match=re.escape(reason)):
            index.query_topk(query, 1)


def test_k_must_be_positive():
    rng = random.Random(14)
    index = _index_of([_unit(rng, 4)])
    with pytest.raises(InvalidInputError):
        index.query_topk(_unit(rng, 4), 0)


def _replace_header(path, **fields) -> None:
    """Rewrite the header line of a saved index with ``fields`` changed."""
    header, rest = path.read_bytes().split(b"\n", 1)
    path.write_bytes(json.dumps({**json.loads(header), **fields}).encode() + b"\n" + rest)


def test_malformed_header_is_parse_error(tmp_path):
    rng = random.Random(23)
    path = tmp_path / "index.idx"
    _index_of([_unit(rng, 2)]).save(path)
    rest = path.read_bytes().split(b"\n", 1)[1]
    path.write_bytes(b'{"format": 2, "provider_tag": "test-space", "dimension": 2\n' + rest)
    with pytest.raises(ParseError, match=re.escape(f"{path}:1: bad index header")):
        VectorIndex.load(path)


def test_an_older_format_is_refused_naming_the_rebuild(tmp_path):
    rng = random.Random(41)
    index = _index_of([_unit(rng, 2) for _ in range(2)])
    path = tmp_path / "index.jsonl"
    # The one-JSON-line-per-entry layout that earlier versions saved.
    header = {"provider_tag": TAG, "dimension": 2, "count": 2}
    lines = [json.dumps(header)] + [
        json.dumps({"chunk_id": e.chunk_id, "vector": e.vector.values.tolist()})
        for e in index.entries
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ParseError,
                       match=re.escape(f"{path}:1: ") + ".*older format.*`omprag index`"):
        VectorIndex.load(path)


def _per_entry_topk(entries: list[IndexEntry], query: EmbeddingVector, k: int):
    """The per-entry scan the one-pass query must reproduce bitwise."""
    scored = sorted(
        ((cosine_similarity(query, e.vector), e.chunk_id) for e in entries),
        key=lambda pair: (-pair[0], pair[1]),
    )
    return [RetrievalHit(cid, score, rank) for rank, (score, cid) in enumerate(scored[:k], start=1)]


def _ulp_apart(vector: EmbeddingVector, component: int) -> EmbeddingVector:
    values = vector.values.copy()
    values[component] = np.nextafter(values[component], np.inf)
    return EmbeddingVector(values, vector.provider_tag)


def _near_tie_corpus(seed: int):
    """Random unit vectors plus duplicates (exact ties) and 1-ulp neighbours."""
    rng = random.Random(seed)
    dim = (16, 512)[seed % 2]
    base = [_unit(rng, dim) for _ in range(24)]
    vectors = base + base[::4]
    vectors += [_ulp_apart(base[i], rng.randrange(dim)) for i in range(1, 24, 4)]
    rng.shuffle(vectors)
    entries = [IndexEntry(f"c{i:03d}", v) for i, v in enumerate(vectors)]
    queries = [rng.choice(base), _unit(rng, dim), _ulp_apart(rng.choice(base), 0)]
    return entries, queries


@pytest.mark.parametrize("seed", range(6))
def test_one_pass_query_equals_per_entry_scan(seed):
    entries, queries = _near_tie_corpus(seed)
    index = VectorIndex(entries, TAG, entries[0].vector.dimension)
    n = len(entries)
    for query in queries:
        for k in (1, 4, n, n + 3):
            assert index.query_topk(query, k) == _per_entry_topk(entries, query, k)


@pytest.mark.parametrize("seed", range(6))
def test_one_pass_rounding_cannot_change_the_hits(seed, monkeypatch):
    """Scores off by 1e-12, ten times the real einsum/np.dot gap, change nothing."""
    entries, queries = _near_tie_corpus(seed)
    index = VectorIndex(entries, TAG, entries[0].vector.dimension)
    noise = np.random.default_rng(seed)
    exact_einsum = np.einsum

    def rounded_einsum(*args):
        scores = exact_einsum(*args)
        return scores + noise.uniform(-1e-12, 1e-12, scores.shape)

    monkeypatch.setattr(np, "einsum", rounded_einsum)
    for query in queries:
        for k in range(1, len(entries) + 1):
            assert index.query_topk(query, k) == _per_entry_topk(entries, query, k)


def test_entries_are_read_only_views_of_one_array(tmp_path):
    rng = random.Random(29)
    built = _index_of([_unit(rng, 8) for _ in range(6)])
    path = tmp_path / "index.jsonl"
    built.save(path)
    manifest = _manifest(["reduction clause sums", "collapse nested loops", "atomic updates"])
    for index in (built, VectorIndex.load(path), build_index(manifest, HashedTfidfEmbedder())):
        for entry in index.entries:
            assert np.shares_memory(entry.vector.values, index._matrix)
            assert not entry.vector.values.flags.writeable
        with pytest.raises(ValueError):
            index.entries[0].vector.values[0] = 0.5


def test_empty_index_returns_no_hits(tmp_path):
    rng = random.Random(37)
    query = _unit(rng, 4)
    empty = VectorIndex([], TAG, 4)
    assert empty.query_topk(query, 1) == []
    assert empty.query_topk(query, 4) == []
    path = tmp_path / "index.jsonl"
    empty.save(path)
    assert VectorIndex.load(path).query_topk(query, 4) == []


# Each wrong count of a three-entry file, and the refusal it must meet.
_COUNT_REFUSALS = {
    2: (IntegrityError, "header count 2 != 3 chunk ids"),
    4: (IntegrityError, "header count 4 != 3 chunk ids"),
    0: (IntegrityError, "header count 0 != 3 chunk ids"),
    -1: (ParseError, ":1: bad index header: count -1"),
    10**12: (IntegrityError, f"header count {10**12} exceeds its size"),
}


@pytest.mark.parametrize("count", list(_COUNT_REFUSALS))
def test_load_refuses_a_wrong_header_count(tmp_path, count):
    error, reason = _COUNT_REFUSALS[count]
    rng = random.Random(31)
    path = tmp_path / "index.idx"
    _index_of([_unit(rng, 4) for _ in range(3)]).save(path)
    _replace_header(path, count=count)
    with pytest.raises(error, match=re.escape(str(path)) + ".*" + re.escape(reason)):
        VectorIndex.load(path)


def _write_format2(path, count: int, chunk_ids, payload: np.ndarray, **save_kwargs) -> None:
    """A format 2 file with the given header count, id list and payload."""
    header = {"format": 2, "provider_tag": TAG, "dimension": 4, "count": count}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        fh.write(json.dumps(chunk_ids).encode() + b"\n")
        np.save(fh, payload, **save_kwargs)


def test_saved_index_gives_the_built_hits(tmp_path):
    manifest = ingest_corpus(builtin_corpus_dir())
    embedder = HashedTfidfEmbedder().fit(chunk.body for chunk in manifest.chunks)
    built = build_index(manifest, embedder)
    path = tmp_path / "index.idx"
    built.save(path)
    assert path.read_bytes().startswith(b'{"format": 2, ')
    loaded = VectorIndex.load(path)
    assert loaded._matrix.tobytes() == built._matrix.tobytes()
    for chunk in manifest.chunks:
        query = embedder.embed(chunk.body)
        for k in (1, 4, 10):
            assert loaded.query_topk(query, k) == built.query_topk(query, k)


_ROWS = np.full((3, 4), 0.5)


@pytest.mark.parametrize("count, chunk_ids, payload, save_kwargs, error, reason", [
    (10**12, ["a", "b", "c"], _ROWS, {}, IntegrityError, "exceeds its size"),
    (3, ["a", "b", "c"], _ROWS.astype("<f4"), {}, ParseError, "expected <f8"),
    (3, ["a", "b", "c"], _ROWS.astype(">f8"), {}, ParseError, "expected <f8"),
    (3, ["a", "b", "c"], np.asfortranarray(np.full((4, 3), 0.5).T), {}, ParseError,
     "Fortran"),
    (3, ["a", "b", "c"], np.full((2, 4), 0.5), {}, IntegrityError, r"shape \(2, 4\)"),
    (3, ["a", "b", "c"], np.full((4, 4), 0.5), {}, IntegrityError, r"shape \(4, 4\)"),
    (3, ["a", "b"], _ROWS, {}, IntegrityError, "2 chunk ids"),
    (3, ["a", "b", 3], _ROWS, {}, ParseError, "list of strings"),
    (3, ["a", "b", "c"], _ROWS.astype(object), {"allow_pickle": True}, ParseError, "pickled"),
])
def test_format2_refusals_name_the_file(tmp_path, count, chunk_ids, payload, save_kwargs,
                                        error, reason):
    path = tmp_path / "index.idx"
    _write_format2(path, count, chunk_ids, payload, **save_kwargs)
    with pytest.raises(error, match=f"{re.escape(str(path))}.*{reason}"):
        VectorIndex.load(path)


@pytest.mark.parametrize("cut, tail", [(8, b""), (0, b"\0" * 8)])
def test_format2_payload_of_the_wrong_length_is_refused(tmp_path, cut, tail):
    path = tmp_path / "index.idx"
    _write_format2(path, 3, ["a", "b", "c"], _ROWS)
    data = path.read_bytes()
    path.write_bytes(data[:len(data) - cut] + tail)
    with pytest.raises(IntegrityError, match=f"{re.escape(str(path))}.*not 96 bytes"):
        VectorIndex.load(path)


@pytest.mark.parametrize("line, replace, reason", [
    (1, b'["a", "b", "c"', ":2: bad chunk id list"),
    (2, b"\x93NUMPY\x03\x00", ": bad .npy payload header"),
    (2, b"[[0.5, 0.5, 0.5, 0.5]]", ": bad .npy payload header"),
])
def test_format2_malformed_parts_are_parse_errors(tmp_path, line, replace, reason):
    path = tmp_path / "index.idx"
    _write_format2(path, 3, ["a", "b", "c"], _ROWS)
    parts = path.read_bytes().split(b"\n", 2)
    parts[line] = replace
    path.write_bytes(b"\n".join(parts) + b"\0" * 96)
    with pytest.raises(ParseError, match=re.escape(f"{path}{reason}")):
        VectorIndex.load(path)


@pytest.mark.parametrize("line", [
    '{"format": 3, "provider_tag": "test-space", "dimension": 4, "count": 3}',
    '{"format": "2", "provider_tag": "test-space", "dimension": 4, "count": 3}',
])
def test_unknown_format_is_parse_error(tmp_path, line):
    path = tmp_path / "index.idx"
    _write_format2(path, 3, ["a", "b", "c"], _ROWS)
    rest = path.read_bytes().split(b"\n", 1)[1]
    path.write_bytes(line.encode() + b"\n" + rest)
    with pytest.raises(ParseError, match=re.escape(f"{path}:1: unknown index format")):
        VectorIndex.load(path)


@pytest.mark.parametrize("chunk_ids, payload, error, reason", [
    (["a", "b", "c"], np.full((3, 4), 0.6), InvalidInputError, "not unit-normalized"),
    (["a", "b", "c"], np.where(np.arange(12).reshape(3, 4) == 5, np.nan, 0.5),
     InvalidInputError, "non-finite"),
    (["a", "b", "a"], _ROWS, IntegrityError, "duplicate chunk_id 'a'"),
])
def test_format2_rows_keep_the_index_checks(tmp_path, chunk_ids, payload, error, reason):
    path = tmp_path / "index.idx"
    _write_format2(path, 3, chunk_ids, payload)
    with pytest.raises(error, match=f"{re.escape(str(path))}: .*{reason}"):
        VectorIndex.load(path)


def test_a_failed_save_leaves_the_old_file(tmp_path, monkeypatch):
    rng = random.Random(47)
    path = tmp_path / "index.idx"
    _index_of([_unit(rng, 4) for _ in range(3)]).save(path)
    before = path.read_bytes()

    def failing_save(fh, array, **kwargs):
        fh.write(b"\x93NUMPY half a payload")
        raise OSError("no space left on device")

    monkeypatch.setattr(np, "save", failing_save)
    with pytest.raises(OSError, match="no space left"):
        _index_of([_unit(rng, 4) for _ in range(5)]).save(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["index.idx"]
