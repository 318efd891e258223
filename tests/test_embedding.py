from __future__ import annotations

import hashlib
import math
import os
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from omprag.cli import builtin_corpus_dir
from omprag.corpus import ingest_corpus
from omprag.embedding import (
    EmbeddingVector,
    HashedTfidfEmbedder,
    RemoteEmbedder,
    _bucket_and_sign,
    cosine_similarity,
    tokenize,
)
from omprag.errors import InvalidInputError, ProviderError

FIXTURE_CASES = Path(__file__).parent / "fixtures" / "cases"


def _vec(values, tag="test"):
    return EmbeddingVector.from_raw(values, tag)


class TestEmbeddingVector:
    def test_normalization(self):
        v = _vec([3.0, 4.0])
        assert tuple(v.values) == (0.6, 0.8)
        assert v.dimension == 2

    def test_zero_vector_forbidden(self):
        with pytest.raises(InvalidInputError):
            _vec([0.0, 0.0, 0.0])

    def test_tiny_components_are_not_zero(self):
        # 2.2e-241 squared underflows to 0.0; the norm itself must not.
        assert tuple(_vec([0.0, 0.0, 0.0, 2.2e-241]).values) == (0.0, 0.0, 0.0, 1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            _vec([1.0, float("nan")])
        with pytest.raises(InvalidInputError):
            EmbeddingVector((float("inf"), 0.0), "t")

    def test_length_must_match_dimension(self):
        v = EmbeddingVector((1.0, 0.0, 0.0), "t")
        assert v.dimension == len(v.values) == 3
        with pytest.raises(AttributeError):  # derived from the values, never set
            v.dimension = 2

    @pytest.mark.parametrize("values", [[[0.6, 0.8]], [[0.6], [0.8]], 1.0])
    def test_values_must_be_one_dimensional(self, values):
        with pytest.raises(InvalidInputError, match="not 1-D"):
            EmbeddingVector(values, "t")

    def test_unnormalized_construction_rejected(self):
        with pytest.raises(InvalidInputError):
            EmbeddingVector((3.0, 4.0), "t")

    def test_normalizing_is_idempotent(self):
        v = _vec([1.0, 2.0, 2.0])
        again = EmbeddingVector.from_raw(v.values, v.provider_tag)
        assert tuple(again.values) == tuple(v.values)

    def test_scale_invariance(self):
        assert tuple(_vec([1.0, 2.0]).values) == tuple(_vec([10.0, 20.0]).values)

    def test_values_are_a_read_only_float64_array(self):
        v = _vec([3.0, 4.0])
        assert isinstance(v.values, np.ndarray)
        assert v.values.dtype == np.float64 and v.values.shape == (2,)
        with pytest.raises(ValueError):
            v.values[0] = 1.0

    def test_caller_array_is_copied(self):
        source = np.array([0.6, 0.8])
        v = EmbeddingVector(source, "t")
        source[0] = 0.8
        source[1] = 0.6
        assert tuple(v.values) == (0.6, 0.8)
        assert source.flags.writeable

    def test_only_a_view_of_a_read_only_owner_is_kept(self):
        owner = np.array([[0.6, 0.8], [0.8, 0.6]])
        view = owner[0]
        view.flags.writeable = False  # the view is read-only, its owner is not
        assert not np.shares_memory(EmbeddingVector(view, "t").values, owner)
        owner.flags.writeable = False
        assert np.shares_memory(EmbeddingVector(owner[1], "t").values, owner)

    @pytest.mark.parametrize(
        "values", [["x", 1.0], [None, 1.0], ["0.6", "0.8"], [[0.6, 0.8]], [[1.0], [0.0, 1.0]]]
    )
    def test_non_numeric_or_nested_components_rejected(self, values):
        with pytest.raises(InvalidInputError):
            EmbeddingVector(values, "t")


class TestCosineSimilarity:
    def test_identity(self):
        v = _vec([0.3, -0.2, 0.9])
        assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_basis(self):
        e1 = _vec([1.0, 0.0, 0.0])
        e2 = _vec([0.0, 1.0, 0.0])
        assert cosine_similarity(e1, e2) == 0.0

    def test_hand_computed_value(self):
        a = _vec([1.0, 1.0, 0.0])
        b = _vec([1.0, 0.0, 0.0])
        assert cosine_similarity(a, b) == pytest.approx(0.7071, abs=1e-4)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            cosine_similarity(_vec([1.0, 0.0]), _vec([1.0, 0.0, 0.0]))

    def test_provider_tag_mismatch(self):
        with pytest.raises(InvalidInputError):
            cosine_similarity(_vec([1.0, 0.0], "a"), _vec([1.0, 0.0], "b"))

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(-10, 10), min_size=4, max_size=4),
        st.lists(st.floats(-10, 10), min_size=4, max_size=4),
    )
    def test_symmetry_exact(self, xs, ys):
        if not any(xs) or not any(ys):
            return
        a, b = _vec(xs), _vec(ys)
        assert cosine_similarity(a, b) == cosine_similarity(b, a)
        assert -1.0 - 1e-9 <= cosine_similarity(a, b) <= 1.0 + 1e-9


class TestLocalEmbedder:
    def test_deterministic_bitwise(self):
        e = HashedTfidfEmbedder()
        text = "#pragma omp parallel for reduction(+:sum)"
        assert tuple(e.embed(text).values) == tuple(e.embed(text).values)

    def test_disjoint_terms_cosine_zero(self):
        e = HashedTfidfEmbedder()
        # tokens chosen to hash to distinct buckets
        assert cosine_similarity(e.embed("alpha beta"), e.embed("gamma delta")) == 0.0

    def test_empty_text_rejected(self):
        e = HashedTfidfEmbedder()
        with pytest.raises(InvalidInputError):
            e.embed("")
        with pytest.raises(InvalidInputError):
            e.embed("   \n ")

    def test_dimension_and_tag(self):
        e = HashedTfidfEmbedder()
        v = e.embed("some tokens here")
        assert v.dimension == 512
        assert v.provider_tag == "local-tfidf-512"
        assert math.isclose(math.fsum(x * x for x in v.values), 1.0, abs_tol=1e-9)

    def test_fit_changes_tag_and_is_deterministic(self):
        corpus = ["reduction clauses combine partials", "collapse fuses nested loops"]
        e1 = HashedTfidfEmbedder().fit(corpus)
        e2 = HashedTfidfEmbedder().fit(corpus)
        assert e1.provider_tag == e2.provider_tag != "local-tfidf-512"
        assert tuple(e1.embed("reduction").values) == tuple(e2.embed("reduction").values)

    def test_different_corpora_get_different_tags(self):
        e1 = HashedTfidfEmbedder().fit(["one document here"])
        e2 = HashedTfidfEmbedder().fit(["a different corpus entirely"])
        assert e1.provider_tag != e2.provider_tag

    def test_fitted_vectors_incomparable_with_unfitted(self):
        fitted = HashedTfidfEmbedder().fit(["doc body"])
        plain = HashedTfidfEmbedder()
        with pytest.raises(InvalidInputError):
            cosine_similarity(fitted.embed("doc"), plain.embed("doc"))

    def test_fit_empty_corpus_rejected(self):
        with pytest.raises(InvalidInputError):
            HashedTfidfEmbedder().fit([])

    def test_relevance_ordering(self):
        docs = [
            "reduction clauses give each thread a private partial sum",
            "collapse fuses perfectly nested loops into one space",
            "atomic protects a single scalar update",
        ]
        e = HashedTfidfEmbedder().fit(docs)
        query = e.embed("parallel sum with a reduction clause")
        scores = [cosine_similarity(query, e.embed(doc)) for doc in docs]
        assert scores[0] == max(scores)


def _reference_bucket_and_sign(token: str, dimension: int) -> tuple[int, float]:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest[:4], "big") % dimension, 1.0 if digest[4] & 1 else -1.0


class _ReferenceEmbedder:
    """The per-token loops the hashed embedder must reproduce bitwise: one
    hash per token occurrence and one scalar add per bucket hit."""

    def __init__(self, dimension: int = 512):
        self.dimension = dimension
        self.idf = None
        self.provider_tag = f"local-tfidf-{dimension}"

    def fit(self, docs):
        df = np.zeros(self.dimension)
        for doc in docs:
            for b in {_reference_bucket_and_sign(t, self.dimension)[0] for t in tokenize(doc)}:
                df[b] += 1.0
        n = float(len(docs))
        self.idf = np.log((1.0 + n) / (1.0 + df)) + 1.0
        fingerprint = hashlib.sha256(self.idf.tobytes()).hexdigest()[:8]
        self.provider_tag = f"local-tfidf-{self.dimension}:{fingerprint}"
        return self

    def embed_bytes(self, text: str) -> bytes:
        vec = np.zeros(self.dimension)
        for token, count in Counter(tokenize(text)).items():
            bucket, sign = _reference_bucket_and_sign(token, self.dimension)
            vec[bucket] += sign * count
        if self.idf is not None:
            vec = vec * self.idf
        return (vec / float(np.linalg.norm(vec))).tobytes()


def _cancelling_pair(dimension: int) -> tuple[str, str]:
    """Two tokens that hash to one bucket with opposite signs."""
    seen: dict[int, tuple[str, float]] = {}
    for i in range(10_000):
        token = f"t{i}"
        bucket, sign = _reference_bucket_and_sign(token, dimension)
        if bucket in seen and seen[bucket][1] != sign:
            return seen[bucket][0], token
        seen.setdefault(bucket, (token, sign))
    raise AssertionError("no cancelling pair found")


def _embedding_texts(dimension: int) -> tuple[list[str], list[str]]:
    """(corpus to fit on, texts to embed): the bundled corpus, the fixture
    cases, and texts with repeated and cancelling tokens."""
    corpus = [chunk.body for chunk in ingest_corpus(builtin_corpus_dir()).chunks]
    cases = [path.read_text(encoding="utf-8") for path in sorted(FIXTURE_CASES.iterdir())]
    a, b = _cancelling_pair(dimension)
    edge = [
        "sum " * 40 + "reduction",
        f"{a} {b} {a} keep",  # one bucket cancels to zero, then gains one more a
        f"{a} {a} {b} {b} {b} other words",
        "for for for i i j #pragma omp parallel for",
    ]
    return corpus, corpus + cases + edge


@pytest.mark.parametrize("dimension", [512, 7])
def test_embeddings_bitwise_equal_the_per_token_loop(dimension):
    corpus, texts = _embedding_texts(dimension)
    for fitted in (False, True):
        ours, ref = HashedTfidfEmbedder(dimension), _ReferenceEmbedder(dimension)
        if fitted:
            ours.fit(corpus)
            ref.fit(corpus)
        assert ours.provider_tag == ref.provider_tag
        for text in texts:
            assert ours.embed(text).values.tobytes() == ref.embed_bytes(text)


def test_fully_cancelling_text_is_still_refused():
    a, b = _cancelling_pair(512)
    with pytest.raises(InvalidInputError, match="zero vector"):
        HashedTfidfEmbedder().embed(f"{a} {b}")


def test_concurrent_embeds_give_the_same_bytes():
    corpus, texts = _embedding_texts(512)
    embedder = HashedTfidfEmbedder().fit(corpus)
    expected = [embedder.embed(text).values.tobytes() for text in texts]
    _bucket_and_sign.cache_clear()  # the threads fill the memo while racing
    results: dict[int, list[bytes]] = {}

    def worker(n: int) -> None:
        got = [b""] * len(texts)
        for i in range(len(texts)):  # each thread starts at a different text
            j = (i + n) % len(texts)
            got[j] = embedder.embed(texts[j]).values.tobytes()
        results[n] = got

    threads = [threading.Thread(target=worker, args=(n,))
               for n in range(4 * len(os.sched_getaffinity(0)))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == len(threads)
    assert all(got == expected for got in results.values())


class TestRemoteEmbedder:
    def test_success_and_dimension_pinning(self, scripted_server):
        server = scripted_server(
            [
                (200, {"data": [{"embedding": [1.0, 2.0, 2.0]}]}),
                (200, {"data": [{"embedding": [0.0, 3.0, 4.0]}]}),
            ]
        )
        e = RemoteEmbedder(server.url, "embedder-x", api_key="k", backoff_base=0.01)
        v = e.embed("hello world")
        assert tuple(v.values) == (1.0 / 3, 2.0 / 3, 2.0 / 3)
        assert v.provider_tag == "remote:embedder-x"
        assert e.dimension == 3
        assert e.embed("more text").dimension == 3
        sent = server.requests_seen[0]
        assert sent["body"] == {"model": "embedder-x", "input": ["hello world"]}
        assert sent["headers"].get("Authorization") == "Bearer k"

    def test_auth_failure_carries_status(self, scripted_server):
        server = scripted_server([(401, {"error": "bad key"})])
        e = RemoteEmbedder(server.url, "m", backoff_base=0.01)
        with pytest.raises(ProviderError) as exc_info:
            e.embed("text")
        assert exc_info.value.status == 401

    def test_retries_transient_errors(self, scripted_server):
        server = scripted_server(
            [
                (500, {"error": "boom"}),
                (503, {"error": "again"}),
                (200, {"data": [{"embedding": [0.0, 1.0]}]}),
            ]
        )
        e = RemoteEmbedder(server.url, "m", backoff_base=0.01)
        assert tuple(e.embed("text").values) == (0.0, 1.0)
        assert len(server.requests_seen) == 3

    def test_exhausted_retries_raise(self, scripted_server):
        server = scripted_server([(500, {}), (500, {}), (500, {})])
        e = RemoteEmbedder(server.url, "m", attempts=3, backoff_base=0.01)
        with pytest.raises(ProviderError):
            e.embed("text")

    def test_dimension_change_rejected(self, scripted_server):
        server = scripted_server(
            [
                (200, {"data": [{"embedding": [1.0, 0.0]}]}),
                (200, {"data": [{"embedding": [1.0, 0.0, 0.0]}]}),
            ]
        )
        e = RemoteEmbedder(server.url, "m", backoff_base=0.01)
        e.embed("first")
        with pytest.raises(ProviderError):
            e.embed("second")

    def test_connection_error_becomes_provider_error(self):
        e = RemoteEmbedder(
            "http://127.0.0.1:1", "m", attempts=2, backoff_base=0.01, timeout=0.2
        )
        with pytest.raises(ProviderError):
            e.embed("text")
