from __future__ import annotations

import math

import numpy as np
import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from omprag.embedding import (
    EmbeddingVector,
    HashedTfidfEmbedder,
    RemoteEmbedder,
    cosine_similarity,
)
from omprag.errors import InvalidInputError, ProviderError


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
            EmbeddingVector((float("inf"), 0.0), 2, "t")

    def test_length_must_match_dimension(self):
        with pytest.raises(InvalidInputError):
            EmbeddingVector((1.0, 0.0), 3, "t")

    def test_unnormalized_construction_rejected(self):
        with pytest.raises(InvalidInputError):
            EmbeddingVector((3.0, 4.0), 2, "t")

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
        v = EmbeddingVector(source, 2, "t")
        source[0] = 0.8
        source[1] = 0.6
        assert tuple(v.values) == (0.6, 0.8)
        assert source.flags.writeable

    @pytest.mark.parametrize(
        "values", [["x", 1.0], [None, 1.0], ["0.6", "0.8"], [[0.6, 0.8]], [[1.0], [0.0, 1.0]]]
    )
    def test_non_numeric_or_nested_components_rejected(self, values):
        with pytest.raises(InvalidInputError):
            EmbeddingVector(values, 2, "t")


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
