"""Text embedding providers and cosine similarity.

Two providers share one contract: a deterministic local lexical embedder
(feature-hashed TF-IDF, 512 dimensions, signed hashing) for offline and
test use, and a remote HTTP embedder speaking the common embeddings wire
format. Vectors from different providers live in different spaces and
must never be compared.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import math
import re
import threading
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ProviderError
from .retry import HttpClient

log = logging.getLogger(__name__)

LOCAL_DIMENSION = 512
NORM_TOLERANCE = 1e-6

_TOKEN_RE = re.compile(r"[a-z0-9_#]+")


def _read_only_buffer(values) -> bool:
    """Is ``values`` an array whose owning array holds its data read-only?"""
    if not isinstance(values, np.ndarray):
        return False
    owner = values
    while isinstance(owner.base, np.ndarray):
        owner = owner.base
    return owner.flags.owndata and not owner.flags.writeable


@dataclass(frozen=True, eq=False)  # a generated __eq__/__hash__ over an ndarray raises
class EmbeddingVector:
    """A unit vector: ``values`` is a read-only 1-D float64 array."""

    values: np.ndarray
    provider_tag: str

    def __post_init__(self):
        values = self.values
        # A view of a read-only buffer (a row of an index's array) is kept as
        # it is; anything else becomes a private copy the caller cannot mutate.
        if not _read_only_buffer(values):
            try:
                values = np.array(values)
            except ValueError as exc:  # a ragged component list
                raise InvalidInputError(f"vector components are not numbers: {exc}") from exc
        if values.dtype.kind not in "iuf":  # strings, None, bools and objects
            raise InvalidInputError(f"vector components are not numbers ({values.dtype})")
        values = values.astype(np.float64, copy=False)
        if values.ndim != 1:
            raise InvalidInputError(f"vector shape {values.shape} is not 1-D")
        if not np.isfinite(values).all():
            raise InvalidInputError("vector has non-finite components")
        norm = float(np.linalg.norm(values))
        if abs(norm - 1.0) > NORM_TOLERANCE:
            raise InvalidInputError(f"vector is not unit-normalized (L2 norm {norm})")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def dimension(self) -> int:
        return len(self.values)

    @classmethod
    def from_raw(cls, values, provider_tag: str) -> "EmbeddingVector":
        """Normalize raw components to unit L2 norm; the zero vector is forbidden."""
        vals = [float(v) for v in values]
        if not all(math.isfinite(v) for v in vals):
            raise InvalidInputError("raw vector has non-finite components")
        norm = math.hypot(*vals)  # squares of tiny components would underflow to 0
        if norm == 0.0:
            raise InvalidInputError("cannot normalize the all-zero vector")
        return cls(np.array(vals) / norm, provider_tag)


def cosine_similarity(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """Dot product of two unit vectors from the same provider space."""
    if a.dimension != b.dimension:
        raise InvalidInputError(f"dimension mismatch: {a.dimension} vs {b.dimension}")
    if a.provider_tag != b.provider_tag:
        raise InvalidInputError(
            f"vectors from different providers are not comparable: "
            f"{a.provider_tag!r} vs {b.provider_tag!r}"
        )
    return float(np.dot(a.values, b.values))


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


# Holds the vocabulary of a few thousand chunks: each entry takes about 280
# bytes with its token, so a full memo stays near 1 MB.
@functools.lru_cache(maxsize=4096)
def _bucket_and_sign(token: str, dimension: int) -> tuple[int, float]:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    bucket = int.from_bytes(digest[:4], "big") % dimension
    sign = 1.0 if digest[4] & 1 else -1.0
    return bucket, sign


class HashedTfidfEmbedder:
    """Deterministic local embedder: signed feature hashing with optional IDF.

    Unfitted, it produces plain hashed term-frequency vectors. Fitting on a
    corpus attaches smoothed inverse-document-frequency weights per bucket
    and folds a fingerprint of that state into the provider tag, so vectors
    from differently-fitted instances can never be mixed.
    """

    def __init__(self, dimension: int = LOCAL_DIMENSION):
        if dimension < 1:
            raise InvalidInputError("dimension must be positive")
        self.dimension = dimension
        self._idf: np.ndarray | None = None
        self._tag = f"local-tfidf-{dimension}"

    @property
    def provider_tag(self) -> str:
        return self._tag

    def fit(self, texts) -> "HashedTfidfEmbedder":
        docs = list(texts)
        if not docs:
            raise InvalidInputError("cannot fit IDF weights on an empty corpus")
        # Each document adds 1 to the document frequency of each bucket it hits.
        doc_buckets = []
        for doc in docs:
            tokens = set(tokenize(doc))
            doc_buckets.extend({_bucket_and_sign(t, self.dimension)[0] for t in tokens})
        df = np.bincount(doc_buckets, minlength=self.dimension).astype(np.float64)
        n = float(len(docs))
        self._idf = np.log((1.0 + n) / (1.0 + df)) + 1.0
        fingerprint = hashlib.sha256(self._idf.tobytes()).hexdigest()[:8]
        self._tag = f"local-tfidf-{self.dimension}:{fingerprint}"
        return self

    def embed(self, text: str) -> EmbeddingVector:
        if not text or not text.strip():
            raise InvalidInputError("cannot embed empty text")
        tokens = tokenize(text)
        if not tokens:
            raise InvalidInputError("text contains no embeddable tokens")
        counts = Counter(tokens)
        buckets, signs = zip(*(_bucket_and_sign(t, self.dimension) for t in counts))
        # The weights are small integers, so every bucket's sum is exact and
        # does not depend on the order the tokens are added in.
        vec = np.bincount(buckets, weights=np.multiply(signs, list(counts.values())),
                          minlength=self.dimension)
        if self._idf is not None:
            vec = vec * self._idf
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            raise InvalidInputError("text hashed to the zero vector (sign cancellation)")
        return EmbeddingVector(vec / norm, self._tag)


class RemoteEmbedder:
    """HTTP embedding provider: POST {model, input:[text]} -> {data:[{embedding}]}.

    The vector dimension is taken from the first successful response and
    enforced on every later call. In-flight requests are bounded and
    transient failures retry with exponential backoff.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: str | None = None,
        *,
        timeout: float = 30.0,
        attempts: int = 3,
        backoff_base: float = 0.5,
    ):
        self.model = model
        self.client = HttpClient(endpoint, api_key, timeout=timeout, attempts=attempts,
                                 backoff_base=backoff_base, name="embedding")
        self._lock = threading.Lock()
        self._dimension: int | None = None

    @property
    def provider_tag(self) -> str:
        return f"remote:{self.model}"

    @property
    def dimension(self) -> int | None:
        return self._dimension

    def embed(self, text: str) -> EmbeddingVector:
        if not text or not text.strip():
            raise InvalidInputError("cannot embed empty text")
        reply = self.client.post_json({"model": self.model, "input": [text]})
        try:
            raw = reply["data"][0]["embedding"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ProviderError(f"malformed embedding response: {exc}") from exc
        with self._lock:
            if self._dimension is None:
                self._dimension = len(raw)
                log.info("remote embedder dimension pinned to %d", self._dimension)
            elif len(raw) != self._dimension:
                raise ProviderError(
                    f"embedding dimension changed: expected {self._dimension}, got {len(raw)}"
                )
        return EmbeddingVector.from_raw(raw, self.provider_tag)
