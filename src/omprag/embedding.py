"""Text embedding providers and cosine similarity.

Two providers share one contract: a deterministic local lexical embedder
(feature-hashed TF-IDF, 512 dimensions, signed hashing) for offline and
test use, and a remote HTTP embedder speaking the common embeddings wire
format. Vectors from different providers live in different spaces and
must never be compared.
"""

from __future__ import annotations

import hashlib
import logging
import math
import re
import threading
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidInputError, ProviderError
from .retry import MAX_IN_FLIGHT, post_with_retry

if TYPE_CHECKING:
    import requests

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
    dimension: int
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
        if values.shape != (self.dimension,):
            raise InvalidInputError(f"vector shape {values.shape} != ({self.dimension},)")
        if not np.isfinite(values).all():
            raise InvalidInputError("vector has non-finite components")
        norm = float(np.linalg.norm(values))
        if abs(norm - 1.0) > NORM_TOLERANCE:
            raise InvalidInputError(f"vector is not unit-normalized (L2 norm {norm})")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def from_raw(cls, values, provider_tag: str) -> "EmbeddingVector":
        """Normalize raw components to unit L2 norm; the zero vector is forbidden."""
        vals = [float(v) for v in values]
        if not all(math.isfinite(v) for v in vals):
            raise InvalidInputError("raw vector has non-finite components")
        norm = math.hypot(*vals)  # squares of tiny components would underflow to 0
        if norm == 0.0:
            raise InvalidInputError("cannot normalize the all-zero vector")
        return cls(np.array(vals) / norm, len(vals), provider_tag)


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
        df = np.zeros(self.dimension)
        for doc in docs:
            buckets = {_bucket_and_sign(t, self.dimension)[0] for t in tokenize(doc)}
            for b in buckets:
                df[b] += 1.0
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
        vec = np.zeros(self.dimension)
        for token, count in Counter(tokens).items():
            bucket, sign = _bucket_and_sign(token, self.dimension)
            vec[bucket] += sign * count
        if self._idf is not None:
            vec = vec * self._idf
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            raise InvalidInputError("text hashed to the zero vector (sign cancellation)")
        return EmbeddingVector(vec / norm, self.dimension, self._tag)


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
        session: requests.Session | None = None,
    ):
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key
        self.timeout = timeout
        self.attempts = attempts
        self.backoff_base = backoff_base
        import requests  # deferred, so a process that makes no HTTP call never loads it

        self._session = session or requests.Session()
        self._slots = threading.Semaphore(MAX_IN_FLIGHT)
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
        response = post_with_retry(
            self._session,
            self._slots,
            self.endpoint,
            {"model": self.model, "input": [text]},
            api_key=self.api_key,
            timeout=self.timeout,
            attempts=self.attempts,
            backoff_base=self.backoff_base,
            what="embedding",
        )
        return self._parse(response)

    def _parse(self, response: requests.Response) -> EmbeddingVector:
        try:
            raw = response.json()["data"][0]["embedding"]
        except (KeyError, IndexError, ValueError) as exc:
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
