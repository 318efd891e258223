"""Exact flat vector index over corpus chunks.

Every vector is one row of a single contiguous, read-only (N, D) float64
array, and each entry's ``vector.values`` is a read-only view of its row,
so the index holds each vector once. Top-k retrieval is exact. One pass
scores all N rows with NumPy's own single-threaded ``einsum`` loop, and
``np.partition`` finds the k-th score. The candidates within TIE_MARGIN of
it are re-scored with the canonical ``cosine_similarity`` and sorted by
descending score, ties on ascending chunk_id. So ids, ranks and scores are
bitwise those of scoring every entry with ``cosine_similarity``.

``save`` writes format 2: a JSON header line (format, provider_tag,
dimension, count), a JSON line listing the chunk ids in row order, then
the (count, dimension) little-endian float64 array as an ``.npy`` payload.
``load`` reads only that format.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import CorpusManifest
from .embedding import EmbeddingVector, cosine_similarity
from .errors import IntegrityError, InvalidInputError, ParseError, ProviderError

log = logging.getLogger(__name__)

DEFAULT_TOP_K = 4

# Far wider than the rounding gap between the einsum pass and np.dot (about
# 1e-13 at D = 512), so every entry of the true top-k gets re-scored.
TIE_MARGIN = 1e-9

FORMAT = 2


@dataclass(frozen=True)
class IndexEntry:
    chunk_id: str
    vector: EmbeddingVector


@dataclass(frozen=True)
class RetrievalHit:
    chunk_id: str
    score: float
    rank: int


def _check_vector(what: str, vector: EmbeddingVector, provider_tag: str, dimension: int):
    """Refuse a vector from another space; ``what`` names it ("query", "entry 'c001'")."""
    if vector.provider_tag != provider_tag:
        raise InvalidInputError(
            f"{what} has provider_tag {vector.provider_tag!r}, index expects {provider_tag!r}"
        )
    if vector.dimension != dimension:
        raise InvalidInputError(
            f"{what} has dimension {vector.dimension}, index expects {dimension}"
        )


class VectorIndex:
    """Immutable after construction; concurrent queries are safe."""

    def __init__(self, entries: list[IndexEntry], provider_tag: str, dimension: int):
        for entry in entries:
            _check_vector(f"entry {entry.chunk_id!r}", entry.vector, provider_tag, dimension)
        matrix = np.empty((len(entries), dimension))
        for row, entry in zip(matrix, entries):
            row[:] = entry.vector.values
        self._adopt([entry.chunk_id for entry in entries], matrix, provider_tag)

    @classmethod
    def _from_rows(cls, chunk_ids: list[str], matrix: np.ndarray, provider_tag: str):
        """An index over an already filled (N, D) array, without copying it."""
        index = cls.__new__(cls)
        index._adopt(chunk_ids, matrix, provider_tag)
        return index

    def _adopt(self, chunk_ids: list[str], matrix: np.ndarray, provider_tag: str) -> None:
        """Hold ``matrix`` read-only; each entry's vector is a view of its row."""
        seen: set[str] = set()
        for chunk_id in chunk_ids:
            if chunk_id in seen:
                raise IntegrityError(f"duplicate chunk_id {chunk_id!r} in index")
            seen.add(chunk_id)
        matrix.flags.writeable = False
        self._matrix = matrix
        self.provider_tag = provider_tag
        self.dimension = matrix.shape[1]
        self.entries = [
            IndexEntry(chunk_id, EmbeddingVector(row, provider_tag))
            for chunk_id, row in zip(chunk_ids, matrix)
        ]

    def __len__(self) -> int:
        return len(self.entries)

    def query_topk(self, query_vector: EmbeddingVector, k: int) -> list[RetrievalHit]:
        """Exact top-k by cosine score, ties broken by ascending chunk_id."""
        if k < 1:
            raise InvalidInputError(f"k must be >= 1, got {k}")
        _check_vector("query", query_vector, self.provider_tag, self.dimension)
        # einsum is NumPy's own loop: a BLAS product here would wake helper
        # threads that spin beside the pipeline's workers.
        scores = np.einsum("ij,j->i", self._matrix, query_vector.values)
        n = len(scores)
        candidates = range(n)
        if k < n:
            kth = np.partition(scores, n - k)[n - k]
            candidates = np.flatnonzero(scores >= kth - TIE_MARGIN)
        # Re-score through the one canonical cosine so rankings (and tie-breaks)
        # are bitwise-reproducible by any checker using the same scalar.
        scored = sorted(
            (
                (cosine_similarity(query_vector, self.entries[i].vector), self.entries[i].chunk_id)
                for i in candidates
            ),
            key=lambda pair: (-pair[0], pair[1]),
        )
        return [
            RetrievalHit(chunk_id, score, rank)
            for rank, (score, chunk_id) in enumerate(scored[:k], start=1)
        ]

    def save(self, path: Path | str) -> None:
        """Write the index in format 2 through a temporary file beside path.

        The file replaces path only once it is complete, so an interrupted
        save leaves whatever path held before.
        """
        path = Path(path)
        header = {
            "format": FORMAT,
            "provider_tag": self.provider_tag,
            "dimension": self.dimension,
            "count": len(self.entries),
        }
        chunk_ids = [entry.chunk_id for entry in self.entries]
        tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        try:
            with tmp.open("wb") as fh:
                fh.write(json.dumps(header).encode() + b"\n")
                fh.write(json.dumps(chunk_ids).encode() + b"\n")
                np.save(fh, self._matrix.astype("<f8", copy=False), allow_pickle=False)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    @classmethod
    def load(cls, path: Path | str) -> "VectorIndex":
        """Read an index written by ``save``.

        A malformed file raises ParseError or IntegrityError naming it, and
        a header count the file is too small to hold is refused before its
        rows are allocated.
        """
        path = Path(path)
        with path.open("rb") as fh:
            header_line = fh.readline()
            if not header_line.strip():
                raise InvalidInputError(f"index file {path} is empty")
            try:
                header = json.loads(header_line)
                fmt = header.get("format")
                provider_tag = header["provider_tag"]
                dimension = int(header["dimension"])
                count = int(header["count"])
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"{path}:1: bad index header: {exc!r}") from exc
            if fmt is None:
                raise ParseError(
                    f"{path}:1: an index in an older format; re-run `omprag index` to rebuild it"
                )
            if fmt != FORMAT:
                raise ParseError(f"{path}:1: unknown index format {fmt!r}")
            if count < 0 or dimension < 1:
                raise ParseError(
                    f"{path}:1: bad index header: count {count}, dimension {dimension}"
                )
            if 8 * count * dimension > path.stat().st_size:
                raise IntegrityError(f"index file {path}: header count {count} exceeds its size")
            chunk_ids, matrix = _read_npy_rows(fh, path, dimension, count)
        try:
            return cls._from_rows(chunk_ids, matrix, provider_tag)
        except (IntegrityError, InvalidInputError) as exc:  # a duplicate id or a bad row
            raise type(exc)(f"index file {path}: {exc}") from exc


def _read_npy_rows(fh, path: Path, dimension: int,
                   count: int) -> tuple[list[str], np.ndarray]:
    """Format 2: a JSON list of chunk ids, then the rows as an ``.npy`` payload.

    The payload's header is checked against the index header before the
    rows are allocated, and the rows are read straight into their array.
    The finite and unit-norm checks are ``EmbeddingVector``'s, when the
    index adopts the rows.
    """
    try:
        chunk_ids = json.loads(fh.readline())
    except ValueError as exc:
        raise ParseError(f"{path}:2: bad chunk id list: {exc!r}") from exc
    if not isinstance(chunk_ids, list) or not all(isinstance(c, str) for c in chunk_ids):
        raise ParseError(f"{path}:2: the chunk ids are not a list of strings")
    if len(chunk_ids) != count:
        raise IntegrityError(
            f"index file {path}: header count {count} != {len(chunk_ids)} chunk ids"
        )
    try:
        # np.save writes version 1.0 for any header as short as a 2-D array's.
        if np.lib.format.read_magic(fh) != (1, 0):
            raise ValueError("not an .npy version 1.0 header")
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
    except ValueError as exc:
        raise ParseError(f"index file {path}: bad .npy payload header: {exc}") from exc
    if dtype.hasobject:
        raise ParseError(f"index file {path}: refusing a pickled .npy payload")
    if dtype.str != "<f8" or fortran_order:
        raise ParseError(
            f"index file {path}: payload is {dtype.str} "
            f"{'Fortran' if fortran_order else 'C'}-ordered, expected <f8 C-ordered"
        )
    if shape != (count, dimension):
        raise IntegrityError(
            f"index file {path}: payload shape {shape} != header ({count}, {dimension})"
        )
    matrix = np.empty((count, dimension), dtype="<f8")
    if fh.readinto(matrix) != matrix.nbytes or fh.read(1):
        raise IntegrityError(f"index file {path}: payload is not {matrix.nbytes} bytes long")
    return chunk_ids, matrix


def build_index(manifest: CorpusManifest, provider) -> VectorIndex:
    """Embed every chunk in the manifest into a fresh index.

    A provider failure aborts the build and names the offending chunk.
    """
    manifest.validate()
    if not manifest.chunks:
        raise InvalidInputError("cannot build an index from an empty manifest")
    matrix = None
    for row, chunk in enumerate(manifest.chunks):
        try:
            vector = provider.embed(chunk.body)
        except (ProviderError, InvalidInputError) as exc:
            raise ProviderError(
                f"embedding failed for chunk {chunk.chunk_id!r}: {exc}",
                status=getattr(exc, "status", None),
            ) from exc
        if matrix is None:
            matrix = np.empty((len(manifest.chunks), vector.dimension))
        _check_vector(f"entry {chunk.chunk_id!r}", vector, provider.provider_tag, matrix.shape[1])
        matrix[row] = vector.values
    chunk_ids = [chunk.chunk_id for chunk in manifest.chunks]
    index = VectorIndex._from_rows(chunk_ids, matrix, provider.provider_tag)
    log.info("built index of %d entries (provider %s)", len(index), index.provider_tag)
    return index
