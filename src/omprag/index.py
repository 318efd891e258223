"""Exact flat vector index over corpus chunks.

The corpus is small (hundreds of chunks), so top-k retrieval is an exact
full scan: every query scores every entry and sorts. Ties break on
ascending chunk_id for determinism. The on-disk format is one JSON header
line (provider_tag, dimension, count) followed by one entry per line.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path

from .corpus import CorpusManifest
from .embedding import EmbeddingVector, cosine_similarity
from .errors import IntegrityError, InvalidInputError, ProviderError

log = logging.getLogger(__name__)

DEFAULT_TOP_K = 4


@dataclass(frozen=True)
class IndexEntry:
    chunk_id: str
    vector: EmbeddingVector


@dataclass(frozen=True)
class RetrievalHit:
    chunk_id: str
    score: float
    rank: int


class VectorIndex:
    """Immutable after construction; concurrent queries are safe."""

    def __init__(self, entries: list[IndexEntry], provider_tag: str, dimension: int):
        seen: set[str] = set()
        for entry in entries:
            if entry.chunk_id in seen:
                raise IntegrityError(f"duplicate chunk_id {entry.chunk_id!r} in index")
            seen.add(entry.chunk_id)
            if entry.vector.provider_tag != provider_tag:
                raise InvalidInputError(
                    f"entry {entry.chunk_id!r} has provider_tag "
                    f"{entry.vector.provider_tag!r}, index expects {provider_tag!r}"
                )
            if entry.vector.dimension != dimension:
                raise InvalidInputError(
                    f"entry {entry.chunk_id!r} has dimension "
                    f"{entry.vector.dimension}, index expects {dimension}"
                )
        self.entries = list(entries)
        self.provider_tag = provider_tag
        self.dimension = dimension

    def __len__(self) -> int:
        return len(self.entries)

    def query_topk(self, query_vector: EmbeddingVector, k: int) -> list[RetrievalHit]:
        """Exact top-k by cosine score, ties broken by ascending chunk_id."""
        if k < 1:
            raise InvalidInputError(f"k must be >= 1, got {k}")
        if query_vector.provider_tag != self.provider_tag:
            raise InvalidInputError(
                f"query provider_tag {query_vector.provider_tag!r} does not match "
                f"index provider_tag {self.provider_tag!r}"
            )
        if query_vector.dimension != self.dimension:
            raise InvalidInputError(
                f"query dimension {query_vector.dimension} != index dimension {self.dimension}"
            )
        # Score through the one canonical cosine so rankings (and tie-breaks)
        # are bitwise-reproducible by any checker using the same scalar.
        scores = [cosine_similarity(query_vector, e.vector) for e in self.entries]
        order = sorted(
            range(len(self.entries)),
            key=lambda i: (-scores[i], self.entries[i].chunk_id),
        )
        return [
            RetrievalHit(self.entries[i].chunk_id, scores[i], rank)
            for rank, i in enumerate(order[:k], start=1)
        ]

    def save(self, path: Path | str) -> None:
        path = Path(path)
        header = json.dumps(
            {
                "provider_tag": self.provider_tag,
                "dimension": self.dimension,
                "count": len(self.entries),
            }
        )
        lines = [header]
        for entry in self.entries:
            lines.append(
                json.dumps({"chunk_id": entry.chunk_id, "vector": list(entry.vector.values)})
            )
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: Path | str) -> "VectorIndex":
        path = Path(path)
        with path.open(encoding="utf-8") as fh:
            header_line = fh.readline()
            if not header_line.strip():
                raise InvalidInputError(f"index file {path} is empty")
            header = json.loads(header_line)
            provider_tag = header["provider_tag"]
            dimension = int(header["dimension"])
            entries = []
            for line in fh:
                if not line.strip():
                    continue
                record = json.loads(line)
                entries.append(
                    IndexEntry(
                        chunk_id=record["chunk_id"],
                        vector=EmbeddingVector(
                            tuple(record["vector"]), dimension, provider_tag
                        ),
                    )
                )
        if len(entries) != int(header["count"]):
            raise IntegrityError(
                f"index file {path}: header count {header['count']} != {len(entries)} entries"
            )
        return cls(entries, provider_tag, dimension)


def build_index(manifest: CorpusManifest, provider) -> VectorIndex:
    """Embed every chunk in the manifest into a fresh index.

    A provider failure aborts the build and names the offending chunk.
    """
    manifest.validate()
    if not manifest.chunks:
        raise InvalidInputError("cannot build an index from an empty manifest")
    entries: list[IndexEntry] = []
    for chunk in manifest.chunks:
        try:
            vector = provider.embed(chunk.body)
        except (ProviderError, InvalidInputError) as exc:
            raise ProviderError(
                f"embedding failed for chunk {chunk.chunk_id!r}: {exc}",
                status=getattr(exc, "status", None),
            ) from exc
        entries.append(IndexEntry(chunk.chunk_id, vector))
    index = VectorIndex(entries, provider.provider_tag, entries[0].vector.dimension)
    log.info("built index of %d entries (provider %s)", len(index), index.provider_tag)
    return index
