"""Tutorial corpus ingestion: heading-aligned chunking and JSONL manifests.

Documents are split on markdown headings (levels 1-3); sections whose
whitespace-token count exceeds the budget are split further on blank-line
paragraph boundaries. The manifest is line-delimited JSON, one chunk per
line, preceded by a single metadata header line.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .errors import CorpusEmptyError, IntegrityError, InvalidInputError, ParseError

log = logging.getLogger(__name__)

DEFAULT_MAX_TOKENS = 400
MIN_MAX_TOKENS = 32

_HEADING_RE = re.compile(r"^(#{1,3})\s+(.*\S)\s*$")

_CHUNK_FIELDS = ("chunk_id", "source_doc", "heading_path", "body", "token_estimate")


def token_estimate(text: str) -> int:
    """Whitespace-token count; deterministic and model-agnostic."""
    return len(text.split())


@dataclass
class CorpusChunk:
    chunk_id: str
    source_doc: str
    heading_path: list[str]
    body: str
    token_estimate: int

    def validate(self) -> None:
        if not self.body.strip():
            raise InvalidInputError(f"chunk {self.chunk_id!r} has an empty body")
        if self.token_estimate != token_estimate(self.body):
            raise InvalidInputError(
                f"chunk {self.chunk_id!r}: token_estimate {self.token_estimate} "
                f"does not match body ({token_estimate(self.body)} tokens)"
            )

    def to_json(self) -> str:
        record = {name: getattr(self, name) for name in _CHUNK_FIELDS}
        return json.dumps(record, ensure_ascii=False)

    @classmethod
    def from_dict(cls, record: dict) -> "CorpusChunk":
        missing = [name for name in _CHUNK_FIELDS if name not in record]
        if missing:
            raise InvalidInputError(f"chunk record missing fields: {missing}")
        return cls(
            chunk_id=record["chunk_id"],
            source_doc=record["source_doc"],
            heading_path=list(record["heading_path"]),
            body=record["body"],
            token_estimate=int(record["token_estimate"]),
        )


@dataclass
class CorpusManifest:
    chunks: list[CorpusChunk] = field(default_factory=list)
    corpus_version: str = "1"
    created_at: str = ""
    _rows: dict[str, int] = field(default_factory=dict, init=False, repr=False, compare=False)

    def validate(self) -> None:
        seen: set[str] = set()
        for chunk in self.chunks:
            chunk.validate()
            if chunk.chunk_id in seen:
                raise IntegrityError(f"duplicate chunk_id {chunk.chunk_id!r} in manifest")
            seen.add(chunk.chunk_id)

    def chunk_by_id(self, chunk_id: str) -> CorpusChunk:
        # ``chunks`` is a public list that ``load`` and callers append to, so
        # a row found stale or missing rebuilds the map once before giving up.
        # Worker threads share a manifest: a rebuild fills its own dict and
        # publishes it in one assignment.
        rows = self._rows
        for rebuild in (False, True):
            if rebuild:
                rows = {}
                for row, chunk in enumerate(self.chunks):
                    rows.setdefault(chunk.chunk_id, row)
                self._rows = rows
            row = rows.get(chunk_id, len(self.chunks))
            if row < len(self.chunks) and self.chunks[row].chunk_id == chunk_id:
                return self.chunks[row]
        raise IntegrityError(f"chunk_id {chunk_id!r} not present in manifest")

    def save(self, path: Path | str) -> None:
        self.validate()
        path = Path(path)
        header = json.dumps(
            {"corpus_version": self.corpus_version, "created_at": self.created_at},
            ensure_ascii=False,
        )
        lines = [header] + [chunk.to_json() for chunk in self.chunks]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: Path | str) -> "CorpusManifest":
        path = Path(path)
        manifest = cls(chunks=[])
        first = True
        with path.open(encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: not JSON: {exc}") from exc
                if not isinstance(record, dict):
                    raise ParseError(f"{path}:{lineno}: not a JSON object")
                # Only the first record may be the header; any later one is a chunk.
                is_header = first and "chunk_id" not in record
                first = False
                if is_header:
                    manifest.corpus_version = str(record.get("corpus_version", "1"))
                    manifest.created_at = str(record.get("created_at", ""))
                    continue
                try:
                    manifest.chunks.append(CorpusChunk.from_dict(record))
                except InvalidInputError as exc:
                    raise InvalidInputError(f"{path}:{lineno}: {exc}") from exc
                except (TypeError, ValueError) as exc:  # a field of the wrong type
                    raise ParseError(f"{path}:{lineno}: bad chunk record: {exc}") from exc
        manifest.validate()
        return manifest


def _sections(text: str) -> list[tuple[list[str], list[str]]]:
    """Split document lines into (heading_path, body_lines) sections."""
    sections: list[tuple[list[str], list[str]]] = []
    stack: list[tuple[int, str]] = []
    current: list[str] = []

    def flush():
        nonlocal current
        if any(line.strip() for line in current):
            sections.append(([title for _, title in stack], current))
        current = []

    for line in text.splitlines():
        match = _HEADING_RE.match(line)
        if match:
            flush()
            level = len(match.group(1))
            stack = [(lvl, title) for lvl, title in stack if lvl < level]
            stack.append((level, match.group(2)))
        else:
            current.append(line)
    flush()
    return sections


def _paragraphs(lines: list[str]) -> list[str]:
    """Maximal runs of non-blank lines, each joined back with newlines."""
    paras: list[str] = []
    run: list[str] = []
    for line in lines:
        if line.strip():
            run.append(line)
        elif run:
            paras.append("\n".join(run))
            run = []
    if run:
        paras.append("\n".join(run))
    return paras


def chunk_document(
    text: str,
    max_tokens: int = DEFAULT_MAX_TOKENS,
    *,
    source_doc: str = "doc",
) -> list[CorpusChunk]:
    """Split one document into heading-aligned, budget-bounded chunks.

    A section that fits the token budget becomes one chunk. An oversized
    section is packed greedily from its paragraphs; a single paragraph
    larger than the budget becomes its own chunk.
    """
    if max_tokens < MIN_MAX_TOKENS:
        raise InvalidInputError(f"max_tokens must be >= {MIN_MAX_TOKENS}, got {max_tokens}")
    chunks: list[CorpusChunk] = []
    for heading_path, lines in _sections(text):
        packs: list[list[str]] = []
        pack: list[str] = []
        pack_tokens = 0
        for para in _paragraphs(lines):
            para_tokens = token_estimate(para)
            if pack and pack_tokens + para_tokens > max_tokens:
                packs.append(pack)
                pack, pack_tokens = [], 0
            pack.append(para)
            pack_tokens += para_tokens
            if pack_tokens > max_tokens:
                # single indivisible paragraph over budget: emit alone
                packs.append(pack)
                pack, pack_tokens = [], 0
        if pack:
            packs.append(pack)
        for pack in packs:
            body = "\n\n".join(pack)
            chunks.append(
                CorpusChunk(
                    chunk_id=f"{source_doc}#{len(chunks):04d}",
                    source_doc=source_doc,
                    heading_path=list(heading_path),
                    body=body,
                    token_estimate=token_estimate(body),
                )
            )
    return chunks


def ingest_corpus(
    root_path: Path | str,
    max_tokens: int = DEFAULT_MAX_TOKENS,
) -> CorpusManifest:
    """Ingest every .md/.txt document under root_path into a manifest.

    Unreadable files, files that are not UTF-8 and empty ones produce a
    warning and are skipped; the ingest fails only if no document can be
    read at all.
    """
    root = Path(root_path)
    if not root.is_dir():
        raise CorpusEmptyError(f"corpus root {root} is not a directory")
    paths = sorted(
        (p for p in root.rglob("*") if p.suffix.lower() in (".md", ".txt") and not p.is_dir()),
        key=lambda p: p.relative_to(root).as_posix(),
    )
    chunks: list[CorpusChunk] = []
    documents_read = 0
    for path in paths:
        rel = path.relative_to(root).as_posix()
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            log.warning("skipping unreadable corpus file %s: %s", rel, exc)
            continue
        if not text.strip():
            log.warning("skipping empty corpus file %s", rel)
            continue
        documents_read += 1
        chunks.extend(chunk_document(text, max_tokens, source_doc=rel))
    if documents_read == 0:
        raise CorpusEmptyError(f"no readable documents under {root}")
    manifest = CorpusManifest(
        chunks=chunks,
        created_at=datetime.now(timezone.utc).isoformat(),
    )
    manifest.validate()
    log.info("ingested %d documents into %d chunks", documents_read, len(chunks))
    return manifest
