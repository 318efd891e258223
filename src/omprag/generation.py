"""Chat-completion client: live HTTP backend plus record/replay store.

Replay records are keyed by (case_id, SHA-256 of the rendered prompt), so
a replayed run is hermetic and any unintended prompt drift surfaces as a
loud replay miss instead of a silently stale reply.
"""

from __future__ import annotations

import hashlib
import json
import logging
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import InvalidInputError, ProviderError, ReplayMissError
from .retry import MAX_IN_FLIGHT, post_with_retry

if TYPE_CHECKING:
    import requests

log = logging.getLogger(__name__)

DEFAULT_TEMPERATURE = 0.2
DEFAULT_TIMEOUT = 120.0
_CODE_LABELS = ("cpp", "c++", "c")


@dataclass
class GenerationRequest:
    model_name: str
    prompt: str
    case_id: str
    temperature: float = DEFAULT_TEMPERATURE


@dataclass
class GenerationOutcome:
    case_id: str
    raw_reply: str
    extracted_code: str | None
    provider_latency: float
    provider: str


def prompt_sha256(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def _fenced_blocks(raw_reply: str) -> list[tuple[str, str]]:
    """All (label, interior) fenced blocks; an unterminated fence runs to EOF."""
    blocks: list[tuple[str, str]] = []
    lines = raw_reply.split("\n")
    label: str | None = None
    interior: list[str] = []
    for line in lines:
        stripped = line.strip()
        if label is None:
            if stripped.startswith("```"):
                label = stripped[3:].strip().lower()
                interior = []
        elif stripped == "```":
            blocks.append((label, "\n".join(interior)))
            label = None
        else:
            interior.append(line)
    if label is not None:
        blocks.append((label, "\n".join(interior)))
    return blocks


def extract_code(raw_reply: str) -> str | None:
    """First C/C++-labeled fenced block, else the longest fenced block.

    Returns None when the reply has no fenced block or only empty ones.
    """
    blocks = _fenced_blocks(raw_reply)
    for label, interior in blocks:
        if label in _CODE_LABELS and interior.strip():
            return interior
    candidates = [interior for _, interior in blocks if interior.strip()]
    if not candidates:
        return None
    return max(candidates, key=len)


def generate(request: GenerationRequest, provider) -> GenerationOutcome:
    """Run one generation attempt and extract the reply's code block."""
    if not request.prompt or not request.prompt.strip():
        raise InvalidInputError("generation prompt must be non-empty")
    start = time.perf_counter()
    raw_reply = provider.complete(request)
    latency = time.perf_counter() - start
    return GenerationOutcome(
        case_id=request.case_id,
        raw_reply=raw_reply,
        extracted_code=extract_code(raw_reply),
        provider_latency=latency,
        provider=provider.name,
    )


class ChatHttpProvider:
    """Chat-completions wire format over HTTP.

    The whole rendered prompt goes into a single user message; no system
    message is sent. Retries follow ``retry.post_with_retry``.
    """

    def __init__(
        self,
        endpoint: str,
        api_key: str | None = None,
        *,
        attempts: int = 3,
        backoff_base: float = 1.0,
        session: requests.Session | None = None,
    ):
        self.endpoint = endpoint
        self.api_key = api_key
        self.attempts = attempts
        self.backoff_base = backoff_base
        import requests  # deferred, so a process that makes no HTTP call never loads it

        self._session = session or requests.Session()
        self._slots = threading.Semaphore(MAX_IN_FLIGHT)

    @property
    def name(self) -> str:
        return "http"

    def complete(self, request: GenerationRequest) -> str:
        payload = {
            "model": request.model_name,
            "temperature": request.temperature,
            "messages": [{"role": "user", "content": request.prompt}],
        }
        response = post_with_retry(
            self._session,
            self._slots,
            self.endpoint,
            payload,
            api_key=self.api_key,
            timeout=DEFAULT_TIMEOUT,
            attempts=self.attempts,
            backoff_base=self.backoff_base,
            what="chat",
        )
        try:
            return response.json()["choices"][0]["message"]["content"]
        except (KeyError, IndexError, ValueError) as exc:
            raise ProviderError(f"malformed chat response: {exc}") from exc


def record_path(replay_dir: Path | str, case_id: str) -> Path:
    return Path(replay_dir) / f"{case_id}.json"


def write_record(replay_dir: Path | str, case_id: str, prompt: str, raw_reply: str) -> Path:
    path = record_path(replay_dir, case_id)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(
            {
                "case_id": case_id,
                "prompt_sha256": prompt_sha256(prompt),
                "raw_reply": raw_reply,
            },
            ensure_ascii=False,
        ),
        encoding="utf-8",
    )
    return path


class ReplayProvider:
    """Serves recorded replies; performs no network operations at all."""

    def __init__(self, replay_dir: Path | str):
        self.replay_dir = Path(replay_dir)

    @property
    def name(self) -> str:
        return "replay"

    def complete(self, request: GenerationRequest) -> str:
        path = record_path(self.replay_dir, request.case_id)
        if not path.is_file():
            raise ReplayMissError(
                f"no recorded reply for case {request.case_id!r} under {self.replay_dir}",
                case_id=request.case_id,
            )
        record = json.loads(path.read_text(encoding="utf-8"))
        expected = prompt_sha256(request.prompt)
        if record.get("prompt_sha256") != expected:
            raise ReplayMissError(
                f"recorded prompt hash for case {request.case_id!r} does not match the "
                f"rendered prompt (recorded {record.get('prompt_sha256')!r}, "
                f"computed {expected!r}); the prompt has drifted since recording",
                case_id=request.case_id,
            )
        return record["raw_reply"]


class RecordingProvider:
    """Wraps a live provider and persists each reply for later replay."""

    def __init__(self, inner, replay_dir: Path | str):
        self.inner = inner
        self.replay_dir = Path(replay_dir)

    @property
    def name(self) -> str:
        return f"recording({self.inner.name})"

    def complete(self, request: GenerationRequest) -> str:
        raw_reply = self.inner.complete(request)
        write_record(self.replay_dir, request.case_id, request.prompt, raw_reply)
        return raw_reply
