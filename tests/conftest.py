"""Shared fixtures: hermetic mini pipeline, network guard, scripted HTTP."""

from __future__ import annotations

import json
import shutil
import socket
import sys
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

from omprag import validation
from omprag.config import load_config
from omprag.corpus import CorpusManifest, ingest_corpus
from omprag.embedding import HashedTfidfEmbedder
from omprag.generation import write_record
from omprag.index import VectorIndex, build_index
from omprag.prompt import build_prompt, default_template
from omprag.validation import CaseSpec, save_jsonl

FIXTURES = Path(__file__).parent / "fixtures"

GPP_AVAILABLE = shutil.which("g++") is not None

requires_compiler = pytest.mark.skipif(
    not GPP_AVAILABLE, reason="needs an OpenMP-capable g++ on PATH"
)


@pytest.fixture(autouse=True)
def build_store(monkeypatch):
    """A fresh compile build store for each test, so that a test counting
    compiler runs does not depend on which tests ran before it."""
    store = validation.BuildStore()
    monkeypatch.setattr(validation, "_store", store)
    yield store
    store.close()


# Stands in for a compiler: logs each run, answers --version from VERSION,
# runs before_read before it reads its source and on_header for a header
# build, fails on a source marked BROKEN, sleeps on one marked SLOW, and
# otherwise writes a shell script that prints one line.
_STAND_IN = """#!{python}
import os, sys, time
VERSION = {version!r}
if sys.argv[1:] == ["--version"]:
    {on_version}
src, out = sys.argv[-2:]
{before_read}
text = open(src).read()
with open({log!r}, "a") as fh:
    fh.write(" ".join(sys.argv[1:]) + "\\n")
if "c++-header" in sys.argv:
    {on_header}
if "SLOW" in text:
    time.sleep(60)
if "BROKEN" in text:
    sys.exit("case.cpp:1: error: broken")
with open(out, "w") as fh:
    fh.write("#!/bin/sh\\necho RESULT 1\\n")
os.chmod(out, 0o755)
"""


class StandIn:
    def __init__(self, directory: Path):
        self.path = directory / "stand_in_cc"
        self.log = directory / "stand_in_runs.log"
        self.write()

    def write(self, version: str = "stand-in 1.0",
              on_version: str = "print(VERSION); sys.exit(0)", on_header: str = "pass",
              before_read: str = "pass") -> None:
        self.path.write_text(_STAND_IN.format(
            python=sys.executable, version=version, on_version=on_version,
            on_header=on_header, before_read=before_read, log=str(self.log)))
        self.path.chmod(0o755)

    def cmd(self, flags: str = "") -> str:
        return f"{self.path} {flags} {{src}} {{bin}}"

    @property
    def runs(self) -> int:
        return len(self.lines)

    @property
    def lines(self) -> list[str]:
        return self.log.read_text().splitlines() if self.log.exists() else []


@pytest.fixture
def cc(tmp_path) -> StandIn:
    return StandIn(tmp_path)


@pytest.fixture
def no_network(monkeypatch):
    """Any socket creation inside the test fails loudly."""

    def guard(*args, **kwargs):
        raise AssertionError("network access attempted during a hermetic test")

    monkeypatch.setattr(socket, "socket", guard)
    monkeypatch.setattr(socket, "create_connection", guard)


class _ScriptedHandler(BaseHTTPRequestHandler):
    script: list[tuple[int, dict | bytes]] = []
    requests_seen: list[dict] = []

    def _serve(self):
        body = b""
        length = int(self.headers.get("Content-Length") or 0)
        if length:
            body = self.rfile.read(length)
        type(self).requests_seen.append(
            {
                "path": self.path,
                "headers": dict(self.headers),
                "body": json.loads(body) if body else None,
            }
        )
        if type(self).script:
            status, payload = type(self).script.pop(0)
        else:
            status, payload = 500, {"error": "script exhausted"}
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    do_GET = _serve
    do_POST = _serve

    def log_message(self, *args):
        pass


@dataclass
class ScriptedServer:
    url: str
    handler: type

    @property
    def requests_seen(self) -> list[dict]:
        return self.handler.requests_seen


@pytest.fixture
def scripted_server():
    """Local HTTP server returning a scripted sequence of JSON responses.

    A ``bytes`` payload is sent as it is, for a body that is not JSON."""
    servers = []

    def start(script: list[tuple[int, dict | bytes]]) -> ScriptedServer:
        handler = type(
            "Handler", (_ScriptedHandler,), {"script": list(script), "requests_seen": []}
        )
        server = HTTPServer(("127.0.0.1", 0), handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append((server, thread))
        return ScriptedServer(url=f"http://127.0.0.1:{server.server_port}", handler=handler)

    yield start
    for server, thread in servers:
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()


@dataclass
class MiniEnv:
    """A complete offline run environment over the five bundled cases."""

    corpus_manifest_path: Path
    index_path: Path
    case_manifest_path: Path
    replay_dirs: dict  # profile -> Path
    manifest: CorpusManifest
    embedder: HashedTfidfEmbedder
    index: VectorIndex
    cases: list
    template: str


def _reply_for(case_id: str) -> str:
    omp_source = (FIXTURES / "cases" / f"{case_id}_omp.cc").read_text(encoding="utf-8")
    return (
        "Here is the OpenMP-parallelized version of your program:\n\n"
        "```cpp\n" + omp_source + "```\n\n"
        "All loops with independent iterations carry a `parallel for` "
        "directive and accumulations use reduction clauses.\n"
    )


@pytest.fixture(scope="session")
def mini_env(tmp_path_factory) -> MiniEnv:
    base = tmp_path_factory.mktemp("mini_env")
    manifest = ingest_corpus(FIXTURES / "docs")
    corpus_manifest_path = base / "corpus.jsonl"
    manifest.save(corpus_manifest_path)

    embedder = HashedTfidfEmbedder().fit(chunk.body for chunk in manifest.chunks)
    index = build_index(manifest, embedder)
    index_path = base / "index.jsonl"
    index.save(index_path)

    cases = [
        CaseSpec(case_id=f"case{i}", serial_path=str(FIXTURES / "cases" / f"case{i}.cc"))
        for i in range(1, 6)
    ]
    case_manifest_path = base / "cases.jsonl"
    save_jsonl(cases, case_manifest_path)

    template = default_template()
    cfg = load_config()  # defaults: k=4
    replay_dirs = {}
    for profile in ("rag", "baseline"):
        replay_dir = base / f"replay_{profile}"
        replay_dir.mkdir()
        for case in cases:
            source = Path(case.serial_path).read_text(encoding="utf-8")
            hits = []
            if profile == "rag":
                hits = index.query_topk(embedder.embed(source), cfg.k)
            bundle = build_prompt(source, hits, manifest, template)
            write_record(replay_dir, case.case_id, bundle.rendered, _reply_for(case.case_id))
        replay_dirs[profile] = replay_dir

    return MiniEnv(
        corpus_manifest_path=corpus_manifest_path,
        index_path=index_path,
        case_manifest_path=case_manifest_path,
        replay_dirs=replay_dirs,
        manifest=manifest,
        embedder=embedder,
        index=index,
        cases=cases,
        template=template,
    )
