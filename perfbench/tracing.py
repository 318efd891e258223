"""Span tracing around omprag's public functions, from outside the program.

``Tracer.install`` replaces each traced function on the object its callers
look it up on (a module global or a class attribute) with a wrapper that
records a span: name, start, end, parent span and case id. Spans stay in
memory until ``write`` saves them. ``layer_metrics`` turns them into the
per-layer figures; a traced function that saw no calls reads 0 and logs a
warning, so a change that skips a call does not break the run.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import sys
import threading
import time
from pathlib import Path

from omprag import bench, corpus, embedding, harvest, index, pipeline
from omprag.validation import DEFAULT_COMPILE_CMD

LAYERS = ("corpus", "embedding", "index", "prompt", "generation", "validation",
          "harvest", "pipeline", "bench")


def _case_of(args) -> str | None:
    for arg in args:
        case_id = getattr(arg, "case_id", None) or getattr(arg, "origin_url", None)
        if isinstance(case_id, str):
            return case_id
    return None


def _compile_key(args, kwargs, result) -> dict:
    source = args[0] if args else kwargs["source"]
    key = "\0".join([source.rstrip(), str(kwargs.get("openmp", True)),
                     kwargs.get("compile_cmd", DEFAULT_COMPILE_CMD)])
    return {"key": hashlib.sha256(key.encode()).hexdigest()[:16], "ok": bool(result.ok)}


def _targets():
    """(owner, attribute, span name, result-info function) for every traced call."""
    def count(result) -> dict:
        return {"count": len(result.chunks if hasattr(result, "chunks") else result)}

    return [
        (corpus, "ingest_corpus", "corpus.ingest_corpus", lambda a, k, r: count(r)),
        (corpus.CorpusManifest, "load", "corpus.CorpusManifest.load", None),
        (embedding.HashedTfidfEmbedder, "fit", "embedding.HashedTfidfEmbedder.fit", None),
        (embedding.HashedTfidfEmbedder, "embed", "embedding.HashedTfidfEmbedder.embed", None),
        (index, "build_index", "index.build_index", None),
        (index.VectorIndex, "save", "index.VectorIndex.save", None),
        (index.VectorIndex, "load", "index.VectorIndex.load", lambda a, k, r: count(r.entries)),
        (index.VectorIndex, "query_topk", "index.VectorIndex.query_topk", None),
        (pipeline, "build_prompt", "prompt.build_prompt",
         lambda a, k, r: {"tokens": r.token_estimate}),
        (pipeline, "generate", "generation.generate",
         lambda a, k, r: {"no_code": r.extracted_code is None}),
        (pipeline, "compile_gate", "validation.compile_gate", _compile_key),
        (harvest, "compile_gate", "validation.compile_gate", _compile_key),
        (pipeline, "classify_failure", "validation.classify_failure", None),
        (pipeline, "differential_validate", "validation.differential_validate", None),
        (harvest, "fetch_candidates", "harvest.fetch_candidates", lambda a, k, r: count(r)),
        (harvest, "clean_and_filter", "harvest.clean_and_filter", None),
        (harvest, "compile_filter", "harvest.compile_filter",
         lambda a, k, r: {"ok": r.rejection_reason is None}),
        (pipeline, "transform_cases", "pipeline.transform_cases", None),
        (pipeline, "validate_cases", "pipeline.validate_cases", None),
        (pipeline, "transform_case", "pipeline.transform_case", None),
        (pipeline, "validate_case", "pipeline.validate_case", None),
        (bench, "run_sweep", "bench.run_sweep", None),
    ]


class Tracer:
    """Records spans while ``active``; must be created on the main thread."""

    def __init__(self):
        self.spans: list[dict] = []
        self.active = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[dict] = []
        self._local.stack = self._main_stack
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, info):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            # A pool worker's first span hangs off the main thread's open span.
            parent = stack[-1] if stack else (
                tracer._main_stack[-1] if tracer._main_stack else None)
            span = {
                "id": next(tracer._ids),
                "name": name,
                "parent": parent["id"] if parent else None,
                "case": _case_of(args) or (parent["case"] if parent else None),
                "thread": threading.get_ident(),
                "start": time.perf_counter(),
            }
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if info is not None:
                span.update(info(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, info in _targets():
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, info))
            else:
                wrapped = self._wrap(raw, name, info)
            setattr(owner, attr, wrapped)
            self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the part of it that child spans cover."""
        children: dict[int, list[dict]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(span)
        result = {}
        for span in self.spans:
            covered = 0.0
            cursor = span["start"]
            for child in sorted(children.get(span["id"], ()), key=lambda s: s["start"]):
                lo, hi = max(child["start"], cursor), min(child["end"], span["end"])
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result[span["id"]] = span["end"] - span["start"] - covered
        return result

    def write(self, path: Path, origin: float) -> None:
        selfs = self.self_times()
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                record = dict(span, start=span["start"] - origin, end=span["end"] - origin,
                              self_s=selfs[span["id"]])
                fh.write(json.dumps(record) + "\n")


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tracer: Tracer, *, workers: int, child_cpu_s: float) -> dict:
    """Per-layer metrics from the recorded spans: name -> (value, unit)."""
    by_name: dict[str, list[dict]] = {}
    for span in tracer.spans:
        by_name.setdefault(span["name"], []).append(span)
    selfs = tracer.self_times()

    for name in sorted({target[2] for target in _targets()} - set(by_name)):
        print(f"perfbench: warning: no calls to {name} were traced; its metrics read 0",
              file=sys.stderr)

    def spans(name: str) -> list[dict]:
        return by_name.get(name, [])

    def durations(name: str) -> list[float]:
        return [s["end"] - s["start"] for s in spans(name)]

    def total(name: str) -> float:
        return sum(durations(name))

    def p(name: str, q: float, scale: float) -> float:
        values = durations(name)
        return _quantile(values, q) * scale if values else 0.0

    def last(name: str, field: str) -> float:
        found = spans(name)
        return found[-1][field] if found else 0

    compiles = spans("validation.compile_gate")
    tokens = [s["tokens"] for s in spans("prompt.build_prompt")]
    stage_wall = total("pipeline.transform_cases") + total("pipeline.validate_cases")
    case_busy = total("pipeline.transform_case") + total("pipeline.validate_case")
    out = {
        "corpus.ingest_s": (total("corpus.ingest_corpus"), "s"),
        "corpus.chunks": (last("corpus.ingest_corpus", "count"), "count"),
        "corpus.manifest_load_s": (total("corpus.CorpusManifest.load"), "s"),
        "embedding.fit_s": (total("embedding.HashedTfidfEmbedder.fit"), "s"),
        "embedding.embed_calls": (len(spans("embedding.HashedTfidfEmbedder.embed")), "count"),
        "embedding.embed_p50_us": (p("embedding.HashedTfidfEmbedder.embed", 0.5, 1e6), "us"),
        "embedding.embed_busy_s": (total("embedding.HashedTfidfEmbedder.embed"), "s"),
        "index.build_s": (total("index.build_index"), "s"),
        "index.save_s": (total("index.VectorIndex.save"), "s"),
        "index.load_s": (total("index.VectorIndex.load"), "s"),
        "index.entries": (last("index.VectorIndex.load", "count"), "count"),
        "index.query_calls": (len(spans("index.VectorIndex.query_topk")), "count"),
        "index.query_p50_ms": (p("index.VectorIndex.query_topk", 0.5, 1e3), "ms"),
        "index.query_p90_ms": (p("index.VectorIndex.query_topk", 0.9, 1e3), "ms"),
        "index.query_busy_s": (total("index.VectorIndex.query_topk"), "s"),
        "prompt.build_calls": (len(tokens), "count"),
        "prompt.build_p50_us": (p("prompt.build_prompt", 0.5, 1e6), "us"),
        "prompt.busy_s": (total("prompt.build_prompt"), "s"),
        "prompt.tokens_p50": (_quantile(tokens, 0.5) if tokens else 0, "tokens"),
        "generation.calls": (len(spans("generation.generate")), "count"),
        "generation.generate_p50_ms": (p("generation.generate", 0.5, 1e3), "ms"),
        "generation.busy_s": (total("generation.generate"), "s"),
        "generation.no_code_replies": (
            sum(1 for s in spans("generation.generate") if s["no_code"]), "count"),
        "validation.compile_calls": (len(compiles), "count"),
        "validation.compile_p50_s": (p("validation.compile_gate", 0.5, 1.0), "s"),
        "validation.compile_busy_s": (total("validation.compile_gate"), "s"),
        "validation.compile_failed": (sum(1 for s in compiles if not s["ok"]), "count"),
        "validation.distinct_compile_ratio": (
            len({s["key"] for s in compiles}) / len(compiles) if compiles else 0.0, "ratio"),
        "validation.classify_calls": (len(spans("validation.classify_failure")), "count"),
        "validation.classify_p50_us": (p("validation.classify_failure", 0.5, 1e6), "us"),
        "validation.diff_calls": (len(spans("validation.differential_validate")), "count"),
        "validation.diff_p50_s": (p("validation.differential_validate", 0.5, 1.0), "s"),
        "validation.diff_busy_s": (total("validation.differential_validate"), "s"),
        "validation.child_cpu_s": (child_cpu_s, "s"),
        "harvest.fetch_s": (total("harvest.fetch_candidates"), "s"),
        "harvest.candidates": (
            sum(s["count"] for s in spans("harvest.fetch_candidates")), "count"),
        "harvest.clean_calls": (len(spans("harvest.clean_and_filter")), "count"),
        "harvest.clean_p50_us": (p("harvest.clean_and_filter", 0.5, 1e6), "us"),
        "harvest.survivors": (sum(1 for s in spans("harvest.compile_filter") if s["ok"]),
                              "count"),
        "harvest.compile_filter_calls": (len(spans("harvest.compile_filter")), "count"),
        "harvest.compile_filter_busy_s": (total("harvest.compile_filter"), "s"),
        "pipeline.transform_s": (total("pipeline.transform_cases"), "s"),
        "pipeline.validate_s": (total("pipeline.validate_cases"), "s"),
        "pipeline.worker_busy_ratio": (
            case_busy / (workers * stage_wall) if stage_wall else 0.0, "ratio"),
        "bench.sweep_calls": (len(spans("bench.run_sweep")), "count"),
        "bench.sweep_busy_s": (total("bench.run_sweep"), "s"),
    }
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for span in tracer.spans:
        layer_self[span["name"].split(".", 1)[0]] += selfs[span["id"]]
    for layer, seconds in layer_self.items():
        out[f"{layer}.self_s"] = (seconds, "s")
    return out
