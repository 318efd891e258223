"""Experiment orchestration: retrieve, prompt, generate, gate, validate.

The pipeline runs per case and writes every intermediate artifact under a
documented layout, so the same results are reachable either end-to-end or
stage by stage through the CLI:

    out_dir/cases/<case_id>/prompt.txt      rendered prompt
    out_dir/cases/<case_id>/reply.txt       raw model reply
    out_dir/cases/<case_id>/generated.cpp   extracted code (when present)
    out_dir/cases/<case_id>/transform_error.txt  generation-stage failure
    out_dir/reports.jsonl                   one ValidationReport per case
    out_dir/summary.json / summary.txt      aggregate counts and rates

Per-case failures are recorded as data; only environment problems abort.
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .config import PROFILE_RAG, PipelineConfig
from .corpus import CorpusManifest
from .errors import InvalidInputError, ProviderError, ReplayMissError, UsageError
from .generation import GenerationRequest, generate
from .index import VectorIndex
from .prompt import build_prompt
from .tables import render_table
from .validation import (
    CaseSpec,
    ValidationReport,
    classify_failure,
    compile_gate,
    differential_validate,
    save_jsonl,
)

log = logging.getLogger(__name__)


@dataclass
class RunSummary:
    total_cases: int
    compile_success: int
    fixable_failures: int
    excluded_unparallelizable: int
    effective_success_rate: float | None

    def __post_init__(self):
        parts = self.compile_success + self.fixable_failures + self.excluded_unparallelizable
        if parts != self.total_cases:
            raise InvalidInputError(
                f"summary counts {parts} do not add up to total {self.total_cases}"
            )

    def to_dict(self) -> dict:
        return {
            "total_cases": self.total_cases,
            "compile_success": self.compile_success,
            "fixable_failures": self.fixable_failures,
            "excluded_unparallelizable": self.excluded_unparallelizable,
            "effective_success_rate": self.effective_success_rate,
        }


def summarize(reports: list[ValidationReport]) -> RunSummary:
    total = len(reports)
    excluded = sum(1 for r in reports if r.excluded_unparallelizable)
    success = sum(1 for r in reports if not r.excluded_unparallelizable and r.compile_ok)
    fixable = total - excluded - success
    denominator = total - excluded
    rate = success / denominator if denominator > 0 else None
    return RunSummary(total, success, fixable, excluded, rate)


@dataclass
class PipelineDeps:
    """Live collaborators resolved from config by the CLI (or by tests)."""
    provider: object
    template: str
    corpus_manifest: CorpusManifest | None = None
    index: VectorIndex | None = None
    embedder: object | None = None


def _case_dir(out_dir: Path, case_id: str) -> Path:
    return out_dir / "cases" / case_id


def _transform_failed(case_dir: Path, case_id: str, message: str) -> None:
    """Record a per-case transform failure; validate_case reports it."""
    (case_dir / "transform_error.txt").write_text(message + "\n", encoding="utf-8")
    log.warning("transform of %s failed: %s", case_id, message)


def transform_case(case: CaseSpec, cfg: PipelineConfig, deps: PipelineDeps, out_dir: Path) -> None:
    """Retrieve + prompt + generate + extract for one case; artifacts only."""
    case_dir = _case_dir(out_dir, case.case_id)
    case_dir.mkdir(parents=True, exist_ok=True)
    # validate_case judges whichever outcome files exist, so an earlier run's
    # must not outlive this one.
    for name in ("transform_error.txt", "reply.txt", "generated.cpp"):
        (case_dir / name).unlink(missing_ok=True)
    try:
        source = Path(case.serial_path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return _transform_failed(case_dir, case.case_id, f"cannot read serial source: {exc}")
    if not source.strip():
        return _transform_failed(case_dir, case.case_id, "serial source is empty")

    hits = []
    if cfg.profile == PROFILE_RAG:
        if deps.index is None or deps.embedder is None or deps.corpus_manifest is None:
            raise UsageError("rag profile needs a corpus manifest, an index, and an embedder")
        try:
            query = deps.embedder.embed(source)
        except (InvalidInputError, ProviderError) as exc:
            return _transform_failed(case_dir, case.case_id,
                                     f"cannot embed serial source: {exc}")
        hits = deps.index.query_topk(query, cfg.k)
    manifest = deps.corpus_manifest if deps.corpus_manifest is not None else CorpusManifest()
    bundle = build_prompt(source, hits, manifest, deps.template)
    (case_dir / "prompt.txt").write_text(bundle.rendered, encoding="utf-8")

    request = GenerationRequest(
        model_name=cfg.model,
        prompt=bundle.rendered,
        case_id=case.case_id,
        temperature=cfg.temperature,
    )
    try:
        outcome = generate(request, deps.provider)
    except (ProviderError, ReplayMissError) as exc:
        return _transform_failed(case_dir, case.case_id, str(exc))
    (case_dir / "reply.txt").write_text(outcome.raw_reply, encoding="utf-8")
    if outcome.extracted_code is not None:
        (case_dir / "generated.cpp").write_text(outcome.extracted_code, encoding="utf-8")


def transform_cases(
    cases: list[CaseSpec], cfg: PipelineConfig, deps: PipelineDeps, out_dir: Path | str
) -> None:
    out_dir = Path(out_dir)
    todo = [c for c in cases if not c.unparallelizable]
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        futures = [pool.submit(transform_case, case, cfg, deps, out_dir) for case in todo]
        for future in futures:
            future.result()


def validate_case(case: CaseSpec, cfg: PipelineConfig, out_dir: Path) -> ValidationReport:
    """Compile gate + classification + differential check for one case."""
    if case.unparallelizable:
        return ValidationReport(case.case_id, False, excluded_unparallelizable=True,
                                diagnostics="excluded: case is marked unparallelizable")
    case_dir = _case_dir(out_dir, case.case_id)
    error_path = case_dir / "transform_error.txt"
    generated_path = case_dir / "generated.cpp"
    reply_path = case_dir / "reply.txt"
    if error_path.is_file():
        error = error_path.read_text(encoding="utf-8").strip()
        return ValidationReport(case.case_id, False, diagnostics="generation failed: " + error)
    if not generated_path.is_file():
        if not reply_path.is_file():
            log.warning("case %s has no transform artifacts under %s; run the transform "
                        "stage first", case.case_id, case_dir)
            return ValidationReport(case.case_id, False, diagnostics=(
                "not transformed: no transform artifacts; run the transform stage first"))
        return ValidationReport(case.case_id, False,
                                diagnostics="model reply contained no code block")

    generated = generated_path.read_text(encoding="utf-8")
    parallel = compile_gate(
        generated,
        case_dir / "build",
        openmp=True,
        compile_cmd=cfg.compile_cmd,
        timeout=cfg.compile_timeout,
    )
    if parallel.timed_out:  # a result for this case, not a failure category
        return ValidationReport(case.case_id, False,
                                diagnostics=f"compile timed out: {parallel.diagnostics}")
    if not parallel.ok:
        category = classify_failure(parallel.diagnostics, generated)
        return ValidationReport(case.case_id, False, category, parallel.diagnostics)

    try:
        serial_source = Path(case.serial_path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError):
        serial = None
    else:
        serial = compile_gate(
            serial_source,
            case_dir / "build_serial",
            openmp=False,
            compile_cmd=cfg.compile_cmd,
            timeout=cfg.compile_timeout,
        )
    if serial is None or not serial.ok:
        log.warning("serial source for %s no longer reads or compiles; skipping differential",
                    case.case_id)
        return ValidationReport(case.case_id, True, diagnostics=parallel.diagnostics)
    verdict = differential_validate(
        serial.binary,
        parallel.binary,
        list(cfg.differential_threads),
        case.input_args,
        timeout=cfg.run_timeout,
    )
    return ValidationReport(case.case_id, True, None, parallel.diagnostics, verdict,
                            list(cfg.differential_threads))


def validate_cases(
    cases: list[CaseSpec], cfg: PipelineConfig, out_dir: Path | str
) -> list[ValidationReport]:
    out_dir = Path(out_dir)
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        futures = [pool.submit(validate_case, case, cfg, out_dir) for case in cases]
        reports = [future.result() for future in futures]
    for report in reports:
        report.validate()
    return reports


def run_pipeline(
    cases: list[CaseSpec],
    cfg: PipelineConfig,
    deps: PipelineDeps,
    out_dir: Path | str,
) -> tuple[list[ValidationReport], RunSummary]:
    """Transform then validate every case; write reports and the summary.

    Environment failures propagate and abort; per-case failures land in
    the reports. Report order follows the case manifest.
    """
    transform_cases(cases, cfg, deps, out_dir)
    return validate_and_report(cases, cfg, out_dir)


def validate_and_report(
    cases: list[CaseSpec], cfg: PipelineConfig, out_dir: Path | str
) -> tuple[list[ValidationReport], RunSummary]:
    """Validate every case and write reports.jsonl, summary.json and summary.txt."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    reports = validate_cases(cases, cfg, out_dir)
    summary = summarize(reports)
    save_jsonl(reports, out_dir / "reports.jsonl")
    (out_dir / "summary.json").write_text(
        json.dumps(summary.to_dict(), indent=2) + "\n", encoding="utf-8"
    )
    (out_dir / "summary.txt").write_text(render_summary(summary, reports), encoding="utf-8")
    return reports, summary


# --------------------------------------------------------------------------
# Reporting
# --------------------------------------------------------------------------

def _pct(numerator: int, denominator: int) -> str:
    if denominator == 0:
        return "n/a"
    return f"{100.0 * numerator / denominator:.1f}%"


def _summary_rows(summary: RunSummary) -> list[tuple[str, str]]:
    total = summary.total_cases
    denom = total - summary.excluded_unparallelizable
    return [
        (
            "Compilation Success",
            f"{summary.compile_success}/{total} ({_pct(summary.compile_success, total)})",
        ),
        (
            "Failures (Fixable)",
            f"{summary.fixable_failures}/{total} ({_pct(summary.fixable_failures, total)})",
        ),
        (
            "Unparallelizable",
            f"{summary.excluded_unparallelizable}/{total} (excluded)",
        ),
        (
            "Effective Success",
            f"{summary.compile_success}/{denom} ({_pct(summary.compile_success, denom)})",
        ),
    ]


def category_counts(reports: list[ValidationReport]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for report in reports:
        if report.failure_category is not None:
            counts[report.failure_category.value] = counts.get(report.failure_category.value, 0) + 1
    return {name: counts[name] for name in sorted(counts)}


def render_summary(summary: RunSummary, reports: list[ValidationReport] | None = None) -> str:
    rows = _summary_rows(summary)
    width = max(len(name) for name, _ in rows)
    lines = [f"{name.ljust(width)}  {value}" for name, value in rows]
    if reports:
        counts = category_counts(reports)
        if counts:
            lines.append("")
            lines.append("Failure categories:")
            cat_width = max(len(name) for name in counts)
            for name, count in counts.items():
                lines.append(f"  {name.ljust(cat_width)}  {count}")
    return "\n".join(lines) + "\n"


def render_comparison(labeled: list[tuple[str, RunSummary]]) -> str:
    """Side-by-side summary table, one column per labeled run."""
    if not labeled:
        raise InvalidInputError("nothing to compare")
    metric_names = [name for name, _ in _summary_rows(labeled[0][1])]
    columns = {label: dict(_summary_rows(summary)) for label, summary in labeled}
    return render_table(
        [["Metric"] + [label for label, _ in labeled]]
        + [[name] + [columns[label][name] for label, _ in labeled] for name in metric_names]
    )


def report(reports: list[ValidationReport], fmt: str = "text") -> str:
    """Render the aggregate summary in the requested format."""
    summary = summarize(reports)
    if fmt == "text":
        return render_summary(summary, reports)
    if fmt == "json":
        payload = summary.to_dict()
        payload["failure_categories"] = category_counts(reports)
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        lines = ["metric,value"]
        for key, value in summary.to_dict().items():
            rendered = "" if value is None else value
            lines.append(f"{key},{rendered}")
        for name, count in category_counts(reports).items():
            lines.append(f"category_{name},{count}")
        return "\n".join(lines) + "\n"
    raise UsageError(f"unknown report format {fmt!r} (expected text, csv, or json)")
