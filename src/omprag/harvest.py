"""Snippet harvesting: keyword queries against a Q&A API, code extraction,
cleaning filters, and compile gating into a case manifest.

Filters apply in a fixed order — strip I/O statements, strip comment
lines, require an #include, require a for-loop, require a minimum length,
then the compile gate — and the first failed filter names the rejection.
The live API is optional; recorded page fixtures keep tests offline.
"""

from __future__ import annotations

import html
import json
import logging
import re
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

from .config import PipelineConfig
from .errors import InvalidInputError, ParseError, ReplayMissError
from .retry import HttpClient
from .validation import DEFAULT_COMPILE_CMD, DEFAULT_COMPILE_TIMEOUT, CaseSpec, compile_gate

log = logging.getLogger(__name__)

CATEGORIES = (
    "dot product",
    "matrix multiplication",
    "quicksort",
    "histogram",
    "prefix sum",
    "Jacobi 2D method",
    "Mandelbrot set",
    "Monte Carlo simulation",
    "vector addition",
    "convolution",
)

MIN_NONBLANK_LINES = 10
CANONICAL_MARK = "// [canonical-output]"

_IO_TOKENS = (
    "std::cout", "std::cin", "std::cerr", "std::clog",
    "cout", "cin", "cerr", "clog",
    "printf", "fprintf", "sprintf", "scanf", "fscanf",
    "puts", "putchar", "getchar", "getline", "fgets", "fputs",
)
_OUTPUT_TOKENS = ("cout", "printf", "puts", "putchar", "fprintf", "fputs")
_IO_RE = re.compile(r"\b(" + "|".join(re.escape(t) for t in _IO_TOKENS) + r")\b")
_OUTPUT_RE = re.compile(r"\b(" + "|".join(re.escape(t) for t in _OUTPUT_TOKENS) + r")\b")
_INCLUDE_RE = re.compile(r"^\s*#\s*include\b", re.MULTILINE)
_FOR_RE = re.compile(r"\bfor\s*\(")
_DECL_RE = re.compile(
    r"^\s*(?:unsigned\s+|signed\s+|long\s+|short\s+|const\s+)*"
    r"(?:int|long|short|float|double|char|bool|auto|size_t|std::\w+)\b[^=;()]*\b(\w+)\s*$"
)
_IDENT_RE = re.compile(r"\b[A-Za-z_]\w*\b")
_NOT_PRINTABLE = {
    "std", "cout", "cin", "cerr", "clog", "endl", "printf", "scanf", "puts",
    "putchar", "fprintf", "fscanf", "getline", "stderr", "stdout", "if",
    "for", "while", "return", "const", "int", "long", "double", "float",
    "char", "bool", "void", "size_t", "auto",
}


class RejectionReason(str, Enum):
    NO_INCLUDE = "NoInclude"
    NO_FOR_LOOP = "NoForLoop"
    TOO_SHORT = "TooShort"
    COMPILE_FAIL = "CompileFail"
    EMPTY = "Empty"


@dataclass
class SnippetCandidate:
    origin_url: str
    category: str
    raw_code: str
    cleaned_code: str | None = None
    rejection_reason: RejectionReason | None = None

    def validate(self) -> None:
        if (self.cleaned_code is None) == (self.rejection_reason is None):
            raise InvalidInputError(
                "candidate must have exactly one of cleaned_code / rejection_reason"
            )


# --------------------------------------------------------------------------
# Fetching
# --------------------------------------------------------------------------

def category_slug(category: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", category.lower()).strip("_")


class FixtureQaApi:
    """Replays recorded answer pages from a directory of JSON files."""

    def __init__(self, fixture_dir: Path | str):
        self.fixture_dir = Path(fixture_dir)

    def fetch_page(self, category: str, page: int) -> dict:
        path = self.fixture_dir / f"{category_slug(category)}_p{page}.json"
        if not path.is_file():
            raise ReplayMissError(
                f"no recorded page for category {category!r} page {page} under "
                f"{self.fixture_dir}"
            )
        return json.loads(path.read_text(encoding="utf-8"))


class HttpQaApi:
    """Live Q&A API client; returns pages in the recorded-fixture shape.

    The API key travels as the ``key`` query parameter, not as a header.
    """

    def __init__(
        self,
        endpoint: str,
        api_key: str | None = None,
        *,
        keywords: dict[str, str] | None = None,
    ):
        self.api_key = api_key
        self.keywords = keywords or {}
        self.client = HttpClient(endpoint, None, timeout=30.0, attempts=3, backoff_base=1.0,
                                 name="Q&A API")

    def fetch_page(self, category: str, page: int) -> dict:
        params = {
            "q": self.keywords.get(category, category),
            "accepted": "True",
            "sort": "relevance",
            "page": page,
            "pagesize": 30,
        }
        if self.api_key:
            params["key"] = self.api_key
        return self.client.get_json(params)


def extract_code_blocks(body: str) -> list[str]:
    """Code blocks from an answer body: markdown fences and <pre><code> blocks."""
    blocks: list[str] = []
    for match in re.finditer(r"```[^\n]*\n(.*?)```", body, re.DOTALL):
        block = match.group(1).rstrip("\n")
        if block.strip():
            blocks.append(block)
    for match in re.finditer(r"<pre><code>(.*?)</code></pre>", body, re.DOTALL):
        block = html.unescape(match.group(1)).strip("\n")
        if block.strip():
            blocks.append(block)
    return blocks


def _link_and_body(item) -> tuple[object, object]:
    """An answer item's link and body; (None, None) for an item that is not an object."""
    if not isinstance(item, dict):
        return None, None
    return item.get("link", ""), item.get("body_markdown") or item.get("body") or ""


def fetch_candidates(category: str, max_pages: int, api) -> list[SnippetCandidate]:
    """Raw candidates for one category, in the API's relevance order."""
    if max_pages < 1:
        raise InvalidInputError(f"max_pages must be >= 1, got {max_pages}")
    candidates: list[SnippetCandidate] = []
    for page in range(1, max_pages + 1):
        payload = api.fetch_page(category, page)
        items = payload.get("items", []) if isinstance(payload, dict) else None
        if not isinstance(items, list):
            raise ParseError(f"category {category!r} page {page}: the page is not an object "
                             "with an 'items' list")
        for n, item in enumerate(items, start=1):
            link, body = _link_and_body(item)
            if not isinstance(link, str) or not isinstance(body, str):
                log.warning("category %r page %d: skipping item %d, which has no string "
                            "body and link", category, page, n)
                continue
            for block in extract_code_blocks(body):
                candidates.append(
                    SnippetCandidate(origin_url=link, category=category, raw_code=block)
                )
        if not payload.get("has_more", False):
            break
    log.info("category %r: %d raw candidates", category, len(candidates))
    return candidates


# --------------------------------------------------------------------------
# Cleaning and filtering
# --------------------------------------------------------------------------

def _strip_comments(code: str) -> str:
    """Remove block comments and whole-line // comments; keep trailing ones."""
    code = re.sub(r"/\*.*?\*/", "", code, flags=re.DOTALL)
    kept = [line for line in code.split("\n") if not line.strip().startswith("//")]
    return "\n".join(kept)


def _statement_names(statement: str) -> list[str]:
    return [
        name
        for name in _IDENT_RE.findall(re.sub(r'"[^"]*"', "", statement))
        if name not in _NOT_PRINTABLE
    ]


def _split_top_level(text: str, sep: str) -> list[str]:
    """Split on sep outside parens/brackets/braces and string literals."""
    parts: list[str] = []
    depth = 0
    quote: str | None = None
    current = ""
    i = 0
    while i < len(text):
        ch = text[i]
        if quote:
            current += ch
            if ch == "\\":
                current += text[i + 1 : i + 2]
                i += 1
            elif ch == quote:
                quote = None
        elif ch in "\"'":
            quote = ch
            current += ch
        elif ch in "([{":
            depth += 1
            current += ch
        elif ch in ")]}":
            depth -= 1
            current += ch
        elif depth == 0 and text[i : i + len(sep)] == sep:
            parts.append(current)
            current = ""
            i += len(sep) - 1
        else:
            current += ch
        i += 1
    parts.append(current)
    return parts


_MANIPULATORS = {"endl", "std::endl", "flush", "std::flush", "ends", "std::ends"}


def _printed_expressions(statement: str) -> list[str]:
    """Value expressions a removed output statement was printing."""
    exprs: list[str] = []
    if re.search(r"\b(?:std::)?(?:cout|cerr|clog)\b", statement):
        for piece in _split_top_level(statement, "<<")[1:]:
            piece = piece.strip()
            if not piece or piece.startswith(('"', "'")) or piece in _MANIPULATORS:
                continue
            exprs.append(piece)
    match = re.search(r"\b(f?printf)\s*\(", statement)
    if match:
        opening = statement.index("(", match.start())
        args = _split_top_level(statement[opening + 1 :].rsplit(")", 1)[0], ",")
        skip = 2 if match.group(1) == "fprintf" else 1  # stream and/or format
        exprs.extend(a.strip() for a in args[skip:] if a.strip())
    # only expressions that reference some identifier are worth reprinting
    return [e for e in exprs if any(n not in _NOT_PRINTABLE for n in _IDENT_RE.findall(e))]


def _strip_io_statements(code: str) -> tuple[str, list[str], list[str]]:
    """Drop statements that perform stream/printf I/O; keep co-located
    declarations. Returns (code, printed, removed_names): the value
    expressions that were being printed, and every identifier a removed
    statement touched (used to prune declarations that lost their only
    reference)."""
    printed: list[str] = []
    removed: list[str] = []
    out_lines: list[str] = []
    pending = ""  # an I/O statement that continues on later lines, so far
    for line in code.split("\n"):
        if CANONICAL_MARK in line:
            out_lines.append(line)
            continue
        if pending:
            pending += "\n" + line
            if not line.rstrip().endswith(";"):
                continue
            line, pending = pending, ""  # the whole statement, as if on one line
        elif not _IO_RE.search(line) or re.match(r"\s*#\s*include\b", line):
            out_lines.append(line)
            continue
        kept_statements: list[str] = []
        statements = line.split(";")
        trailing = statements.pop()  # text after the final ';' (usually empty)
        for statement in statements:
            if _IO_RE.search(statement):
                for name in _statement_names(statement):
                    if name not in removed:
                        removed.append(name)
                if _OUTPUT_RE.search(statement):
                    for expr in _printed_expressions(statement):
                        if expr not in printed:
                            printed.append(expr)
            else:
                kept_statements.append(statement)
        if kept_statements:
            indent = re.match(r"\s*", line).group(0)
            out_lines.append(indent + "; ".join(s.strip() for s in kept_statements) + ";")
        if _IO_RE.search(trailing) and not trailing.rstrip().endswith(("}", "{")):
            pending = trailing
    return "\n".join(out_lines), printed, removed


def _drop_unreferenced_decls(code: str, candidates: list[str]) -> str:
    """Drop bare declarations whose name is no longer referenced anywhere."""
    lines = code.split("\n")
    for idx, line in enumerate(lines):
        match = _DECL_RE.match(line.rstrip(";").rstrip())
        if not match:
            continue
        name = match.group(1)
        if name not in candidates:
            continue
        rest = "\n".join(lines[:idx] + lines[idx + 1:])
        if not re.search(rf"\b{re.escape(name)}\b", rest):
            lines[idx] = ""
    return "\n".join(line for line in lines if line != "")


def _inject_result_harness(code: str, printed: list[str]) -> str:
    """Reintroduce one canonical print per previously-printed expression so
    differential validation has deterministic output to compare."""
    def still_live(expr: str) -> bool:
        names = [n for n in _IDENT_RE.findall(expr) if n not in _NOT_PRINTABLE]
        return bool(names) and all(
            re.search(rf"\b{re.escape(n)}\b", code) for n in names
        )

    live = [expr for expr in printed if still_live(expr)]
    if not live:
        return code
    main_match = re.search(r"\bint\s+main\s*\([^)]*\)\s*{", code)
    if not main_match:
        return code
    # 17 significant digits (max_digits10) print a double exactly, so the
    # differential tolerance compares the values and not 6-digit roundings.
    prints = [f"    std::cout.precision(17); {CANONICAL_MARK}"] + [
        f'    std::cout << "RESULT {re.sub(r"[^A-Za-z0-9]+", "_", expr).strip("_")}=" '
        f'<< ({expr}) << "\\n"; {CANONICAL_MARK}'
        for expr in live
    ]
    return_match = None
    for return_match in re.finditer(r"^\s*return\b[^;]*;", code, re.MULTILINE):
        pass
    if return_match and return_match.start() > main_match.end():
        code = code[: return_match.start()] + "\n".join(prints) + "\n" + code[return_match.start():]
    else:
        closing = code.rfind("}")
        if closing < 0:
            return code
        code = code[:closing] + "\n".join(prints) + "\n" + code[closing:]
    if not re.search(r"#\s*include\s*<iostream>", code):
        code = "#include <iostream>\n" + code
    return code


def nonblank_line_count(code: str) -> int:
    return sum(1 for line in code.split("\n") if line.strip())


def clean_and_filter(
    candidate: SnippetCandidate, min_lines: int = MIN_NONBLANK_LINES
) -> SnippetCandidate:
    """Apply the cleaning steps and structural filters in order.

    Rejection is a value, not an error; the first failed filter wins.
    """
    if not candidate.raw_code.strip():
        raise InvalidInputError("candidate raw_code must be non-empty")
    code, printed, removed = _strip_io_statements(candidate.raw_code)
    code = _strip_comments(code)
    code = _drop_unreferenced_decls(code, removed)
    code = re.sub(r"\n{3,}", "\n\n", code).strip("\n")

    reason: RejectionReason | None = None
    if not code.strip():
        reason = RejectionReason.EMPTY
    elif not _INCLUDE_RE.search(code):
        reason = RejectionReason.NO_INCLUDE
    elif not _FOR_RE.search(code):
        reason = RejectionReason.NO_FOR_LOOP
    elif nonblank_line_count(code) < min_lines:
        reason = RejectionReason.TOO_SHORT

    if reason is not None:
        return replace(candidate, cleaned_code=None, rejection_reason=reason)
    return replace(candidate, cleaned_code=_inject_result_harness(code, printed),
                   rejection_reason=None)


def _case_file_text(candidate: SnippetCandidate) -> str:
    """The exact text of a survivor's caseN.cc file."""
    return candidate.cleaned_code + "\n"


def compile_filter(
    candidate: SnippetCandidate,
    work_dir: Path | str,
    *,
    compile_cmd: str = DEFAULT_COMPILE_CMD,
    timeout: float = DEFAULT_COMPILE_TIMEOUT,
) -> SnippetCandidate:
    """Reject cleaned candidates that do not compile as plain C++17, or whose
    compile times out. The compiled text is the case file's, so validating
    the case later reuses this build.
    """
    if candidate.cleaned_code is None:
        raise InvalidInputError("compile_filter requires a cleaned candidate")
    result = compile_gate(_case_file_text(candidate), work_dir, openmp=False,
                          compile_cmd=compile_cmd, timeout=timeout)
    if result.ok:
        return candidate
    if result.timed_out:
        log.info("compile gate timed out: %s", result.diagnostics)
    log.info("candidate from %s rejected by compile gate", candidate.origin_url or "<unknown>")
    return replace(candidate, cleaned_code=None, rejection_reason=RejectionReason.COMPILE_FAIL)


def build_case_manifest(
    survivors: list[SnippetCandidate],
    cases_dir: Path | str,
    start_index: int = 1,
) -> list[CaseSpec]:
    """Write survivors as caseN.cc files with sequential ids; return specs."""
    cases_dir = Path(cases_dir)
    cases_dir.mkdir(parents=True, exist_ok=True)
    specs: list[CaseSpec] = []
    for offset, candidate in enumerate(survivors):
        if candidate.cleaned_code is None:
            raise InvalidInputError("only cleaned survivors can enter the case manifest")
        case_id = f"case{start_index + offset}"
        path = cases_dir / f"{case_id}.cc"
        path.write_text(_case_file_text(candidate), encoding="utf-8")
        specs.append(CaseSpec(case_id=case_id, serial_path=str(path), input_args=[]))
    return specs


def harvest_cases(
    categories, api, cases_dir: Path | str, cfg: PipelineConfig, *,
    max_pages: int, min_lines: int = MIN_NONBLANK_LINES, start_index: int = 1,
) -> tuple[list[SnippetCandidate], list[CaseSpec]]:
    """Fetch, clean and compile-gate (in ``cases_dir/_gate``) each category's
    snippets, serially, and write the survivors' case files. Returns every
    candidate in page order, rejected ones with their reason, and the specs.
    """
    candidates: list[SnippetCandidate] = []
    for category in categories:
        for raw in fetch_candidates(category, max_pages, api):
            candidate = clean_and_filter(raw, min_lines=min_lines)
            if candidate.rejection_reason is None:
                candidate = compile_filter(candidate, Path(cases_dir) / "_gate",
                                           compile_cmd=cfg.compile_cmd, timeout=cfg.compile_timeout)
            if candidate.rejection_reason is not None:
                log.info("rejected %s: %s", raw.origin_url, candidate.rejection_reason.value)
            candidates.append(candidate)
    survivors = [c for c in candidates if c.rejection_reason is None]
    return candidates, build_case_manifest(survivors, cases_dir, start_index=start_index)
