"""Snippet harvesting: keyword queries against a Q&A API, code extraction,
cleaning, filters, and compile gating into a case manifest.

Cleaning scans a snippet once into statements and brace blocks, with each
comment as whitespace. It drops I/O statements whole and reprints main's
printed values as RESULT lines. Filters then apply in a fixed order —
require an #include, a for-loop, a minimum length and a value left to
print, then the compile gate — and the first failed one names the
rejection. The live API is optional; recorded page fixtures keep tests
offline.
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

_INCLUDE_RE = re.compile(r"^\s*#\s*include\b", re.MULTILINE)
_FOR_RE = re.compile(r"\bfor\s*\(")
_OUTPUT_NAMES = {"cout", "printf", "puts", "putchar", "fprintf", "fputs"}
_INPUT_NAMES = {"cin", "scanf", "fscanf", "getchar", "getline", "fgets"}
_IO_NAMES = _OUTPUT_NAMES | _INPUT_NAMES | {"cerr", "clog", "sprintf"}
_NOT_PRINTABLE = {
    "std", "cout", "cin", "cerr", "clog", "endl", "flush", "ends", "printf", "scanf", "puts",
    "putchar", "fprintf", "fscanf", "getline", "stderr", "stdout", "if",
    "for", "while", "return", "const", "int", "long", "double", "float",
    "char", "bool", "void", "size_t", "auto",
}
_DECL_RE = re.compile(
    r"^\s*(?:unsigned\s+|signed\s+|long\s+|short\s+|const\s+)*"
    r"(?:int|long|short|float|double|char|bool|auto|size_t|std::\w+)\b[^=;(),]*\b(\w+)\s*$"
)


class RejectionReason(str, Enum):
    NO_INCLUDE = "NoInclude"
    NO_FOR_LOOP = "NoForLoop"
    TOO_SHORT = "TooShort"
    COMPILE_FAIL = "CompileFail"
    EMPTY = "Empty"
    NO_OUTPUT = "NoOutput"


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
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ParseError(f"{path}: recorded page is not UTF-8 JSON: {exc}") from exc


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

# One C++ token, as a match whose lastgroup is its kind. A comment is a token,
# so a kept line keeps it, but as in translation phase 3 it is whitespace.
_TOKEN_RE = re.compile(r"""
    (?P<comment>//[^\n]*|/\*.*?(?:\*/|\Z))
  | (?P<directive>^[ \t]*\#(?:\\\n|[^\n])*)
  | (?P<literal>(?:u8|[uUL])?R"(?P<delim>[^()\\\s]{0,16})\(.*?\)(?P=delim)"
      | (?:u8|[uUL])?(?P<quote>["'])(?:\\.|(?!(?P=quote))[^\\\n])*(?P=quote)?)
  | (?P<name>[A-Za-z_]\w*)
  | (?P<number>\.?\d(?:[eEpP][+-]|'\w|[\w.])*)
  | (?P<punct>::|->|<<|\S)
""", re.MULTILINE | re.DOTALL | re.VERBOSE)
_OPEN, _CLOSE = "([{", ")]}"
_GONE = "\0"  # marks a dropped span until its line is judged


@dataclass
class _Stmt:
    """A statement's tokens through its ';', or a block's header and '{'."""
    tokens: list[re.Match]
    parent: _Stmt | None  # the block it is in
    end: int  # offset past its ';' or its block's '}'
    outer: set[str]  # the names outside its brackets: no loop variable or parameter
    dropped: bool = False


def _parse(code: str) -> tuple[list[re.Match], list[_Stmt]]:
    """The code's comments, and its statements and blocks in source order. A
    ';' or '}' inside brackets or braced initialisers ends no statement."""
    tokens = list(_TOKEN_RE.finditer(code))
    stmts: list[_Stmt] = []
    blocks: list[_Stmt] = []  # the open ones
    current: list[re.Match] = []
    outer: set[str] = set()
    depth = 0
    for tok in tokens:
        kind, text = tok.lastgroup, tok[0]
        parent = blocks[-1] if blocks else None
        if kind == "comment":
            continue
        if kind == "directive":  # the name a #define gives
            outer.update(text.lstrip(" \t#").split()[1:2])
        if depth == 0 and text == "}" and blocks:
            if current:
                stmts.append(_Stmt(current, parent, current[-1].end(), outer))
            blocks.pop().end, current, outer = tok.end(), [], set()
        elif depth == 0 and (text == ";" or kind == "directive"):
            stmts.append(_Stmt(current + [tok], parent, tok.end(), outer))
            current, outer = [], set()
        elif depth == 0 and text == "{" and not (current and current[-1][0] == "="):
            blocks.append(_Stmt(current + [tok], parent, len(code), outer))
            stmts.append(blocks[-1])
            current, outer = [], set()
        else:
            if depth == 0 and kind == "name":
                outer.add(text)
            depth += (text in _OPEN) - (text in _CLOSE and depth > 0)
            current.append(tok)
    # a trailing fragment with no ';' is no statement: it stays as written
    return [t for t in tokens if t.lastgroup == "comment"], stmts


def _line_start(code: str, pos: int) -> int:
    return code.rfind("\n", 0, pos) + 1


def _split(tokens: list[re.Match], sep: str | None) -> list[list[re.Match]]:
    """Split on sep outside brackets, up to the first unmatched closing one."""
    parts: list[list[re.Match]] = [[]]
    depth = 0
    for tok in tokens:
        depth += (tok[0] in _OPEN) - (tok[0] in _CLOSE)
        if depth < 0:
            break
        if depth == 0 and tok[0] == sep:
            parts.append([])
        else:
            parts[-1].append(tok)
    return parts


def _free_names(tokens: list[re.Match]) -> set[str]:
    """The names an expression needs in scope: no keywords, members or qualified names."""
    names: set[str] = set()
    after_member = False
    for tok in tokens:
        if tok.lastgroup == "name" and not after_member and tok[0] not in _NOT_PRINTABLE:
            names.add(tok[0])
        after_member = tok[0] in (".", "->", "::")
    return names


def _loop_variables(header: list[re.Match]) -> set[str]:
    """The names a for header's init clause declares: the last token before
    each declarator's '=' (or a range-for's ':'). `i = 0` declares nothing."""
    init = _split(_split(header[2:], ";")[0], ":")[0]
    declarators = [_split(part, "=")[0] for part in _split(init, ",")]
    if len(declarators[0]) < 2:
        return set()
    return {d[-1][0] for d in declarators if d and d[-1].lastgroup == "name"}


def _printed_expressions(tokens: list[re.Match]) -> list[list[re.Match]]:
    """The value expressions an output statement prints."""
    tokens = tokens[:-1] if tokens[-1][0] == ";" else tokens
    exprs: list[list[re.Match]] = []
    if {t[0] for t in tokens} & {"cout", "cerr", "clog"}:
        exprs += [p for p in _split(tokens, "<<")[1:] if p and p[0].lastgroup != "literal"]
    for i, tok in enumerate(tokens[:-1]):
        if tok[0] in ("printf", "fprintf") and tokens[i + 1][0] == "(":
            args = _split(tokens[i + 2:], ",")
            exprs += [a for a in args[2 if tok[0] == "fprintf" else 1:] if a]  # stream, format
            break
    return [e for e in exprs if _free_names(e)]  # only a variable's value is worth reprinting


def _reprint(code: str, expr: list[re.Match], stmt: _Stmt, main: _Stmt,
             scope: set[str]) -> str | None:
    """The harness line that reprints a value main printed, inside copies of the
    for loops around it when it names their variables; None when a name it
    needs is out of scope at the end of main."""
    needed = _free_names(expr)
    headers = []  # the headers of the blocks around the print, outermost first
    if not needed <= scope:  # main's own values copy no loop
        block = stmt.parent
        while block is not main:
            headers.insert(0, block.tokens[:-1])
            block = block.parent
        if stmt.tokens[0][0] == "for":  # a loop whose body is the print
            headers.append(stmt.tokens[:len(_split(stmt.tokens[2:], None)[0]) + 3])
    visible = set(scope)
    loops = ""
    for header in headers:
        if not header or header[0][0] != "for":
            return None
        declared = _loop_variables(header)
        if not _free_names(header) <= visible | declared:
            return None
        visible |= declared
        loops += code[header[0].start():header[-1].end()] + " "
    if not needed <= visible:
        return None
    text = code[expr[0].start():expr[-1].end()]
    label = re.sub(r"[^A-Za-z0-9]+", "_", text).strip("_")
    return f'    {loops}std::cout << "RESULT {label}=" << ({text}) << "\\n"; {CANONICAL_MARK}'


def _drop(code: str, stmt: _Stmt) -> tuple[int, int, str]:
    """Drop a statement; the edit takes the blanks that part it from its line."""
    stmt.dropped = True
    start, end = stmt.tokens[0].start(), stmt.end
    if code[_line_start(code, start):start].strip():
        return len(code[:start].rstrip(" \t")), end, _GONE
    return start, len(code) - len(code[end:].lstrip(" \t")), _GONE


def _render(code: str, edits: list[tuple[int, int, str]]) -> str:
    """The code with each (start, end, replacement) edit made, without empty
    lines, whole-line comments and the lines a dropped span left blank."""
    pieces: list[str] = []
    pos = 0
    for start, end, text in sorted(edits):
        pieces += [code[pos:start], text]
        pos = max(pos, end)
    pieces.append(code[pos:])
    lines = ((line, line.replace(_GONE, "")) for line in "".join(pieces).split("\n"))
    return "\n".join(text for line, text in lines if not text.lstrip().startswith("//")
                     and (text.strip() or line and _GONE not in line))


def _clean_snippet(code: str) -> tuple[str, list[str], str | None]:
    """Drop I/O statements, comments and the declarations only I/O used. A block
    whose header does I/O, as ``while (std::cin >> x)``, goes whole; lines
    marked CANONICAL_MARK stay, so a cleaned snippet cleans to itself. Returns
    the cleaned code, the values the dropped output printed, and the cleaned
    code with a harness that reprints main's values (None when it can't). A
    value that names what an input statement or a dropped block's body names
    is not reprinted: with them gone it would print a constant."""
    comments, stmts = _parse(code)
    marked = {_line_start(code, t.start()) for t in comments if CANONICAL_MARK in t[0]}
    edits = [(t.start(), t.end(), _GONE) for t in comments if t[0].startswith("/*")]
    prints: list[tuple[list[re.Match], _Stmt]] = []
    fed: set[str] = set()  # the names of input statements and of dropped blocks' bodies
    for stmt in stmts:
        names = {t[0] for t in stmt.tokens if t.lastgroup == "name"}
        if stmt.parent and stmt.parent.dropped:
            stmt.dropped = True
            fed |= _free_names(stmt.tokens)
        elif names & _IO_NAMES and _line_start(code, stmt.tokens[0].start()) not in marked:
            edits.append(_drop(code, stmt))
            if names & _INPUT_NAMES:
                fed |= _free_names(stmt.tokens)
            if names & _OUTPUT_NAMES:
                prints += [(expr, stmt) for expr in _printed_expressions(stmt.tokens)]
    removed = {t[0] for s in stmts if s.dropped for t in s.tokens if t.lastgroup == "name"}
    kept = [s for s in stmts if not s.dropped]
    uses = [t[0] for s in kept for t in s.tokens if t.lastgroup == "name"]
    for stmt in kept:
        decl = _DECL_RE.match(code[stmt.tokens[0].start():stmt.end].rstrip(";"))
        if decl and decl[1] in removed and uses.count(decl[1]) == 1:
            edits.append(_drop(code, stmt))
    cleaned = _render(code, edits)
    printed = list(dict.fromkeys(code[e[0].start():e[-1].end()] for e, _ in prints))

    main = next((s for s in stmts if not s.parent and s.tokens[-1][0] == "{" and "main" in s.outer),
                None)
    if main is None:
        return cleaned, printed, None
    start = main.tokens[0].start()
    scope: set[str] = set()  # named outside brackets by main's statements or the code before it
    for s in stmts:
        if not s.dropped and (s.parent is main or not s.parent and s.end <= start):
            scope |= s.outer
    reprints: list[str] = []
    for expr, stmt in prints:
        if not start < stmt.end <= main.end or _free_names(expr) & fed:
            continue
        line = _reprint(code, expr, stmt, main, scope)
        if line is not None and line not in reprints:
            reprints.append(line)
    if not reprints:
        return cleaned, printed, None
    # an early `if (n <= 0) return 1;` is no anchor: it does not start with return
    returns = [s for s in stmts if s.parent is main and not s.dropped
               and s.tokens[0][0] == "return"]
    anchor = returns[-1].tokens[0].start() if returns else main.end - 1
    pos = _line_start(code, anchor)
    # 17 significant digits (max_digits10) print a double exactly, so the
    # differential tolerance compares the values and not 6-digit roundings.
    harness = "\n".join([f"    std::cout.precision(17); {CANONICAL_MARK}", *reprints]) + "\n"
    if code[pos:anchor].strip():
        pos, harness = anchor, "\n" + harness
    while pos and not code[_line_start(code, pos - 1):pos].strip():
        pos = _line_start(code, pos - 1)  # blank lines stay with the anchor
    edits.append((pos, pos, harness))
    if not re.search(r"#\s*include\s*<iostream>", cleaned):
        edits.append((0, 0, "#include <iostream>\n"))
    return cleaned, printed, _render(code, edits)


def nonblank_line_count(code: str) -> int:
    return sum(1 for line in code.split("\n") if line.strip())


def clean_and_filter(
    candidate: SnippetCandidate, min_lines: int = MIN_NONBLANK_LINES
) -> SnippetCandidate:
    """Clean a snippet, then apply the structural filters in order.

    Rejection is a value, not an error; the first failed filter wins.
    """
    if not candidate.raw_code.strip():
        raise InvalidInputError("candidate raw_code must be non-empty")
    code, printed, harnessed = _clean_snippet(candidate.raw_code)

    reason: RejectionReason | None = None
    if not code.strip():
        reason = RejectionReason.EMPTY
    elif not _INCLUDE_RE.search(code):
        reason = RejectionReason.NO_INCLUDE
    elif not _FOR_RE.search(code):
        reason = RejectionReason.NO_FOR_LOOP
    elif nonblank_line_count(code) < min_lines:
        reason = RejectionReason.TOO_SHORT
    elif printed and harnessed is None:  # a case that prints nothing validates nothing
        reason = RejectionReason.NO_OUTPUT

    if reason is not None:
        return replace(candidate, cleaned_code=None, rejection_reason=reason)
    return replace(candidate, cleaned_code=harnessed or code, rejection_reason=None)


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
