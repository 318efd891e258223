"""Seeded input generators: kernels with closed-form results, OpenMP replies
with known outcomes, a synthetic tutorial corpus and recorded Q&A pages.

Everything here is plain text built from a ``random.Random``; nothing calls
into omprag, so the expectations the checks compare against are built
independently of the program under test.
"""

from __future__ import annotations

import html
import json
import random
import re
from dataclasses import dataclass
from math import gcd
from pathlib import Path

INIT_LOOP = "    for (int i = 0; i < n; ++i) {"
WORK_LOOP = "    for (int r = "
REDUCE_LOOP = "    for (int k = 0; k < m; ++k) {"
RETURN_LINE = "    return 0;"
MAIN_LINE = "int main() {"

FAMILIES = (
    "dot product",
    "vector addition",
    "histogram",
    "matrix multiplication",
    "Jacobi 2D method",
    "convolution",
)

# Compile faults the failure classifier must name; each variant below is
# known to produce exactly this category with g++.
FAULT_CATEGORIES = (
    "SyntaxError",
    "UndeclaredInClause",
    "DefaultNoneViolation",
    "InvalidReduction",
    "CollapseMisuse",
    "AtomicMisuse",
    "OtherCompileError",
)
PASS = "Pass"
MISMATCH = "Mismatch"
LOST_REDUCTION = "LostReduction"

_STEMS = ("total", "acc", "sum", "checksum", "result", "tally")

OMP_TERMS = (
    "parallel", "for", "reduction", "private", "shared", "firstprivate",
    "lastprivate", "schedule", "static", "dynamic", "guided", "chunk",
    "collapse", "atomic", "critical", "barrier", "nowait", "threads",
    "team", "loop", "iteration", "independent", "dependency", "race",
    "scoping", "default", "none", "clause", "directive", "pragma", "omp",
    "vector", "matrix", "histogram", "bins", "stencil", "jacobi", "grid",
    "convolution", "kernel", "filter", "dot", "product", "sum", "checksum",
    "accumulate", "prefix", "scan", "speedup", "scaling", "workload",
    "imbalance", "false", "sharing", "cache", "line", "memory", "array",
    "index", "bounds", "nested", "outer", "inner", "row", "column",
    "element", "addition", "multiply", "integer", "double", "precision",
    "ordering", "deterministic", "serial", "compile", "gcc", "fopenmp",
    "runtime", "environment", "num_threads", "omp_get_wtime", "wall",
    "time", "region", "fork", "join", "master", "single", "sections",
    "task", "taskwait", "simd", "aligned", "linear", "safelen",
)
_FAMILY_TERMS = {
    "dot product": ("dot", "product", "vector", "reduction", "sum"),
    "vector addition": ("vector", "addition", "element", "array", "checksum"),
    "histogram": ("histogram", "bins", "count", "atomic", "reduction"),
    "matrix multiplication": ("matrix", "multiply", "row", "column", "nested"),
    "Jacobi 2D method": ("jacobi", "stencil", "grid", "neighbors", "sweep"),
    "convolution": ("convolution", "filter", "kernel", "weights", "taps"),
}


def s1(n: int) -> int:
    """Sum of i for 0 <= i < n."""
    return n * (n - 1) // 2


def s2(n: int) -> int:
    """Sum of i*i for 0 <= i < n."""
    return (n - 1) * n * (2 * n - 1) // 6


def affine_sum(p: int, q: int, lo: int, hi: int) -> int:
    """Sum of p*i + q for lo <= i <= hi."""
    count = hi - lo + 1
    return p * (lo + hi) * count // 2 + q * count


@dataclass(frozen=True)
class Kernel:
    """A serial program whose printed checksum is known in closed form."""

    family: str
    source: str
    acc: str  # the printed reduction variable
    value: int  # closed-form value of acc
    vector: str  # a std::vector the reduction loop reads
    reduce_rhs: str  # right-hand side of the reduction statement


def _program(comment: str, n: int, m_expr: str, decls: str, init: str, work: str,
             acc: str, rhs: str) -> str:
    return (
        f"// {comment}\n"
        "#include <cstdio>\n"
        "#include <vector>\n"
        "\n"
        f"{MAIN_LINE}\n"
        f"    const int n = {n};\n"
        f"    const int m = {m_expr};\n"
        f"    {decls}\n"
        f"{INIT_LOOP}\n"
        f"{init}\n"
        "    }\n"
        f"{work}"
        f"    long long {acc} = 0;\n"
        f"{REDUCE_LOOP}\n"
        f"        {acc} += {rhs};\n"
        "    }\n"
        f'    std::printf("{acc}=%lld\\n", {acc});\n'
        f"{RETURN_LINE}\n"
        "}\n"
    )


def make_kernel(rng: random.Random, family: str, gid: int) -> Kernel:
    """One kernel of the family; gid makes its source unique within a run."""
    acc = f"{rng.choice(_STEMS)}{gid}"
    terms = list(_FAMILY_TERMS[family]) + rng.sample(OMP_TERMS, 6)
    rng.shuffle(terms)
    comment = f"{family} kernel: " + " ".join(terms)
    p, q, r, s = (rng.randint(1, 9) for _ in range(4))
    if family == "dot product":
        n = rng.randint(30000, 60000)
        init = f"        a[i] = {p}LL * i + {q};\n        b[i] = {r}LL * i + {s};"
        rhs = "a[k] * b[k]"
        value = p * r * s2(n) + (p * s + q * r) * s1(n) + q * s * n
        src = _program(comment, n, "n", "std::vector<long long> a(n), b(n);", init, "",
                       acc, rhs)
        return Kernel(family, src, acc, value, "a", rhs)
    if family == "vector addition":
        n = rng.randint(30000, 60000)
        init = (f"        a[i] = {p}LL * i + {q};\n        b[i] = {r}LL * i + {s};\n"
                "        c[i] = a[i] + b[i];")
        rhs = "c[k]"
        value = (p + r) * s1(n) + (q + s) * n
        src = _program(comment, n, "n", "std::vector<long long> a(n), b(n), c(n);", init,
                       "", acc, rhs)
        return Kernel(family, src, acc, value, "c", rhs)
    if family == "histogram":
        n = rng.randint(30000, 60000)
        bins = rng.choice((7, 11, 13, 16, 17))
        p = rng.choice([x for x in range(2, 30) if gcd(x, bins) == 1])
        target = rng.randrange(bins)
        weight = rng.randint(1, 9)
        init = f"        bin[i] = (int)((i * {p}LL + {q}) % {bins});"
        rhs = f"(bin[k] == {target}) ? {weight}LL : 0LL"
        first = (target - q) * pow(p, -1, bins) % bins
        count = 0 if first >= n else (n - 1 - first) // bins + 1
        src = _program(comment, n, "n", "std::vector<int> bin(n);", init, "", acc, rhs)
        return Kernel(family, src, acc, weight * count, "bin", rhs)
    if family == "matrix multiplication":
        n = rng.randint(40, 64)
        init = ("        for (int j = 0; j < n; ++j) {\n"
                f"            a[i * n + j] = i + j + {p};\n"
                f"            b[i * n + j] = i - j + {q};\n"
                "        }")
        work = (f"{WORK_LOOP}0; r < n; ++r) {{\n"
                "        for (int col = 0; col < n; ++col) {\n"
                "            long long dot = 0;\n"
                "            for (int t = 0; t < n; ++t) {\n"
                "                dot += a[r * n + t] * b[t * n + col];\n"
                "            }\n"
                "            c[r * n + col] = dot;\n"
                "        }\n"
                "    }\n")
        value = -n * s1(n) ** 2 + 2 * q * s1(n) * n * n + s2(n) * n * n + p * q * n ** 3
        src = _program(comment, n, "n * n",
                       "std::vector<long long> a(n * n), b(n * n), c(n * n, 0);",
                       init, work, acc, "c[k]")
        return Kernel(family, src, acc, value, "c", "c[k]")
    if family == "Jacobi 2D method":
        n = rng.randint(120, 200)
        init = ("        for (int j = 0; j < n; ++j) {\n"
                f"            u[i * n + j] = {p}LL * i + {q}LL * j + {s};\n"
                "        }")
        work = (f"{WORK_LOOP}1; r < n - 1; ++r) {{\n"
                "        for (int col = 1; col < n - 1; ++col) {\n"
                "            v[r * n + col] = (u[(r - 1) * n + col] + u[(r + 1) * n + col]"
                " + u[r * n + col - 1] + u[r * n + col + 1]) / 4;\n"
                "        }\n"
                "    }\n")
        inner = n - 2
        value = inner * (p + q) * (inner * (inner + 1) // 2) + s * inner * inner
        src = _program(comment, n, "n * n",
                       "std::vector<long long> u(n * n), v(n * n, 0);", init, work, acc,
                       "v[k]")
        return Kernel(family, src, acc, value, "v", "v[k]")
    if family == "convolution":
        n = rng.randint(30000, 60000)
        w0, w1, w2 = r, s, rng.randint(1, 9)
        init = f"        x[i] = {p}LL * i + {q};"
        work = (f"{WORK_LOOP}1; r < n - 1; ++r) {{\n"
                f"        y[r] = {w0} * x[r - 1] + {w1} * x[r] + {w2} * x[r + 1];\n"
                "    }\n")
        value = (w0 * affine_sum(p, q, 0, n - 3) + w1 * affine_sum(p, q, 1, n - 2)
                 + w2 * affine_sum(p, q, 2, n - 1))
        src = _program(comment, n, "n", "std::vector<long long> x(n), y(n, 0);", init,
                       work, acc, "y[k]")
        return Kernel(family, src, acc, value, "y", "y[k]")
    raise ValueError(f"unknown kernel family {family!r}")


def _insert_before(text: str, anchor: str, lines: str) -> str:
    pos = text.index(anchor)
    return text[:pos] + lines + text[pos:]


def parallelize(source: str, kernel: Kernel, variant: str = PASS, *, style: str = "rag") -> str:
    """The OpenMP reply for a serial source that contains kernel's loops.

    ``variant`` is PASS (correct), LOST_REDUCTION (the reduction variable is
    made firstprivate, so the parallel checksum stays 0: a deterministic
    Mismatch at every thread count) or one of FAULT_CATEGORIES. ``style``
    rag annotates every loop; baseline annotates the reduction loop only, so
    the two profiles never send the compiler the same text. Every reply
    times itself with omp_get_wtime and prints ELAPSED_SECONDS last.
    """
    acc = kernel.acc
    clauses = f"reduction(+:{acc})"
    if variant == LOST_REDUCTION:
        clauses = f"firstprivate({acc})"
    elif variant == "SyntaxError":
        clauses = f"reduction(+:{acc}"
    elif variant == "UndeclaredInClause":
        clauses = f"private(tmp_{acc}) reduction(+:{acc})"
    elif variant == "DefaultNoneViolation":
        clauses = f"default(none) reduction(+:{acc})"
    elif variant == "InvalidReduction":
        clauses = f"reduction(+:{kernel.vector})"
    elif variant == "CollapseMisuse":
        clauses = f"collapse(2) reduction(+:{acc})"
    elif variant == "AtomicMisuse":
        clauses = ""
    elif variant not in (PASS, "OtherCompileError"):
        raise ValueError(f"unknown variant {variant!r}")
    schedule = "schedule(static) " if style == "rag" else ""
    out = source
    if style == "rag":
        out = _insert_before(out, INIT_LOOP, f"    #pragma omp parallel for {schedule}\n")
        if WORK_LOOP in out:
            out = _insert_before(out, WORK_LOOP, f"    #pragma omp parallel for {schedule}\n")
    out = _insert_before(out, REDUCE_LOOP,
                         f"    #pragma omp parallel for {schedule}{clauses}".rstrip() + "\n")
    if variant == "AtomicMisuse":
        out = out.replace(
            f"        {acc} += {kernel.reduce_rhs};",
            f"        #pragma omp atomic\n"
            f"        {acc} = ({acc} < 0 ? 0 : {acc}) + ({kernel.reduce_rhs});",
        )
    if variant == "OtherCompileError":
        out = out.replace(f"    long long {acc} = 0;\n",
                          f"    long long {acc} = 0;\n    Widget helper_{acc};\n")
    out = "#include <omp.h>\n" + out
    out = out.replace(MAIN_LINE, MAIN_LINE + "\n    double t_start = omp_get_wtime();", 1)
    pos = out.rindex(RETURN_LINE)
    timing = '    std::printf("ELAPSED_SECONDS=%.9f\\n", omp_get_wtime() - t_start);\n'
    return out[:pos] + timing + out[pos:]


def reply_text(code: str) -> str:
    """A chat reply carrying code in one cpp fence, as the template asks."""
    return (
        "Here is the OpenMP version of the program:\n\n"
        "```cpp\n" + code.rstrip("\n") + "\n```\n\n"
        "Independent loops carry a parallel for directive; the accumulation "
        "uses a reduction clause.\n"
    )


def expected_code(code: str) -> str:
    """What extract_code must recover from reply_text(code)."""
    return code.rstrip("\n")


# --------------------------------------------------------------------------
# Synthetic tutorial corpus
# --------------------------------------------------------------------------

_SYLLABLES = ("ka", "lo", "mi", "ne", "ru", "ta", "vo", "shi", "pel", "dor",
              "gan", "fir", "quo", "zen", "bri", "tal", "mos", "ver", "lun", "cai")


@dataclass(frozen=True)
class CorpusSpec:
    docs: dict  # relative path -> document text
    chunks: list  # (chunk_id, body) in ingest order


def make_corpus(rng: random.Random, n_docs: int, sections: int) -> CorpusSpec:
    """Markdown documents of one title and ``sections`` sections each.

    Every section body is two paragraphs, well under the chunk budget, so it
    becomes exactly one chunk; a unique topic token per section keeps every
    body, and so every embedding, distinct.
    """
    fillers = sorted({
        "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 3)))
        for _ in range(2400)
    })
    docs: dict[str, str] = {}
    chunks: list[tuple[str, str]] = []
    for d in range(n_docs):
        rel = f"part{d % 8}/doc{d:04d}.md"
        lines = [f"# {' '.join(rng.sample(OMP_TERMS, 3))} guide {d}", ""]
        for sec in range(sections):
            paragraphs = []
            for _ in range(2):
                words = [
                    rng.choice(OMP_TERMS) if rng.random() < 0.35 else rng.choice(fillers)
                    for _ in range(rng.randint(36, 44))
                ]
                paragraphs.append(
                    "\n".join(" ".join(words[i:i + 11]) for i in range(0, len(words), 11))
                )
            paragraphs[0] = f"topic{d}x{sec} " + paragraphs[0]
            body = "\n\n".join(paragraphs)
            lines += [f"## {' '.join(rng.sample(OMP_TERMS, 2))} {sec}", "", body, ""]
            chunks.append((f"{rel}#{sec:04d}", body))
        docs[rel] = "\n".join(lines)
    order = sorted(range(len(chunks)), key=lambda i: chunks[i][0].split("#")[0])
    return CorpusSpec(docs=docs, chunks=[chunks[i] for i in order])


def write_corpus(spec: CorpusSpec, root: Path) -> None:
    for rel, text in spec.docs.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


# --------------------------------------------------------------------------
# Recorded Q&A pages for the harvester
# --------------------------------------------------------------------------

# Snippets the cleaning filters must reject, one per RejectionReason.
_REJECTS = {
    "NoForLoop": (
        "quicksort",
        "#include <cstdio>\n#include <utility>\n\n"
        "int partition_{w}(int* v, int lo, int hi) {{\n"
        "    int pivot = v[hi];\n    int i = lo - 1;\n    int j = lo;\n"
        "    while (j < hi) {{\n        if (v[j] < pivot) {{\n"
        "            ++i;\n            std::swap(v[i], v[j]);\n        }}\n"
        "        ++j;\n    }}\n    std::swap(v[i + 1], v[hi]);\n    return i + 1;\n}}\n",
    ),
    "TooShort": (
        "prefix sum",
        "#include <vector>\n"
        "void scan_{w}(std::vector<long>& v) {{\n"
        "    for (size_t i = 1; i < v.size(); ++i) v[i] += v[i - 1];\n"
        "}}\n",
    ),
    "CompileFail": (
        "Monte Carlo simulation",
        "#include <cstdio>\n#include <vector>\n\n"
        "int main() {{\n    const int trials = {n};\n    long hits = 0;\n"
        "    std::vector<double> xs(trials);\n"
        "    for (int i = 0; i < trials; ++i) {{\n"
        "        xs[i] = sample_uniform_{w}(i);\n"
        "        if (xs[i] < 0.5) {{\n            hits += 1;\n        }}\n    }}\n"
        '    std::printf("%ld\\n", hits);\n    return 0;\n}}\n',
    ),
    "NoInclude": (
        "Mandelbrot set",
        "int escape_{w}(double cr, double ci, int limit) {{\n"
        "    double zr = 0.0;\n    double zi = 0.0;\n    int it = 0;\n"
        "    for (it = 0; it < limit; ++it) {{\n"
        "        double t = zr * zr - zi * zi + cr;\n"
        "        zi = 2.0 * zr * zi + ci;\n        zr = t;\n"
        "        if (zr * zr + zi * zi > 4.0) {{\n            break;\n        }}\n"
        "    }}\n    return it;\n}}\n",
    ),
    "Empty": (
        "Mandelbrot set",
        "// print the escape count for {w}\n"
        'std::printf("%d\\n", count_{w});\n'
        'std::puts("done");\n',
    ),
}
REJECTION_REASONS = tuple(_REJECTS)


@dataclass(frozen=True)
class HarvestItem:
    """One candidate the harvester will see, with its built-in fate."""

    origin_url: str
    category: str
    reason: str | None  # expected RejectionReason value; None for a survivor
    kernel: Kernel | None
    baseline_variant: str = PASS


def harvest_pages(rng: random.Random, categories, round_index: int, gid_base: int,
                  *, survivors: int, baseline_faults: int, rejects: bool = True):
    """Pages for every category plus the candidates they yield, in fetch order.

    Survivors are kernels of the families in turn, starting at a family that
    rotates with the round; with ``rejects`` five more candidates each hit one
    RejectionReason.
    ``baseline_faults`` of the survivors get a baseline reply with a compile
    fault whose category rotates with the round.
    """
    families = [FAMILIES[(round_index + j) % len(FAMILIES)] for j in range(survivors)]
    by_category: dict[str, list[list[dict]]] = {c: [[]] for c in categories}
    fates: dict[str, list[HarvestItem]] = {c: [] for c in categories}
    for j, family in enumerate(families):
        gid = gid_base + j
        kernel = make_kernel(rng, family, gid)
        variant = PASS
        if j < baseline_faults:
            variant = FAULT_CATEGORIES[(round_index * baseline_faults + j) % len(FAULT_CATEGORIES)]
        url = f"https://qa.example/q/{gid}#answer-1"
        if j % 2:
            body = ("Try this version:\n<pre><code>" + html.escape(kernel.source, quote=False)
                    + "</code></pre>\n")
        else:
            body = "Here is a loop that does it:\n\n```cpp\n" + kernel.source + "```\n"
        by_category[family][0].append({"link": url, "body_markdown": body})
        fates[family].append(HarvestItem(url, family, None, kernel, variant))
    for offset, (reason, (category, template)) in enumerate(_REJECTS.items() if rejects else ()):
        gid = gid_base + survivors + offset
        code = template.format(w=f"r{gid}", n=rng.randint(1000, 9000))
        url = f"https://qa.example/q/{gid}#answer-2"
        pages = by_category[category]
        if reason == "Empty":
            pages.append([])  # second page, reached through has_more
        pages[-1].append({"link": url,
                          "body_markdown": "Something like:\n\n```\n" + code + "```\n"})
        fates[category].append(HarvestItem(url, category, reason, None))
    files: dict[str, dict] = {}
    for category, pages in by_category.items():
        slug = re.sub(r"[^a-z0-9]+", "_", category.lower()).strip("_")
        if not pages[0]:
            pages[0].append({"link": f"https://qa.example/q/prose-{slug}",
                             "body_markdown": "Sort the data first; no code needed."})
        for number, items in enumerate(pages, start=1):
            files[f"{slug}_p{number}.json"] = {"items": items,
                                              "has_more": number < len(pages)}
    ordered = [item for category in categories for item in fates[category]]
    return files, ordered


def write_pages(files: dict, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, payload in files.items():
        (directory / name).write_text(json.dumps(payload), encoding="utf-8")
