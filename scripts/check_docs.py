#!/usr/bin/env python3
"""Documentation consistency checks (CI `docs` job).

Five checks, all stdlib-only:

1. Relative markdown links in README.md and docs/*.md must resolve to
   files that exist in the repo (anchors are stripped; absolute URLs and
   mailto: links are skipped).
2. Drift guard: docs/WIRE_PROTOCOL.md is the normative wire spec. Its
   opcode catalog is read both ways against `enum class Opcode`
   (src/net/wire.h): each catalog row (`| `kName` | N | ...`) must name
   an enumerator whose value is N, each enumerator must have exactly one
   catalog row, and every other table row that opens with a backticked
   `kName` (the success-payload table) must name an enumerator too.
   Every enumerator of `enum class StatusCode` (src/util/status.h) must
   appear in the document by exact name (e.g. `kNotFound`), and so must
   every `FourCc("....")` section tag in src/net/wire.{h,cc} (e.g.
   `RQRM`). Every other `FourCc("....")` tag under src/ (archive
   sections such as `SNAP` or `FMAP`) must appear in README.md or a
   docs/*.md file. Adding, deleting or renumbering an opcode, or adding
   a status code, a payload section or an archive section, without
   updating the docs fails CI.
3. Backend drift guard: docs/ARCHITECTURE.md documents the scoring
   backends and their SIMD dispatch tiers, so every name in
   `kScoringBackendNames` (src/ml/scoring_backend.h) must appear in it
   verbatim (e.g. `compiled-dtb-avx512`). Adding a backend or a
   dispatch tier without documenting it fails CI.
4. Stale-path guard: every backticked `src/...` or `tests/...` path in a
   git-tracked markdown file must exist. A `:123` line suffix is
   ignored, `{h,cc}` braces must all exist, and a `*` glob must match at
   least one file. Top-level markdown other than README.md and ROADMAP.md
   is exempt: those files are the change log and working notes, which name
   files as they were before a change deleted them.
   Deleting or moving a source file without updating the docs fails CI.
5. Orphan-header guard: every git-tracked `src/**/*.h` must be
   `#include`d by some file under src/, bench/, examples/ or perfbench/
   other than its own `.cc`. A module that only tests include is code
   nothing runs, and fails CI.

Exit status: 0 if everything checks out, 1 otherwise (each problem is
printed on its own line).
"""

import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# [text](target) — excluding images' extra '!' does not matter for
# existence checks, so one pattern covers links and images alike.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
SKIP_SCHEMES = ("http://", "https://", "mailto:")


def markdown_files():
    files = [REPO / "README.md"]
    files += sorted((REPO / "docs").glob("*.md"))
    return [f for f in files if f.is_file()]


def check_links():
    problems = []
    for md in markdown_files():
        text = md.read_text(encoding="utf-8")
        # Code is illustrative, not navigable: drop fenced blocks and
        # inline spans (`preds.g[v](c)` would otherwise parse as a link).
        text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
        text = re.sub(r"`[^`\n]*`", "", text)
        for match in LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(SKIP_SCHEMES) or target.startswith("#"):
                continue
            path_part = target.split("#", 1)[0]
            if not path_part:
                continue
            resolved = (md.parent / path_part).resolve()
            if not resolved.exists():
                problems.append(
                    f"{md.relative_to(REPO)}: broken link -> {target}"
                )
    return problems


def enum_members(header, enum_name):
    """Return (name, value) for each kSomething enumerator of one enum
    class; the value is None where the enumerator has no initializer."""
    text = (REPO / header).read_text(encoding="utf-8")
    match = re.search(
        r"enum\s+class\s+" + re.escape(enum_name) + r"\b[^{]*\{(.*?)\}",
        text,
        flags=re.DOTALL,
    )
    if match is None:
        raise SystemExit(f"error: enum class {enum_name} not found in {header}")
    body = re.sub(r"//[^\n]*", "", match.group(1))  # strip comments
    members = re.findall(r"\b(k\w+)\b\s*(?:=\s*(\d+)\s*)?(?:,|$)", body)
    if not members:
        raise SystemExit(f"error: no enumerators parsed for {enum_name}")
    return [(name, int(value) if value else None) for name, value in members]


# A table row whose first cell is a backticked enumerator, and its second
# cell: the opcode's value in the catalog, prose in the success table.
ENUM_ROW_RE = re.compile(r"^\|\s*`(k\w+)`\s*\|\s*([^|]*?)\s*\|",
                         re.MULTILINE)


def check_opcode_catalog(doc):
    """The opcode rows of WIRE_PROTOCOL.md against `enum class Opcode`."""
    where = "docs/WIRE_PROTOCOL.md"
    values = dict(enum_members("src/net/wire.h", "Opcode"))
    problems = []
    catalog = {}  # enumerator -> the values its catalog rows give
    for name, cell in ENUM_ROW_RE.findall(doc):
        if name not in values:
            problems.append(f"{where}: table row `{name}` names no Opcode "
                            f"enumerator (src/net/wire.h)")
        elif cell.isdigit():
            catalog.setdefault(name, []).append(int(cell))
    for name, value in values.items():
        rows = catalog.get(name, [])
        if len(rows) != 1:
            problems.append(f"{where}: Opcode `{name}` has {len(rows)} "
                            f"catalog rows, not exactly one")
        elif rows[0] != value:
            problems.append(f"{where}: catalog row gives `{name}` value "
                            f"{rows[0]}, src/net/wire.h gives {value}")
    return problems


def check_wire_doc():
    problems = []
    doc_path = REPO / "docs" / "WIRE_PROTOCOL.md"
    if not doc_path.is_file():
        return ["docs/WIRE_PROTOCOL.md is missing"]
    doc = doc_path.read_text(encoding="utf-8")
    problems += check_opcode_catalog(doc)
    for member, _ in enum_members("src/util/status.h", "StatusCode"):
        if member not in doc:
            problems.append(
                f"docs/WIRE_PROTOCOL.md: StatusCode entry `{member}` "
                f"(src/util/status.h) is undocumented"
            )
    for source in ("src/net/wire.h", "src/net/wire.cc"):
        for tag in fourcc_tags(source):
            if re.search(r"\b" + re.escape(tag) + r"\b", doc) is None:
                problems.append(
                    f"docs/WIRE_PROTOCOL.md: section tag `{tag}` "
                    f"({source}) is undocumented"
                )
    docs = "\n".join(md.read_text(encoding="utf-8") for md in markdown_files())
    for source in sorted((REPO / "src").rglob("*.[hc]*")):
        rel = source.relative_to(REPO).as_posix()
        for tag in fourcc_tags(rel):
            if re.search(r"\b" + re.escape(tag) + r"\b", docs) is None:
                problems.append(
                    f"README.md, docs/*.md: section tag `{tag}` ({rel}) "
                    f"is undocumented"
                )
    return problems


def fourcc_tags(source):
    """Return the FourCc("....") tags one source file names."""
    text = (REPO / source).read_text(encoding="utf-8")
    return sorted(set(re.findall(r'FourCc\("(.{4})"\)', text)))


def scoring_backend_names():
    """Return the string literals of kScoringBackendNames."""
    header = "src/ml/scoring_backend.h"
    text = (REPO / header).read_text(encoding="utf-8")
    match = re.search(
        r"kScoringBackendNames\[\]\s*=\s*\{(.*?)\}", text, flags=re.DOTALL
    )
    if match is None:
        raise SystemExit(f"error: kScoringBackendNames not found in {header}")
    names = re.findall(r'"([^"]+)"', match.group(1))
    if not names:
        raise SystemExit("error: no names parsed from kScoringBackendNames")
    return names


def check_backend_doc():
    problems = []
    doc_path = REPO / "docs" / "ARCHITECTURE.md"
    if not doc_path.is_file():
        return ["docs/ARCHITECTURE.md is missing"]
    doc = doc_path.read_text(encoding="utf-8")
    for name in scoring_backend_names():
        # Require the exact backend string; `compiled-dtb` alone must not
        # satisfy `compiled-dtb-avx512`, so match with word-ish boundaries.
        if re.search(r"(?<![\w-])" + re.escape(name) + r"(?![\w-])", doc) is None:
            problems.append(
                f"docs/ARCHITECTURE.md: scoring backend `{name}` "
                f"(src/ml/scoring_backend.h) is undocumented"
            )
    return problems


CODE_PATH_RE = re.compile(r"`((?:src|tests)/[^`\s]*)`")
PATH_CHECKED_TOP_LEVEL = {"README.md", "ROADMAP.md"}


def git_files(*pathspecs):
    out = subprocess.run(["git", "ls-files", *pathspecs], cwd=REPO,
                         capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"error: git ls-files failed: {out.stderr.strip()}")
    return out.stdout.split()


def tracked_markdown():
    return [p for p in git_files("*.md")
            if "/" in p or p in PATH_CHECKED_TOP_LEVEL]


def expand_braces(path):
    """`a.{h,cc}` -> [`a.h`, `a.cc`] (one brace group, as the docs use)."""
    match = re.search(r"\{([^{}]*)\}", path)
    if match is None:
        return [path]
    head, tail = path[: match.start()], path[match.end() :]
    return [head + alt + tail for alt in match.group(1).split(",")]


def check_code_paths():
    problems = []
    for rel in tracked_markdown():
        text = (REPO / rel).read_text(encoding="utf-8")
        for match in CODE_PATH_RE.finditer(text):
            ref = re.sub(r":\d+$", "", match.group(1))
            if "…" in ref or "..." in ref:
                continue  # a placeholder (`src/…`), not a path
            for path in expand_braces(ref):
                if "*" in path:
                    found = any(REPO.glob(path))
                else:
                    found = (REPO / path).exists()
                if not found:
                    problems.append(f"{rel}: stale path `{match.group(1)}`")
    return problems


INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)
RUNNING_DIRS = ("src", "bench", "examples", "perfbench")


def check_orphan_headers():
    """Headers no binary, bench, example or perfbench source includes."""
    included = {}  # header -> the files that include it
    for rel in git_files(*RUNNING_DIRS):
        if not rel.endswith((".h", ".cc", ".cpp")):
            continue
        text = (REPO / rel).read_text(encoding="utf-8")
        for target in INCLUDE_RE.findall(text):
            # Quoted includes resolve against src/ (the include root) or
            # the including file's own directory.
            for base in (Path("src"), Path(rel).parent):
                header = (base / target).as_posix()
                if (REPO / header).is_file():
                    included.setdefault(header, set()).add(rel)
                    break
    problems = []
    for header in git_files("src/*.h"):
        own_cc = header[: -len(".h")] + ".cc"
        if not included.get(header, set()) - {own_cc}:
            problems.append(
                f"{header}: no file under src/, bench/, examples/ or "
                f"perfbench/ includes it (only tests or its own .cc do)"
            )
    return problems


def main():
    problems = (check_links() + check_wire_doc() + check_backend_doc() +
                check_code_paths() + check_orphan_headers())
    for p in problems:
        print(p)
    if problems:
        print(f"{len(problems)} documentation problem(s).")
        return 1
    n_files = len(markdown_files())
    print(f"docs OK: {n_files} markdown files, links resolve, "
          f"WIRE_PROTOCOL.md's opcode catalog matches the Opcode enum "
          f"row for row, it covers every status code and "
          f"payload tag, the docs name every archive section tag, "
          f"ARCHITECTURE.md covers every scoring backend, "
          f"every backticked src/ and tests/ path exists, "
          f"every src/ header is included by code that runs.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
