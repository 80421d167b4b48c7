#!/usr/bin/env python
"""Docs-site gate: relative links resolve, docs match the code.

Four checks over ``docs/*.md`` and ``README.md``, and one over the code:

1. **Link resolution** -- every relative markdown link target (after
   stripping any ``#fragment``) must exist on disk.  External links
   (``http(s)://``, ``mailto:``) and same-page anchors are skipped.
2. **Capability-matrix drift** -- the table between the
   ``capability-matrix`` markers in ``docs/capabilities.md`` must be
   byte-identical to what the live mapping registry renders (same column
   definitions as ``repro list``, via :data:`repro.cli._CAPABILITY_COLUMNS`).
   Registering a new mapping or flipping a capability bit without
   regenerating the docs fails CI.
3. **CLI flags** -- every ``--flag`` written in ``docs/cli.md`` must be an
   option string of :func:`repro.cli._build_parser` or one of its
   subcommands, so a removed or renamed flag cannot stay documented.
4. **Doc names in code** -- every ``*.md`` path named in ``src/``,
   ``benchmarks/`` or ``scripts/`` (a docstring's "see docs/cli.md")
   must exist, at the repo root, under ``docs/`` or beside the naming
   file, so a deleted or renamed document cannot stay cited.
5. **Doc imports** -- every ``from repro… import name`` (and ``import
   repro…``) in a fenced ``python`` block of the docs or the README must
   resolve against the live package, so a removed public name cannot stay
   in an example.

Usage::

    python scripts/check_docs.py            # check, exit 1 on any failure
    python scripts/check_docs.py --write    # regenerate the matrix block

Exit status: 0 clean, 1 on any failed check, 2 when the markers or files
the checks need are missing.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import re
import sys
from pathlib import Path
from typing import List, Set

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS_DIR = REPO_ROOT / "docs"
CAPABILITIES_DOC = DOCS_DIR / "capabilities.md"
CLI_DOC = DOCS_DIR / "cli.md"
MATRIX_BEGIN = "<!-- capability-matrix:begin -->"
MATRIX_END = "<!-- capability-matrix:end -->"

#: ``[text](target)`` -- target up to the first ``)`` or whitespace, which
#: is all the docs tree uses (no titles, no nested parens in URLs).
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: A long option as written in prose or an example (not a ``---`` rule).
FLAG_RE = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
#: A markdown file named in code: ``ROADMAP.md``, ``docs/cli.md``.
MD_PATH_RE = re.compile(r"[\w./-]*\w\.md\b")
#: A fenced python block's body, up to its closing fence.
PY_FENCE_RE = re.compile(r"^```python[^\n]*\n(.*?)^```", re.M | re.S)
#: The code trees whose docstrings and comments may cite a document.
CODE_DIRS = ("src", "benchmarks", "scripts")


def _import_repro() -> None:
    """Make ``repro`` importable from a plain checkout (no install)."""
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(REPO_ROOT / "src"))


def doc_files() -> List[Path]:
    """The markdown files under the gate: the docs tree plus the README."""
    return sorted(DOCS_DIR.glob("*.md")) + [REPO_ROOT / "README.md"]


def check_links(path: Path) -> List[str]:
    """Broken relative links in one file, as printable error strings."""
    errors: List[str] = []
    for target in LINK_RE.findall(path.read_text(encoding="utf-8")):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        file_part = target.split("#", 1)[0]
        if not file_part:
            continue  # same-page anchor
        if not (path.parent / file_part).resolve().exists():
            rel = path.relative_to(REPO_ROOT)
            errors.append(f"{rel}: broken link -> {target}")
    return errors


def render_matrix() -> str:
    """The capability matrix as a markdown table, from the live registry."""
    _import_repro()
    from repro.cli import _CAPABILITY_COLUMNS
    from repro.mappings import capability_table

    headers = [header for header, _ in _CAPABILITY_COLUMNS] + ["description"]
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for name, caps in capability_table():
        cells = [render(name, caps) for _, render in _CAPABILITY_COLUMNS]
        cells[0] = f"`{cells[0]}`"
        cells.append(caps.description)
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def check_matrix(write: bool) -> List[str]:
    """Compare (or with ``write`` rewrite) the generated matrix block."""
    if not CAPABILITIES_DOC.exists():
        print(f"check_docs: {CAPABILITIES_DOC} does not exist", file=sys.stderr)
        sys.exit(2)
    text = CAPABILITIES_DOC.read_text(encoding="utf-8")
    if MATRIX_BEGIN not in text or MATRIX_END not in text:
        print(
            f"check_docs: {CAPABILITIES_DOC.name} is missing the "
            f"{MATRIX_BEGIN} / {MATRIX_END} markers",
            file=sys.stderr,
        )
        sys.exit(2)
    head, rest = text.split(MATRIX_BEGIN, 1)
    _stale, tail = rest.split(MATRIX_END, 1)
    expected = f"{MATRIX_BEGIN}\n{render_matrix()}\n{MATRIX_END}"
    if text == head + expected + tail:
        return []
    if write:
        CAPABILITIES_DOC.write_text(head + expected + tail, encoding="utf-8")
        print(f"regenerated capability matrix in {CAPABILITIES_DOC.name}")
        return []
    return [
        f"docs/{CAPABILITIES_DOC.name}: capability matrix drifted from the "
        f"mapping registry (run `python scripts/check_docs.py --write`)"
    ]


def cli_option_strings() -> Set[str]:
    """Every option string of the ``repro`` parser and its subparsers."""
    _import_repro()
    from repro.cli import _build_parser

    options: Set[str] = set()
    parsers = [_build_parser()]
    while parsers:
        parser = parsers.pop()
        for action in parser._actions:
            options.update(action.option_strings)
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    return options


def check_cli_flags() -> List[str]:
    """Flags written in ``docs/cli.md`` that no ``repro`` parser accepts."""
    known = cli_option_strings()
    flags = FLAG_RE.findall(CLI_DOC.read_text(encoding="utf-8"))
    return [
        f"docs/{CLI_DOC.name}: {flag} is not an option of `repro` or its subcommands"
        for flag in sorted(set(flags) - known)
    ]


def check_md_names() -> List[str]:
    """``*.md`` paths named in the code trees that resolve nowhere."""
    errors: List[str] = []
    for tree in CODE_DIRS:
        for path in sorted((REPO_ROOT / tree).rglob("*")):
            if path.suffix not in (".py", ".sh"):
                continue
            text = path.read_text(encoding="utf-8")
            for number, line in enumerate(text.splitlines(), 1):
                for name in MD_PATH_RE.findall(line):
                    if not any(
                        (base / name).exists()
                        for base in (REPO_ROOT, DOCS_DIR, path.parent)
                    ):
                        rel = path.relative_to(REPO_ROOT)
                        errors.append(f"{rel}:{number}: names {name}, which does not exist")
    return errors


def _resolves(module: str, name: str | None) -> bool:
    """Whether ``from module import name`` (or ``import module``) works."""
    try:
        imported = importlib.import_module(module)
    except ImportError:
        return False
    if name is None or name == "*" or hasattr(imported, name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def check_doc_imports(path: Path) -> List[str]:
    """``repro`` imports in one file's python blocks that do not resolve."""
    _import_repro()
    errors: List[str] = []
    rel = path.relative_to(REPO_ROOT)
    text = path.read_text(encoding="utf-8")
    for match in PY_FENCE_RE.finditer(text):
        first_line = text.count("\n", 0, match.start(1)) + 1
        try:
            tree = ast.parse(match.group(1))
        except SyntaxError as exc:
            line = first_line + (exc.lineno or 1) - 1
            errors.append(f"{rel}:{line}: python block does not parse")
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                pairs = [(node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                pairs = [(alias.name, None) for alias in node.names]
            else:
                continue
            for module, name in pairs:
                if module.split(".")[0] != "repro" or _resolves(module, name):
                    continue
                line = first_line + node.lineno - 1
                shown = f"import {module}" if name is None else f"from {module} import {name}"
                errors.append(f"{rel}:{line}: `{shown}` does not resolve")
    return errors


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Check docs links and capability-matrix freshness."
    )
    parser.add_argument(
        "--write",
        action="store_true",
        help="regenerate the capability matrix block instead of diffing it",
    )
    args = parser.parse_args(argv)

    errors: List[str] = []
    files = doc_files()
    for path in files:
        if not path.exists():
            print(f"check_docs: {path} does not exist", file=sys.stderr)
            return 2
        errors.extend(check_links(path))
        errors.extend(check_doc_imports(path))
    errors.extend(check_matrix(write=args.write))
    errors.extend(check_cli_flags())
    errors.extend(check_md_names())

    if errors:
        for error in errors:
            print(error, file=sys.stderr)
        print(f"\nFAIL: {len(errors)} docs problem(s)", file=sys.stderr)
        return 1
    print(
        f"OK: {len(files)} file(s) checked, links resolve, matrix is fresh, "
        f"CLI flags exist, cited documents exist, doc imports resolve"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
