#!/usr/bin/env python
"""Unused-import pass over the tracked sources, standard library only.

The fallback half of ``scripts/lint.sh`` on a machine without ``ruff``: it
covers the one ruff finding (F401) that a missing linter lets rot fastest.
An import counts as used when its bound name appears as an identifier
anywhere in the module, or inside a string constant (``__all__`` entries,
quoted annotations).  A line carrying ``# noqa`` and a re-export spelled
``import x as x`` are left alone, as ruff leaves them.

    python scripts/unused_imports.py src tests benchmarks examples scripts

Exits 1 and prints ``path:line: name`` per finding.
"""

from __future__ import annotations

import ast
import re
import subprocess
import sys
from pathlib import Path
from typing import Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def tracked_sources(roots: List[str]) -> List[Path]:
    """The ``*.py`` files git tracks (or is about to) under ``roots``."""
    listed = subprocess.run(
        ["git", "ls-files", "--cached", "--others", "--exclude-standard", "--", *roots],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    return [ROOT / name for name in listed if name.endswith(".py") and (ROOT / name).exists()]


def _bindings(tree: ast.AST) -> Iterator[Tuple[str, int]]:
    """``(bound name, line)`` of every import that is not a re-export."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*" or alias.asname == alias.name:
                    continue
                name = alias.name.split(".")[0] if isinstance(node, ast.Import) else alias.name
                yield alias.asname or name, alias.lineno


def _used(tree: ast.AST) -> Set[str]:
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(_IDENTIFIER.findall(node.value))
    return used


def unused_imports(path: Path) -> List[Tuple[int, str]]:
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    used = _used(tree)
    return sorted(
        (line, name)
        for name, line in _bindings(tree)
        if name not in used and "# noqa" not in lines[line - 1]
    )


def main(argv: List[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    findings = 0
    files = tracked_sources(argv)
    for path in files:
        for line, name in unused_imports(path):
            print(f"{path.relative_to(ROOT)}:{line}: unused import {name!r}")
            findings += 1
    print(f"unused_imports: {len(files)} files, {findings} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
