#!/usr/bin/env python
"""Unused-import checker: an AST scan of imported names against uses.

A dependency-free stand-in for a linter's unused-import rule, scoped
(by default) to ``src/``.  A name bound by ``import`` or ``from ...
import`` counts as used when the module mentions it anywhere as a
name — in code, in an annotation, or inside a string annotation such
as ``"FaultInjector | None"``.  Exempt by design:

- package ``__init__.py`` files, whose imports are the re-exports;
- ``from __future__`` imports;
- names listed in the module's ``__all__``;
- explicit re-exports spelled ``import x as x`` /
  ``from m import x as x``.

Usage::

    python scripts/check_imports.py [paths...]

Exits non-zero listing every unused import as ``path:line: name``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_SCOPE = REPO_ROOT / "src"


def _imported(tree: ast.Module) -> list[tuple[str, int]]:
    """(bound name, line) for every import that is not an explicit re-export."""
    out: list[tuple[str, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is None:
                    out.append((alias.name.split(".")[0], node.lineno))
                elif alias.asname != alias.name:
                    out.append((alias.asname, node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name == "*" or alias.asname == alias.name:
                    continue
                out.append((alias.asname or alias.name, node.lineno))
    return out


def _annotation_strings(tree: ast.Module) -> list[str]:
    annotations: list[ast.expr | None] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    return [
        a.value
        for a in annotations
        if isinstance(a, ast.Constant) and isinstance(a.value, str)
    ]


def _used(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for text in _annotation_strings(tree):
        try:
            used |= _used(ast.parse(text, mode="eval"))  # type: ignore[arg-type]
        except SyntaxError:
            continue
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used |= {
                elt.value
                for elt in node.value.elts
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            }
    return used


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """Sorted ``(line, name)`` of the imports ``path`` never uses."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used(tree)
    return sorted(
        (line, name) for name, line in _imported(tree) if name not in used
    )


def main(argv: list[str]) -> int:
    roots = [Path(p) for p in argv] or [DEFAULT_SCOPE]
    files = sorted(
        f
        for root in roots
        for f in ([root] if root.is_file() else root.rglob("*.py"))
        if f.name != "__init__.py"
    )
    problems = 0
    for path in files:
        for line, name in unused_imports(path):
            print(f"{path}:{line}: unused import {name!r}")
            problems += 1
    if problems:
        print(f"{problems} unused import(s) in {len(files)} file(s)")
        return 1
    print(f"imports ok: {len(files)} file(s), no unused imports")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
