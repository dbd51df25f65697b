#!/usr/bin/env python
"""Code-line count: the rule behind the ROADMAP's line numbers.

A *code line* is a physical line carrying at least one token that is
not a comment, not blank layout and not part of a docstring (the
leading string expression of a module, class or function body, found
with ``ast``; everything else is classified with ``tokenize``).  Prints
one row per package directly under the root plus the root total — its
code lines, its modules (``.py`` files other than ``__init__.py``) and
its classes (``class`` statements, nested ones included, a first
measure of concepts) — so a simplification PR quotes numbers anyone
can regenerate::

    python tools/code_lines.py            # src/repro
    python tools/code_lines.py src/repro/serve

Used by CI's lint job (see ``.github/workflows/ci.yml``).
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """Line numbers covered by module/class/function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if isinstance(first, ast.Expr) \
                and isinstance(first.value, ast.Constant) \
                and isinstance(first.value.value, str):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def measure(path: Path) -> tuple:
    """Code lines (non-blank, non-comment, non-docstring) and class
    definitions of one source file."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    skip = docstring_lines(tree)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    classes = sum(isinstance(node, ast.ClassDef) for node in ast.walk(tree))
    return len(lines - skip), classes


def main(argv) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/repro")
    counts = {}
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        group = rel.parts[0] if len(rel.parts) > 1 else "."
        lines, modules, classes = counts.get(group, (0, 0, 0))
        n_lines, n_classes = measure(path)
        counts[group] = (lines + n_lines,
                         modules + (path.name != "__init__.py"),
                         classes + n_classes)
    rows = sorted(counts.items()) if len(counts) > 1 else []
    rows.append((str(root), tuple(map(sum, zip(*counts.values())))))
    width = max(len(label) for label, _ in rows)
    print(f"{'':<{width}}  {'lines':>6}  {'modules':>7}  {'classes':>7}")
    for label, (lines, modules, classes) in rows:
        print(f"{label:<{width}}  {lines:>6}  {modules:>7}  {classes:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
