"""Line counts of the ``adaptgof`` modules: total, docstring, comment and code.

Usage:
  python tools/src_lines.py [DIR]

DIR defaults to ``src/adaptgof`` next to this script. For every ``*.py``
module in it, and for all of them together, the script prints:

- ``total``: every line of the file;
- ``docstring``: the lines of the module's, the classes' and the functions'
  docstrings (found through the AST, from their first to their last line);
- ``comment``: lines outside docstrings whose text starts with ``#``;
- ``code``: the other non-blank lines outside docstrings.

Blank lines make up the rest of ``total``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

_DEFAULT = Path(__file__).resolve().parent.parent / "src" / "adaptgof"
_FIELDS = ("total", "docstring", "comment", "code")


def _docstring_lines(tree: ast.Module) -> set:
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> dict:
    """The ``total``, ``docstring``, ``comment`` and ``code`` lines of one module's source."""
    lines = text.splitlines()
    docs = _docstring_lines(ast.parse(text))
    out = dict.fromkeys(_FIELDS, 0)
    out["total"] = len(lines)
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if number in docs:
            out["docstring"] += 1
        elif stripped.startswith("#"):
            out["comment"] += 1
        elif stripped:
            out["code"] += 1
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else _DEFAULT
    rows = {path.name: count(path.read_text(encoding="utf-8"))
            for path in sorted(root.glob("*.py"))}
    rows["all"] = {f: sum(r[f] for r in rows.values()) for f in _FIELDS}
    width = max(len(name) for name in rows)
    print(f"{'module':<{width}}" + "".join(f"{f:>11}" for f in _FIELDS))
    for name, row in rows.items():
        print(f"{name:<{width}}" + "".join(f"{row[f]:>11,}" for f in _FIELDS))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
