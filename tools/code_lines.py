"""Count the code lines of a Python package, per module and in total.

A code line is a line that some statement covers (from its first line, or
its first decorator's, to its last, so a call or literal spread over several
lines counts each of them), less the lines of docstrings (module, class and
function), lines that hold only a comment, and blank lines.  Counted from the
AST, the figure does not move when a docstring or a comment is reworded.

    python tools/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to the repository's ``src/diracsim``.  It prints one
line per module, ``<lines>  <file>``, then ``<total>  total``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

DEFAULT_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "diracsim"


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    tree = ast.parse(source)
    covered = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            covered.update(range(first, node.end_lineno + 1))
    text = source.splitlines()
    blank_or_comment = {i for i, line in enumerate(text, 1)
                        if not line.strip() or line.lstrip().startswith("#")}
    return len(covered - _docstring_lines(tree) - blank_or_comment)


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else DEFAULT_PACKAGE
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
