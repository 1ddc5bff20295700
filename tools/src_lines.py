"""Print each ``src/resemi`` module's total lines and code-only lines, and
their sums.

Code-only lines exclude blank lines, comment lines and docstring lines:
a line counts when a token other than a comment, a newline or an indent
marks it, and that token is not a docstring (the string statement that
opens a module, class or function, found with ``ast``).  A statement
spanning several lines counts each of them.

Run from the repository root: ``python tools/src_lines.py``; or give a
package directory: ``python tools/src_lines.py path/to/src/resemi``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(total lines, code-only lines) of one module's source."""
    docstrings = _docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            code.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docstrings)
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "resemi"
    total = code = 0
    print(f"{'module':<24} {'total':>6} {'code':>6}")
    for path in sorted(root.glob("*.py")):
        t, c = count(path.read_text())
        total, code = total + t, code + c
        print(f"{path.name:<24} {t:>6} {c:>6}")
    print(f"{'sum':<24} {total:>6} {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
