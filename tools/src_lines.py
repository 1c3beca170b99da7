"""Lines and code lines per module of ``src/peertrade``, and in total.

    python3 tools/src_lines.py [SRC_DIR]

``SRC_DIR`` defaults to this checkout's ``src/peertrade``.  A code line is
a line that is not blank, not a comment and not part of a docstring (the
first string statement of a module, class or function).
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "peertrade"


def count(text: str) -> tuple:
    """``(lines, code_lines)`` of one Python source text."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    code = set()
    skip = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER)
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in skip:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstrings)


def modules(src: Path) -> dict:
    """``{module: (lines, code_lines)}`` for every ``*.py`` in ``src``."""
    return {path.stem: count(path.read_text(encoding="utf-8"))
            for path in sorted(src.glob("*.py"))}


def totals(src: Path) -> dict:
    """``{"lines", "code_lines"}`` summed over the modules in ``src``."""
    per = modules(src).values()
    return {"lines": sum(l for l, _ in per), "code_lines": sum(c for _, c in per)}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    src = Path(args[0]) if args else SRC
    print(f"{'module':<16} {'lines':>6} {'code':>6}")
    for name, (lines, code) in modules(src).items():
        print(f"{name:<16} {lines:>6} {code:>6}")
    total = totals(src)
    print(f"{'total':<16} {total['lines']:>6} {total['code_lines']:>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
