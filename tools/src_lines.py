"""Line counts of the library source: total lines, and code-only lines.

Code-only lines leave out blank lines, comment-only lines and docstring lines
(the leading string of a module, class or function body).  Counts
src/hypoexp/*.py:

    python tools/src_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def code_lines(text):
    """Number of lines of ``text`` that hold code outside docstrings."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


def main():
    root = Path(__file__).resolve().parent.parent
    paths = sorted((root / "src" / "hypoexp").glob("*.py"))
    total = code = 0
    for path in paths:
        text = path.read_text(encoding="utf-8")
        lines, lines_code = len(text.splitlines()), code_lines(text)
        total += lines
        code += lines_code
        print(f"{lines:6d} {lines_code:6d}  {path.name}")
    print(f"{total:6d} {code:6d}  total (lines, code-only lines)")


if __name__ == "__main__":
    main()
