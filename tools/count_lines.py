"""Count the lines of the package source: code lines and all lines.

A code line holds some Python token that is not a comment and not part of
a docstring (the first string statement of a module, class or function);
blank lines, comment lines and docstring lines are not code.  Run from the
repository root:

    python3 tools/count_lines.py [DIR]

DIR defaults to ``src``.  It prints one row per ``.py`` file under DIR and
a total row, each with its code lines and all its lines.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(path):
    """(code lines, all lines) of the Python file at ``path``."""
    text = Path(path).read_text()
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            code.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(code), len(text.splitlines())


def main(argv):
    root = Path(argv[1] if len(argv) > 1 else "src")
    total_code = total_all = 0
    for path in sorted(root.rglob("*.py")):
        code, lines = count(path)
        total_code, total_all = total_code + code, total_all + lines
        print(f"{code:6d} {lines:6d}  {path}")
    print(f"{total_code:6d} {total_all:6d}  total (code lines, all lines)")


if __name__ == "__main__":
    main(sys.argv)
