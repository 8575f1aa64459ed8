"""Count the code lines of Python files: no blank, comment or docstring lines.

A physical line counts when it carries a token other than a comment, a
newline or an indent change (``tokenize``); the lines of module, class and
function docstrings (found with ``ast``) are then taken off.  A line that
holds both code and part of a docstring, such as ``def f(): "doc"``, does
not count.

Usage::

    python3 tools/code_lines.py [PATH ...]

Each PATH is a ``.py`` file or a directory searched for ``*.py`` files; the
default is ``src/orbitbnf`` next to this script's parent.  Prints one
``count  path`` line per file and the total last.
"""

import ast
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER, tokenize.ENCODING}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """Line numbers of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, _DOCUMENTED) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    """The number of code lines of the Python file ``path``."""
    source = Path(path).read_bytes()
    lines = set()
    with open(path, "rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _SKIPPED:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv):
    default = Path(__file__).resolve().parent.parent / "src" / "orbitbnf"
    files = []
    for arg in argv or [default]:
        arg = Path(arg)
        files += sorted(arg.rglob("*.py")) if arg.is_dir() else [arg]
    total = 0
    for path in files:
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
