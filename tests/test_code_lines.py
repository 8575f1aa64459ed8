"""The code-line counter of ``tools/code_lines.py``."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)


def test_counts_code_but_not_docstrings_comments_or_blank_lines(tmp_path):
    source = '''"""Module docstring,
over two lines."""

import math  # a comment on a code line counts


class A:
    """Class docstring."""

    def f(self, x):
        """Function
        docstring."""
        # a comment line
        text = """a string that is
not a docstring"""
        return (x +
                math.pi)
'''
    path = tmp_path / "sample.py"
    path.write_text(source)
    # import, class, def, the two lines of `text` and the two of the return
    assert code_lines.code_lines(path) == 7
