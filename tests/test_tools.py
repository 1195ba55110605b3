"""Repository tools."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_blank_comment_and_docstring_lines():
    text = '''"""Module
docstring."""

# a comment
import math  # trailing comments stay code


class A:
    """One line."""

    def f(self, x):
        """Two
        lines."""
        s = """not a
        docstring"""
        return (x +
                math.pi)
'''
    # code: import, class, def, the two-line string assignment, the two-line return
    assert _load("src_lines").code_lines(text) == 7
