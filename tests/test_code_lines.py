"""The code-line counter in ``tools/code_lines.py``, on a small source string."""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def test_counts_code_net_of_blanks_comments_and_docstrings():
    spec = importlib.util.spec_from_file_location("_code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    source = '''"""A module docstring
over two lines."""

# a comment
import os  # a trailing comment


def f(x):
    """A function docstring."""
    text = """a string that is
    not a docstring"""
    return (x +
            1)
'''
    # import, def, the two lines of ``text`` and the two of the return
    assert module.code_lines(source) == 6
