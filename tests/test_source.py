"""Checks on the program's source text."""

import ast
from pathlib import Path

import mirrorcone


def test_src_has_no_assert_statements():
    # a certificate must raise a named failure: python -O strips an assert
    sources = sorted(Path(mirrorcone.__file__).parent.glob("*.py"))
    asserts = [f"{path.name}:{node.lineno}" for path in sources
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.Assert)]
    assert len(sources) >= 10
    assert asserts == []
