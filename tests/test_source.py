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


def test_src_raises_no_bare_certificate_failure():
    # each certificate raises its own subclass, so a failure names its check
    sources = sorted(Path(mirrorcone.__file__).parent.glob("*.py"))
    bare = [f"{path.name}:{node.lineno}" for path in sources
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and isinstance(node.exc.func, ast.Name) and node.exc.func.id == "CertificateFailure"]
    assert len(sources) >= 10
    assert bare == []


def test_src_does_not_import_dataclasses():
    # importing dataclasses loads inspect, and each class it makes execs code:
    # start-up cost paid by every process
    sources = sorted(Path(mirrorcone.__file__).parent.glob("*.py"))
    imports = [f"{path.name}:{node.lineno}" for path in sources
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.Import)
               and any(alias.name.split(".")[0] == "dataclasses" for alias in node.names)
               or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"]
    assert len(sources) >= 10
    assert imports == []
