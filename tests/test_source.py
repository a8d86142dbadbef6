"""Checks on the program's source text."""

import ast
import sys
from collections import Counter
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


def _imports_of(module):
    """Each src/ line that imports ``module`` or a name from it, as file:line."""
    sources = sorted(Path(mirrorcone.__file__).parent.glob("*.py"))
    assert len(sources) >= 10
    return [f"{path.name}:{node.lineno}" for path in sources
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Import)
            and any(alias.name.split(".")[0] == module for alias in node.names)
            or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == module]


def test_src_does_not_import_dataclasses():
    # importing dataclasses loads inspect, and each class it makes execs code:
    # start-up cost paid by every process
    assert _imports_of("dataclasses") == []


def test_src_does_not_import_argparse():
    # argparse loads gettext, and its first message lookup loads locale: 4-5 ms
    # of every process; cli.main parses argv from its own command table
    assert _imports_of("argparse") == []


def test_src_imports_only_the_standard_library():
    # the runtime has no dependencies: every absolute import names a module
    # of the standard library (relative imports stay inside mirrorcone)
    sources = sorted(Path(mirrorcone.__file__).parent.glob("*.py"))
    imported = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.append((path.name, node.module))
    assert len(sources) >= 10 and imported
    assert [f"{name}: {module}" for name, module in imported
            if module.split(".")[0] not in sys.stdlib_module_names] == []


def test_only_toricdata_reads_the_raw_input():
    # validate resolves lambda and the valuations once; every other module
    # reads what the validated record keeps, never vt.input
    sources = sorted(Path(mirrorcone.__file__).parent.glob("*.py"))
    reads = [f"{path.name}:{node.lineno}" for path in sources if path.name != "toricdata.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute) and node.attr == "input"]
    assert len(sources) >= 10
    assert reads == []


# Defined in src/ but referenced by no src/ code: each entry says who calls it.
UNREFERENCED_ALLOWED = {
    # perfbench/tracing.py hooks it by name as the koszulalg.degree_classes
    # counter, and tests/test_report.py requires every hook to resolve
    "degree_classes",
}


def _references(node):
    """Counter of the names and of the attribute names used in node."""
    uses = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            uses["name", sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            uses["attr", sub.attr] += 1
    return uses


def test_src_defines_only_what_src_references():
    # src/ holds what the CLI runs: each top-level function and class is used
    # by name, and each method through an attribute, somewhere in src/ outside
    # its own body (dunders exempt); test-only helpers live in tests/
    sources = sorted(Path(mirrorcone.__file__).parent.glob("*.py"))
    trees = [ast.parse(path.read_text(), str(path)) for path in sources]
    total = Counter()
    for tree in trees:
        total.update(_references(tree))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unused = []
    for tree in trees:
        for node in tree.body:
            if not isinstance(node, defs):
                continue
            if total["name", node.name] == _references(node)["name", node.name]:
                unused.append(node.name)
            for method in node.body if isinstance(node, ast.ClassDef) else ():
                if not isinstance(method, defs[:2]) or method.name[:2] == method.name[-2:] == "__":
                    continue
                if total["attr", method.name] == _references(method)["attr", method.name]:
                    unused.append(f"{node.name}.{method.name}")
    assert len(sources) >= 10
    assert sorted(unused) == sorted(UNREFERENCED_ALLOWED)
