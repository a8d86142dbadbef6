"""report.write_json against the standard library's json.dumps as oracle.

A GradedDims table is written as the list of its rows as dicts
(``oracles.graded_rows_as_dicts``)."""

import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorcone.koszulalg import GradedDims
from mirrorcone.report import write_json
from oracles import graded_rows_as_dicts


def expected(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def written(obj):
    buf = io.StringIO()
    write_json(obj, buf)
    return buf.getvalue()


texts = st.text(st.one_of(st.sampled_from('"\\/\n\r\t\b\f\x00\x1f\x7fé \U0001f600'),
                          st.characters()), max_size=6)
ints = st.one_of(st.integers(), st.integers(min_value=2**64, max_value=2**200),
                 st.integers(max_value=-2**64, min_value=-2**200))
scalars = st.one_of(st.none(), st.booleans(), ints, texts)
leaves = st.one_of(scalars, st.lists(ints, max_size=6),
                   st.lists(st.one_of(ints, st.booleans())))


def nested(kids):
    return st.one_of(st.lists(kids, max_size=4),
                     st.lists(kids, max_size=4).map(tuple),
                     st.dictionaries(texts, kids, max_size=4))


trees = st.recursive(leaves, nested, max_leaves=30)
# flat rows (j, *m, dim), m of length n
graded_dims = st.integers(1, 10).flatmap(lambda n: st.lists(
    st.tuples(*[ints] * (n + 1), st.integers(0, 2**80)), max_size=30)).map(
        lambda rows: GradedDims(tuple(sorted(rows))))
trees_with_graded_dims = st.recursive(st.one_of(leaves, graded_dims), nested,
                                      max_leaves=30)


def plain(obj):
    """obj with every GradedDims replaced by its rows as dicts."""
    if isinstance(obj, GradedDims):
        return graded_rows_as_dicts(obj)
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(x) for x in obj]
    return obj


@settings(max_examples=400, deadline=None)
@given(trees)
def test_matches_json_dumps(obj):
    assert written(obj) == expected(obj)


@settings(max_examples=200, deadline=None)
@given(trees_with_graded_dims)
def test_graded_dims_at_any_depth_match_json_dumps_of_their_rows(obj):
    assert written(obj) == expected(plain(obj))


def test_empty_graded_dims_is_an_empty_list():
    assert written(GradedDims(())) == "[]\n"
    assert written({"a": [GradedDims(())]}) == expected({"a": [[]]})


@pytest.mark.parametrize("obj", [{}, [], (), "", 0, None, {"a": {}, "b": [[], ()]}])
def test_empty_and_scalar_values(obj):
    assert written(obj) == expected(obj)


@pytest.mark.parametrize("obj, name", [
    (1.5, "float"), (Fraction(1, 2), "Fraction"), ({1, 2}, "set"),
    ({"a": [0, {1: "x"}]}, "int"), ([0, 0.0], "float"),
])
def test_other_types_raise(obj, name):
    with pytest.raises(TypeError, match=name):
        write_json(obj, io.StringIO())


# The large tests compare the texts outside the assert: on a failure pytest
# would diff two texts of tens of MB, for minutes and over a GB of memory.


class RecordingFile:
    def __init__(self):
        self.parts = []

    def write(self, text):
        self.parts.append(text)


def test_large_values_are_written_in_bounded_batches():
    obj = [{"i": k, "s": "x" * (k % 7), "v": [k, -k]} for k in range(300_000)]
    fh = RecordingFile()
    write_json(obj, fh)
    assert len(fh.parts) > 1
    assert max(len(p) for p in fh.parts) < 4 * 2**20
    same = "".join(fh.parts) == expected(obj)
    assert same


def test_large_graded_dims_are_written_in_bounded_batches():
    dims = GradedDims(tuple((k % 11 - 5, k, -k, k % 3, k * k) for k in range(300_000)))
    obj = {"sections": {"algebra": {"graded_dims": dims}}}
    fh = RecordingFile()
    write_json(obj, fh)
    assert len(fh.parts) > 1
    assert max(len(p) for p in fh.parts) < 4 * 2**20
    same = "".join(fh.parts) == expected(plain(obj))
    assert same
