"""report.write_json against the standard library's json.dumps as oracle."""

import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorcone.report import write_json


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
trees = st.recursive(
    st.one_of(scalars, st.lists(ints, max_size=6), st.lists(st.one_of(ints, st.booleans()))),
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.lists(kids, max_size=4).map(tuple),
                           st.dictionaries(texts, kids, max_size=4)),
    max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(trees)
def test_matches_json_dumps(obj):
    assert written(obj) == expected(obj)


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
    assert "".join(fh.parts) == expected(obj)
