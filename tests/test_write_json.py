"""report.write_json against the standard library's json.dumps as oracle.

A GradedDims is written as the list of the rows of its factors' product as
dicts: ``oracles.convolve_block_tables`` on the factor tables, then
``oracles.graded_rows_as_dicts``."""

import io
import json
import math
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorcone import koszulalg
from mirrorcone.fixtures import FIXTURE_NAMES, fixture
from mirrorcone.koszulalg import GradedDims, tensor_j_dims
from mirrorcone.report import _BATCH_BYTES, write_json
from oracles import convolve_block_tables, graded_rows_as_dicts
from tests_support import INTERLEAVED_BLOCKS, convolution_by_oracle, graded_pairs


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


def draw_blocks(draw):
    """A partition of 1 to 8 indices into 1 to 3 blocks, interleaved or not."""
    n = draw(st.integers(1, 8))
    perm = draw(st.permutations(range(n)))
    cuts = sorted(set(draw(st.lists(st.integers(1, n), max_size=2))) - {n})
    return tuple(tuple(sorted(perm[a:b])) for a, b in zip([0, *cuts], [*cuts, n]))


@st.composite
def graded_dims(draw):
    """1 to 3 factors on a partition of 1 to 8 indices, interleaved or not;
    each table has at most 5 entries (m_b, {j_b: dim})."""
    blocks = draw_blocks(draw)
    factors = []
    for blk in blocks:
        table = draw(st.dictionaries(st.tuples(*[ints] * len(blk)), st.dictionaries(
            st.one_of(st.integers(-2, 2), ints), st.integers(1, 2**80),
            min_size=1, max_size=3), max_size=5))
        factors.append(sorted(table.items()))
    return GradedDims(blocks, tuple(factors))


@st.composite
def graded_dims_sharing_polynomials(draw):
    """Like ``graded_dims``, but each table draws its j-polynomials from a pool
    of 2 or 3 with small j, so prefixes share a polynomial and j-sums collide."""
    blocks = draw_blocks(draw)
    factors = []
    for blk in blocks:
        pool = draw(st.lists(st.dictionaries(st.integers(-2, 2), st.integers(1, 3),
                                             min_size=1, max_size=2),
                             min_size=2, max_size=3))
        ms = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * len(blk)),
                           unique=True, max_size=6))
        factors.append(sorted((m, draw(st.sampled_from(pool))) for m in ms))
    return GradedDims(blocks, tuple(factors))


trees_with_graded_dims = st.recursive(st.one_of(leaves, graded_dims()), nested,
                                      max_leaves=30)


def oracle_dims(dims):
    """The sorted ((j, m), dim) pairs of a GradedDims, by the oracle's convolution."""
    tables = [{(j, m): d for m, poly in factor for j, d in poly.items()}
              for factor in dims.factors]
    return convolve_block_tables(dims.blocks, sum(map(len, dims.blocks)), tables)


def plain(obj):
    """obj with every GradedDims replaced by its rows as dicts."""
    if isinstance(obj, GradedDims):
        return graded_rows_as_dicts(oracle_dims(obj))
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


@settings(max_examples=300, deadline=None)
@given(graded_dims_sharing_polynomials())
def test_graded_dims_sharing_polynomials_match_the_oracle(dims):
    assert written(dims) == expected(plain(dims))
    assert graded_pairs(dims) == oracle_dims(dims)


SHARED = {0: 1, 1: 2}
EDGE_GRADED_DIMS = {
    "empty-last-table": GradedDims(((0, 1), (2,)), ([((0, 0), {0: 1}), ((0, 1), SHARED)], [])),
    "empty-front-table": GradedDims(((0,), (1, 2)), ([], [((0, 0), {0: 1})])),
    # six entries per table on two polynomials, every block interleaved
    "r3-interleaved": GradedDims(((0, 3), (1, 4), (2, 5)), tuple(
        [((a, b), SHARED if (a + b) % 2 else {-1: 1}) for a in (-1, 0, 1) for b in (0, 1)]
        for _ in range(3))),
    # r = 2, 400 entries of 600-digit m: each run at j = 0 and 5 exceeds the
    # budget and goes row by row, the small runs at j = 3 and 8 between them
    "r2-runs-over-the-budget": GradedDims(((0,), (1, 2)), (
        [((0,), {0: 1}), ((1,), {5: 1}), ((2,), {0: 2})],
        [((k, k * 10 ** 599), {0: k, 3: 1} if k % 100 == 0 else {0: k}) for k in range(1, 401)])),
}


@pytest.mark.parametrize("name", EDGE_GRADED_DIMS)
def test_graded_dims_edge_cases_match_the_oracle(name):
    dims = EDGE_GRADED_DIMS[name]
    assert written({"graded_dims": dims}) == expected({"graded_dims": plain(dims)})
    assert graded_pairs(dims) == oracle_dims(dims)


def test_empty_graded_dims_is_an_empty_list():
    empty = GradedDims(((0, 2), (1,)), ([((0, 0), {0: 1})], []))
    assert written(empty) == "[]\n"
    assert written({"a": [empty]}) == expected({"a": [[]]})


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


def assert_batched(parts, text, boundary):
    """Every write holds at most _BATCH_BYTES characters plus one row or value,
    the longest piece of ``text`` split at ``boundary``, and the writes are
    about as few as the budget allows: not one per run of rows."""
    longest = max(map(len, text.split(boundary)))
    assert max(map(len, parts)) <= _BATCH_BYTES + longest
    assert len(parts) <= 2 * math.ceil(len(text) / _BATCH_BYTES) + 4


def test_the_batch_budget_sits_below_the_mmap_threshold():
    # glibc serves a request of 128 KiB or more by its own mmap; a batch, its
    # join and the text layer's encode of it stay below that
    assert 4096 <= _BATCH_BYTES < 128 * 1024 - 4096


def test_large_values_are_written_in_bounded_batches():
    obj = [{"i": k, "s": "x" * (k % 7), "v": [k, -k]} for k in range(300_000)]
    fh = RecordingFile()
    write_json(obj, fh)
    assert len(fh.parts) > 1
    assert max(len(p) for p in fh.parts) < 4 * 2**20
    text = expected(obj)
    same = "".join(fh.parts) == text
    assert same
    assert_batched(fh.parts, text, "\n  {")


def test_a_string_longer_than_the_budget_is_written_alone():
    # "é" is written as \u00e9: six characters of the budget each
    long, wide = "x" * (3 * _BATCH_BYTES), "é" * _BATCH_BYTES
    obj = {"a": ["y" * 100] * 1000, "b": long, "c": [wide, 1], "d": "z"}
    fh = RecordingFile()
    write_json(obj, fh)
    assert "".join(fh.parts) == expected(obj)
    assert json.dumps(long) in fh.parts
    assert json.dumps(wide) in fh.parts
    assert all(len(p) <= _BATCH_BYTES for p in fh.parts
               if p not in (json.dumps(long), json.dumps(wide)))


def test_large_graded_dims_are_written_in_bounded_batches():
    # 18,000 rows of about 450 bytes, about 8 MB: at 5,957 rows per write
    # (n = 3) the table spans four writes, and written in one it breaks 4 MiB
    big = 10 ** 99
    dims = GradedDims(((0, 1, 2),), (
        [((k * big, -k * big, k % 3 * big), {k % 11 - 5: k * k + 1}) for k in range(18_000)],))
    obj = {"sections": {"algebra": {"graded_dims": dims}}}
    fh = RecordingFile()
    write_json(obj, fh)
    assert len(fh.parts) > 1
    assert max(len(p) for p in fh.parts) < 4 * 2**20
    text = expected(plain(obj))
    same = "".join(fh.parts) == text
    assert same
    assert_batched(fh.parts, text, '"deg": ')


def test_one_run_of_18000_rows_is_sliced_and_a_row_over_the_budget_written_alone():
    # r = 1 and one j: every row is in one run; row 9,000 has 17 entries of
    # 4,001 digits, more than the budget
    big = 10 ** 4000
    dims = GradedDims((tuple(range(18)),), (
        [((k,) + (big if k == 9_000 else -k,) * 17, {2: k + 1}) for k in range(18_000)],))
    obj = {"sections": {"algebra": {"graded_dims": dims}}}
    fh = RecordingFile()
    write_json(obj, fh)
    text = expected(plain(obj))
    same = "".join(fh.parts) == text
    assert same
    over = [p for p in fh.parts if len(p) > _BATCH_BYTES]
    assert len(over) == 1 and over[0].count('"dim": ') == 1 and str(big) in over[0]
    assert_batched(fh.parts, text, '"deg": ')


# The tests below compare their texts outside the assert, as above.
GRADED_DIMS_INPUTS = {name: lambda name=name: fixture(name) for name in FIXTURE_NAMES}
GRADED_DIMS_INPUTS.update({
    f"interleaved-{k}": lambda blocks=blocks: SimpleNamespace(blocks=blocks, n=sum(map(len, blocks)))
    for k, blocks in enumerate(INTERLEAVED_BLOCKS)})


@pytest.mark.parametrize("name", GRADED_DIMS_INPUTS)
def test_written_graded_dims_match_the_convolution_oracle(name):
    vt = GRADED_DIMS_INPUTS[name]()
    obj = {"sections": {"algebra": {"graded_dims": tensor_j_dims(vt, 4)}}}
    rows = graded_rows_as_dicts(convolution_by_oracle(vt, 4))
    same = written(obj) == expected({"sections": {"algebra": {"graded_dims": rows}}})
    assert same


def test_z_manifold_graded_dims_at_cutoff_6_are_written_in_bounded_batches(monkeypatch):
    # about 41 MB of text
    obj = {"sections": {"algebra": {"graded_dims": tensor_j_dims(fixture("z-manifold"), 6)}}}
    products = []
    times = koszulalg._times_table

    def counting(entries, table):
        # the helper multiplies every entry's j-polynomial with every table entry's
        entries = list(entries)
        products.append(len(entries) * len(table))
        return times(entries, table)

    monkeypatch.setattr(koszulalg, "_times_table", counting)
    fh = RecordingFile()
    write_json(obj, fh)
    # three tables of 34 entries: the 1,156 prefixes carry only 42 distinct
    # polynomials, so the writer multiplies far fewer than the 40,460 pairs of
    # one product per m-combination
    assert sum(products) <= 34**2 + 42 * 34
    assert len(fh.parts) > 1
    assert max(len(p) for p in fh.parts) < 4 * 2**20
    assert sum(p.count('"dim": ') for p in fh.parts) == 146_812
    assert_batched(fh.parts, "".join(fh.parts), '"deg": ')
