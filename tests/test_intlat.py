import ast
from itertools import combinations, product
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorcone import intlat, report
from mirrorcone.intlat import (
    LatticeError,
    barycentric,
    contains,
    hnf_canonicalize,
    kernel,
    lattice_quotient,
    matrix_rank,
    quotient_group,
    smith_normal_form,
    sublattice_from_congruences,
)
from oracles import (
    _det,
    _rank,
    lattice_index_by_cosets,
    membership_by_cosets,
    nullspace_int,
    smith_by_minors,
)
from tests_support import analyze_fixture, patch_during


def test_hnf_identity_is_canonical():
    lat = hnf_canonicalize([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], 4)
    assert lat.basis == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert lat.index_in_ambient() == 1


def test_hnf_diagonal_plus_all_ones():
    gens = [(4, 0, 0, 0), (0, 4, 0, 0), (0, 0, 4, 0), (0, 0, 0, 4), (1, 1, 1, 1)]
    lat = hnf_canonicalize(gens, 4)
    assert lat.rank == 4
    # oracle: coset enumeration in a 4x4x4x4 box (4Z^4 is inside the lattice)
    assert lattice_index_by_cosets(gens, 4, 4) == 64
    assert lat.index_in_ambient() == 64


def test_congruence_lattice_quartic():
    lat = sublattice_from_congruences(4, [((1, 1, 1, 1), 4)])
    assert lat.index_in_ambient() == 4
    assert lattice_index_by_cosets(lat.basis, 4, 4) == 4


def test_congruence_lattice_cubic_sixfold():
    lat = sublattice_from_congruences(6, [((1, 1, 1, 1, 1, 1), 3)])
    assert lat.index_in_ambient() == 3


def test_congruence_lattice_zmanifold():
    lat = sublattice_from_congruences(9, [
        ((1, 1, 1, -1, -1, -1, 0, 0, 0), 3),
        ((0, 0, 0, 1, 1, 1, -1, -1, -1), 3),
    ])
    assert lat.index_in_ambient() == 9


def test_contains_quartic_examples():
    lat = sublattice_from_congruences(4, [((1, 1, 1, 1), 4)])
    assert contains(lat, (1, 1, 1, 1))
    assert not contains(lat, (1, 0, 0, 0))
    assert contains(lat, (1, -1, 0, 0))


def test_contains_dimension_mismatch():
    lat = hnf_canonicalize([(1, 0), (0, 1)], 2)
    with pytest.raises(LatticeError):
        contains(lat, (1, 0, 0))


def test_quotient_groups():
    quartic = sublattice_from_congruences(4, [((1, 1, 1, 1), 4)])
    assert quotient_group(4, quartic).invariant_factors == (4,)
    zman = sublattice_from_congruences(9, [
        ((1, 1, 1, -1, -1, -1, 0, 0, 0), 3),
        ((0, 0, 0, 1, 1, 1, -1, -1, -1), 3),
    ])
    assert quotient_group(9, zman).invariant_factors == (3, 3)
    full = hnf_canonicalize([(1, 0), (0, 1)], 2)
    assert quotient_group(2, full).invariant_factors == ()


def test_quotient_requires_full_rank():
    lat = hnf_canonicalize([(1, 0, 0)], ambient_rank=3)
    with pytest.raises(LatticeError):
        quotient_group(3, lat)


def test_lattice_quotient_of_pair():
    sup = sublattice_from_congruences(4, [((1, 1, 1, 1), 2)])
    sub = sublattice_from_congruences(4, [((1, 1, 1, 1), 4)])
    assert lattice_quotient(sup, sub).invariant_factors == (2,)


def test_smith_normal_form_divisibility():
    diag = smith_normal_form([(2, 4, 4), (-6, 6, 12), (10, 4, 16)])
    assert diag == [2, 2, 156]


gen_rows = st.lists(
    st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5)),
    min_size=1, max_size=5)


@given(gen_rows)
@settings(max_examples=60, deadline=None)
def test_hnf_idempotent(rows):
    if not any(any(r) for r in rows):
        return
    lat = hnf_canonicalize(rows, ambient_rank=3)
    again = hnf_canonicalize(lat.basis, ambient_rank=3)
    assert lat.basis == again.basis


@given(gen_rows, st.tuples(st.integers(-8, 8), st.integers(-8, 8), st.integers(-8, 8)))
@settings(max_examples=60, deadline=None)
def test_contains_matches_coset_oracle(rows, v):
    lat = hnf_canonicalize(rows, ambient_rank=3)
    if lat.rank != 3:
        return
    det = lat.index_in_ambient()
    # det * Z^3 lies inside any full-rank lattice of that index
    assert contains(lat, v) == membership_by_cosets(lat.basis, v, det, 3)


@given(gen_rows)
@settings(max_examples=60, deadline=None)
def test_quotient_order_is_determinant(rows):
    lat = hnf_canonicalize(rows, ambient_rank=3)
    if lat.rank != 3:
        return
    det = abs(_det(lat.basis))
    assert quotient_group(3, lat).order == det


small_matrices = st.integers(1, 5).flatmap(lambda ncols: st.lists(
    st.lists(st.integers(-6, 6), min_size=ncols, max_size=ncols),
    min_size=1, max_size=5))


@given(small_matrices, st.data())
@settings(max_examples=150, deadline=None)
def test_smith_form_matches_determinantal_divisors(rows, data):
    # rectangular and rank-deficient inputs: sometimes a row repeats a combination
    if len(rows) >= 3 and data.draw(st.booleans()):
        k = data.draw(st.integers(-3, 3))
        rows[-1] = [x + k * y for x, y in zip(rows[0], rows[1])]
    assert smith_normal_form(rows) == smith_by_minors(rows)


def unimodular_mix(data, rows):
    """The rows after random elementary unimodular steps and a shuffle."""
    rows = [list(r) for r in rows]
    for _ in range(data.draw(st.integers(0, 8))):
        i = data.draw(st.integers(0, len(rows) - 1))
        j = data.draw(st.integers(0, len(rows) - 1))
        if i == j:
            rows[i] = [-x for x in rows[i]]
        else:
            k = data.draw(st.integers(-3, 3))
            rows[i] = [x + k * y for x, y in zip(rows[i], rows[j])]
    return data.draw(st.permutations(rows))


@given(small_matrices, st.data())
@settings(max_examples=150, deadline=None)
def test_hnf_is_canonical_under_unimodular_change(rows, data):
    ncols = len(rows[0])
    basis = hnf_canonicalize(rows, ncols).basis
    assert hnf_canonicalize(unimodular_mix(data, rows), ncols).basis == basis
    assert len(basis) == _rank(rows)
    # lower triangular, positive pivots, entries below each pivot in [0, pivot)
    pivots = [max(j for j, x in enumerate(row) if x) for row in basis]
    assert pivots == sorted(set(pivots))
    for i, (row, c) in enumerate(zip(basis, pivots)):
        assert row[c] > 0
        assert all(0 <= later[c] < row[c] for later in basis[i + 1:])


congruence_lists = st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.tuples(st.tuples(*[st.integers(-3, 3)] * n), st.integers(1, 5)), max_size=2)))


@given(congruence_lists)
@settings(max_examples=60, deadline=None)
def test_congruence_membership_matches_direct_check(case):
    n, congruences = case
    lat = sublattice_from_congruences(n, congruences)
    for v in product(range(-4, 5), repeat=n):
        direct = all(sum(c * x for c, x in zip(cvec, v)) % mod == 0
                     for cvec, mod in congruences)
        assert contains(lat, v) == direct


# --- the exact elimination kernel, on integer rows --------------------------

ENTRIES = {"int": st.integers(-8, 8), "large": st.integers(-10**6, 10**6)}
KINDS = sorted(ENTRIES)
# the largest shape drawn per kind: the program passes up to 36 x 10 matrices
# with entries of at most 8, and no large entries
MAX_SHAPE = {"int": (36, 10), "large": (6, 6)}


def draw_matrix(data, kind):
    """(rows, ncols): random rows, those past a drawn count combinations of
    two earlier rows, so that wide matrices often lose rank."""
    max_rows, max_cols = MAX_SHAPE[kind]
    ncols = data.draw(st.integers(1, max_cols))
    nrows = data.draw(st.integers(0, max_rows))
    entry = ENTRIES[kind]
    rows = [data.draw(st.lists(entry, min_size=ncols, max_size=ncols))
            for _ in range(nrows)]
    if nrows:
        base = data.draw(st.integers(1, nrows))
        for i in range(base, nrows):
            x, y = (rows[data.draw(st.integers(0, base - 1))] for _ in range(2))
            k = data.draw(st.integers(-3, 3))
            rows[i] = [a + k * b for a, b in zip(x, y)]
    return rows, ncols


def times(rows, x):
    return [sum(a * b for a, b in zip(row, x)) for row in rows]


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_kernel_rank_matches_oracle(kind, data):
    rows, _ = draw_matrix(data, kind)
    before = [list(r) for r in rows]
    assert matrix_rank(rows) == _rank(rows)
    assert rows == before


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_kernel_nullspace_matches_oracle(kind, data):
    # ncols - rank integer vectors in the kernel that span the oracle's
    # rational nullspace, and saturated: every integer kernel vector is an
    # integer combination of them (the gcd of their maximal minors is 1)
    rows, ncols = draw_matrix(data, kind)
    before = [list(r) for r in rows]
    basis = kernel(rows, ncols)
    assert rows == before
    expected = nullspace_int(rows, ncols)
    assert len(basis) == len(expected) == ncols - _rank(rows)
    for vec in basis:
        assert len(vec) == ncols and all(type(x) is int for x in vec)
        assert times(rows, vec) == [0] * len(rows)
    # independent vectors of the nullspace, as many as its dimension
    assert _rank(basis) == len(basis)
    assert _rank([*basis, *expected]) == len(basis)
    if basis:
        minors = (_det([[vec[c] for c in cols] for vec in basis])
                  for cols in combinations(range(ncols), len(basis)))
        assert gcd(*(int(m) for m in minors)) == 1


@pytest.mark.parametrize("n", range(5))
def test_kernel_of_no_rows_is_the_identity_and_of_a_full_rank_square_is_empty(n):
    assert [tuple(v) for v in kernel([], n)] == [
        tuple(int(i == j) for j in range(n)) for i in range(n)]
    # upper triangular with diagonal 2, 3, ...: full rank, not unimodular
    square = [[(i + 2) * (i == j) + (j > i) for j in range(n)] for i in range(n)]
    assert _rank(square) == n
    assert kernel(square, n) == []


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_barycentric_factors_exactly_the_independent_vertex_sets(kind, data):
    # each vertex is on the affine hull, with coordinates D e_j, one D > 0
    vertices, _ = draw_matrix(data, kind)
    if not vertices:
        return
    dirs = [[x - y for x, y in zip(v, vertices[0])] for v in vertices[1:]]
    factored = barycentric(vertices)
    assert (factored is not None) == (_rank(dirs) == len(vertices) - 1)
    if factored is not None:
        assert len(factored) == len(vertices)
        d = times(factored, (*vertices[0], 1))[0]
        assert d > 0
        for j, v in enumerate(vertices):
            assert times(factored, (*v, 1)) == [d * (i == j) for i in range(len(vertices))]


def test_intlat_imports_nothing_from_fractions():
    path = Path(__file__).parent.parent / "src" / "mirrorcone" / "intlat.py"
    tree = ast.parse(path.read_text())
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert imported and "fractions" not in imported


def test_a_dropped_kernel_pivot_makes_analyze_exit_3(tmp_path, capsys, monkeypatch):
    # the transform echelon (the one whose rows are wider than the columns
    # it reduces) reports one pivot too few, so its last pivot row lies
    # below the rank
    def short(echelon):
        def dropping(a, ncols):
            pivots = echelon(a, ncols)
            return pivots[:-1] if a and len(a[0]) > ncols else pivots
        return dropping

    patch_during(monkeypatch, report, "symmetry_groups", intlat, "_echelon", short)
    code, err = analyze_fixture(tmp_path, capsys, "quartic", "--sections", "groups")
    assert code == 3
    assert ("certificate failure [EchelonCheckFailed]: transform echelon has a "
            "nonzero row below its rank") in err, err
