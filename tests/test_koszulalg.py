import hashlib
import random
import re
from fractions import Fraction
from itertools import combinations
from math import comb
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorcone import koszulalg
from mirrorcone import report
from mirrorcone.cli import main
from mirrorcone.fixtures import FIXTURE_NAMES, fixture
from mirrorcone.koszulalg import (
    ClassificationViolation,
    CutoffTooSmall,
    canonical_class,
    contract_block,
    count_exponents,
    degree_classes,
    element_in_ideal,
    enumerate_curvature_candidates,
    enumerate_deformation_classes,
    front_sign,
    h_basis,
    koszul_cohomology_dims,
    sign_action,
    tensor_j_dims,
    wedge,
)
from mirrorcone.toricdata import IndexSetTooLarge, check_no_bc, validate
from oracles import (
    _koszul_class_monomials,
    _koszul_image,
    in_ideal_by_class,
    j_class_dimension,
    koszul_class_dimension,
    nullspace_int,
    permutation_sign,
)
from tests_support import (
    INTERLEAVED_BLOCKS,
    convolution_by_oracle,
    graded_pairs,
    j_algebra_dim_for_class,
    multiblock_j_dims,
)

BLOCKS3 = (tuple(range(3)),)

# The Koszul complex of W_0 is built only by the oracle; the tests that use
# it compare its cohomology with the quotient-algebra dimensions of src.


def _oracle_koszul_dims(blocks, n, cutoff):
    """The nonzero Koszul cohomology dimensions of the cutoff's classes, by the oracle."""
    dims = ((cls, koszul_class_dimension(blocks, n, cls))
            for cls in degree_classes(blocks, n, cutoff))
    return {cls: d for cls, d in dims if d}


def _differential_squared(blocks, mono):
    """d(d(mono)) on the oracle's Koszul complex, zero terms kept."""
    twice = {}
    for mono1, c1 in _koszul_image(blocks, *mono).items():
        for mono2, c2 in _koszul_image(blocks, *mono1).items():
            twice[mono2] = twice.get(mono2, 0) + c1 * c2
    return twice


def test_hand_dims_three_variables_z_degree_zero():
    # wedge degrees 0, 1, 2 at z-degree zero: dimensions 1, 2, 0
    for w, expected in ((0, 1), (1, 2), (2, 0)):
        cls = (w, (0, 0, 0))
        assert koszul_class_dimension(BLOCKS3, 3, cls) == expected
        assert j_algebra_dim_for_class(BLOCKS3, 3, cls) == expected


def test_unit_class_survives():
    assert koszul_class_dimension(BLOCKS3, 3, (0, (0, 0, 0))) == 1
    assert dict(graded_pairs(koszul_cohomology_dims(3, 3)))[(0, (0, 0, 0))] == 1


def test_z2z3_is_a_boundary():
    # z_2 z_3 equals the differential of theta_1 up to sign, so its class dies
    assert _koszul_image(BLOCKS3, 0b1, (0, 0, 0)) == {(0, (0, 1, 1)): -1}
    cls = canonical_class(BLOCKS3, 4, (0, -1, -1))
    assert koszul_class_dimension(BLOCKS3, 3, cls) == 0
    assert j_algebra_dim_for_class(BLOCKS3, 3, cls) == 0


def test_differential_squares_to_zero():
    for n in (3, 4, 5):
        blocks = (tuple(range(n)),)
        for size in range(n + 1):
            for K in combinations(range(n), size):
                twice = _differential_squared(blocks, (_mask(K), (0,) * n))
                assert all(v == 0 for v in twice.values())


def test_differential_squares_to_zero_multiblock():
    vt = fixture("cubic-fourfold")
    for K in (tuple(range(6)), (0, 3), (0, 1, 4, 5)):
        twice = _differential_squared(vt.blocks, (_mask(K), (0,) * 6))
        assert all(v == 0 for v in twice.values())


@pytest.mark.parametrize("n", (3,))
def test_dnsh_equivalence_small(n):
    k = koszul_cohomology_dims(n, n + 2)
    assert dict(graded_pairs(k)) == _oracle_koszul_dims((tuple(range(n)),), n, n + 2)


@pytest.fixture
def fresh_caches():
    """The module's caches emptied before and after: work is counted from
    scratch, and nothing computed under a monkeypatch outlives the test."""
    caches = (koszulalg._j_slice, koszulalg._expand_slice_monomials,
              koszulalg._ideal_generators)
    for f in caches:
        f.cache_clear()
    yield
    for f in caches:
        f.cache_clear()


def _count_ranks(monkeypatch):
    calls = []
    rank = koszulalg.matrix_rank

    def counting(rows):
        calls.append(len(rows))
        return rank(rows)

    monkeypatch.setattr(koszulalg, "matrix_rank", counting)
    return calls


@pytest.mark.parametrize("n,most", ((3, 24), (4, 64)))
def test_j_dims_rank_each_slice_shape_once(monkeypatch, fresh_caches, n, most):
    # one rank per (wedge distribution, zero set of a): 3 x 8 and 4 x 16
    calls = _count_ranks(monkeypatch)
    koszul_cohomology_dims(n, 10)
    assert 0 < len(calls) <= most


def test_r1_dims_at_the_report_cutoff_rank_each_slice_shape_once(monkeypatch, fresh_caches):
    # the r = 1 report path: 4 wedge distributions x 16 zero sets
    calls = _count_ranks(monkeypatch)
    koszul_cohomology_dims(4, 6)
    assert 0 < len(calls) <= 64


def _blocks_of(name):
    """(blocks, n) of a fixture, or of the single block of size k for "n<k>"."""
    if name[1:].isdigit():
        return (tuple(range(int(name[1:]))),), int(name[1:])
    vt = fixture(name)
    return vt.blocks, vt.n


@pytest.mark.parametrize("name,cutoff", (
    ("n3", 10), ("n4", 8), ("cubic-fourfold", 3), ("z-manifold", 1)))
def test_j_dims_match_the_whole_class_oracle(name, cutoff):
    blocks, n = _blocks_of(name)
    for cls in degree_classes(blocks, n, cutoff):
        assert j_algebra_dim_for_class(blocks, n, cls) == j_class_dimension(blocks, n, cls), cls


@pytest.mark.parametrize("n", (2, 3, 4))
def test_single_block_tables_equal_the_whole_class_oracle_up_to_cutoff_10(n):
    # the table at each cutoff is the nonzero part of the oracle over degree_classes
    blocks = (tuple(range(n)),)
    oracle = {cls: j_class_dimension(blocks, n, cls) for cls in degree_classes(blocks, n, 10)}
    for cutoff in range(n, 11):
        expected = {cls: oracle[cls] for cls in degree_classes(blocks, n, cutoff) if oracle[cls]}
        assert dict(graded_pairs(koszul_cohomology_dims(n, cutoff))) == expected, cutoff


def test_quintic_block_table_at_cutoff_6_keeps_its_digest():
    # recorded from the degree-class scan the table replaced
    dims = graded_pairs(koszul_cohomology_dims(5, 6))
    assert len(dims) == 2869
    assert hashlib.sha256(repr(dims).encode()).hexdigest() == (
        "a918bca8b3030e11d2be840390d48cd86eb1e36d0a52f6d3bf4f7bd9549e7328")


def test_single_block_tables_scan_no_degree_class(monkeypatch):
    calls = []
    for name in ("degree_classes", "canonical_class"):
        monkeypatch.setattr(koszulalg, name, lambda *args, name=name: calls.append(name))
    for n, cutoff in ((3, 10), (4, 6), (5, 6)):
        assert graded_pairs(koszul_cohomology_dims(n, cutoff))
    assert calls == []


KOSZUL_ROW_COUNTS = {"n3": 41, "n4": 463, "cubic-fourfold": 141}


@pytest.mark.parametrize("name,cutoff", (("n3", 6), ("n4", 6), ("cubic-fourfold", 2)))
def test_koszul_dims_match_the_whole_class_oracle(name, cutoff):
    blocks, n = _blocks_of(name)
    dims = multiblock_j_dims(blocks, n, cutoff)
    assert len(dims) == KOSZUL_ROW_COUNTS[name]
    assert dict(dims) == _oracle_koszul_dims(blocks, n, cutoff)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_deformation_membership_queries_match_the_whole_class_oracle(monkeypatch, name):
    queries = []
    member = koszulalg.element_in_ideal

    def recording(blocks, a, elem):
        answer = member(blocks, a, elem)
        queries.append((blocks, a, elem, answer))
        return answer

    monkeypatch.setattr(koszulalg, "element_in_ideal", recording)
    vt = fixture(name)
    enumerate_deformation_classes(vt)
    assert queries
    for blocks, a, elem, answer in queries:
        assert answer == in_ideal_by_class(blocks, vt.n, a, elem), (a, elem)


def test_membership_across_two_wedge_distributions():
    # an element is a member iff each wedge-distribution component is
    vt = fixture("cubic-fourfold")
    zero = (0,) * vt.n
    h0, h1 = h_basis(vt.blocks[0]), h_basis(vt.blocks[1])
    top0, top1 = wedge(h0[0], h0[1]), wedge(h1[0], h1[1])
    mixed = wedge(h0[0], h1[0])
    for elem, expected in ((top0, True), (mixed, False),
                           ({**top0, **top1}, True), ({**top0, **mixed}, False)):
        assert element_in_ideal(vt.blocks, zero, elem) is expected
        assert in_ideal_by_class(vt.blocks, vt.n, zero, elem) is expected


@pytest.mark.parametrize("a,elem", (
    ((0, 0, 0), {0b111: 1}),        # u_1 u_2 u_3 lies above the block's top wedge
    ((1, 0, 0), {0: 1, 0b001: 1}),  # two wedge degrees in one element
    ((-1, 0, 0), {0: 1}),           # a negative exponent
))
def test_an_element_outside_its_class_piece_is_a_classification_violation(a, elem):
    with pytest.raises(ClassificationViolation, match="does not lie in its class piece"):
        element_in_ideal(BLOCKS3, a, elem)


def test_a_surviving_slice_with_under_two_zeros_makes_analyze_exit_3(tmp_path, capsys,
                                                                    monkeypatch, fresh_caches):
    # the slice lemma falsified: the wedge-degree-1 slice of an exponent with
    # no zero entry reported one dimension larger (the classification reads
    # only wedge degrees 0 and 2)
    ranked = koszulalg._j_slice

    def grown(blocks, dist, zeros):
        size, index, rows, rank = ranked(blocks, dist, zeros)
        return size + (dist == (1,) and zeros == 0), index, rows, rank

    monkeypatch.setattr(koszulalg, "_j_slice", grown)
    assert main(["examples", "show", "quartic"]) == 0
    cfg = tmp_path / "quartic.json"
    cfg.write_text(capsys.readouterr().out)
    assert main(["analyze", str(cfg), "--sections", "algebra", "--cutoff", "4"]) == 3
    err = capsys.readouterr().err
    assert ("certificate failure [SliceLemmaViolation]: slice with zero set 0b0 "
            "survives the ideal") in err, err


@pytest.fixture
def escaping_generators(monkeypatch, fresh_caches):
    """Every ideal generator's g_K replaced by u_K, one wedge degree too high."""
    generators = koszulalg._ideal_generators
    monkeypatch.setattr(koszulalg, "_ideal_generators", lambda blocks: [
        (j, drop, degree, {sum(1 << i for i in blocks[j]) ^ drop: 1})
        for j, drop, degree, _ in generators(blocks)])


def test_an_ideal_vector_escaping_its_slice_is_a_certificate_failure(escaping_generators):
    with pytest.raises(ClassificationViolation, match="ideal vector escapes the class piece"):
        koszul_cohomology_dims(3, 3)


def test_an_escaping_ideal_vector_makes_analyze_exit_3(tmp_path, capsys,
                                                       escaping_generators):
    assert main(["examples", "show", "quartic"]) == 0
    cfg = tmp_path / "quartic.json"
    cfg.write_text(capsys.readouterr().out)
    assert main(["analyze", str(cfg), "--sections", "algebra", "--cutoff", "4"]) == 3
    err = capsys.readouterr().err
    assert "certificate failure [ClassificationViolation]: ideal vector escapes" in err


def classify_tampered(monkeypatch, **tamper):
    """The report classifies deformations on a view of vt whose named fields are
    replaced by tamper[field](vt)."""
    classify = koszulalg.enumerate_deformation_classes
    fields = ("blocks", "n", "xi", "xi0", "q", "d", "volume_orders")
    monkeypatch.setattr(report, "enumerate_deformation_classes", lambda vt: classify(
        SimpleNamespace(**{f: tamper.get(f, lambda vt: getattr(vt, f))(vt) for f in fields})))


def flip_involution_sign(monkeypatch):
    sign = koszulalg.involution_sign
    monkeypatch.setattr(koszulalg, "involution_sign", lambda vt, b, h: -sign(vt, b, h))


# Each classification certificate, the step that falsifies it and its message.
CLASSIFICATION_SITES = {
    "pairing-not-integral": (
        lambda mp: classify_tampered(mp, volume_orders=lambda vt: tuple(
            v + Fraction(1, 3) for v in vt.volume_orders)),
        r"<n_sigma \+ v - e_I, \(0, 0, 0, 4\)> is not integral"),
    "sign-against-the-half-h-rule": (flip_involution_sign, r"sign disagrees with \|h\|/2 rule"),
    "n-sigma-pairing-not-1": (
        lambda mp: classify_tampered(mp, q=lambda vt: tuple(2 * x for x in vt.q)),
        r"<n_sigma, \(0, 0, 0, 4\)> = 2, not 1"),
    "h0-class-not-invariant": (
        lambda mp: mp.setattr(koszulalg, "deformation_sign", lambda vt, b, h: -1),
        r"\|h\|=0 class at \(0, 0, 0, 4\) is not invariant"),
    "first-order-class-vanishes": (
        lambda mp: mp.setattr(koszulalg, "element_in_ideal", lambda *args: True),
        r"first-order class z\^\(0, 0, 0, 4\) vanishes in the quotient algebra"),
    "class-outside-xi0-survives": (
        lambda mp: mp.setattr(koszulalg, "element_in_ideal", lambda *args: False),
        r"class z\^\(0, 1, 1, 2\) with b outside Xi_0 survives the quotient"),
    "h2-class-not-killed": (
        lambda mp: mp.setattr(koszulalg, "deformation_sign", lambda vt, b, h: 1),
        r"\|h\|=2 class not killed by the sign rule"),
}


@pytest.mark.parametrize("site", CLASSIFICATION_SITES)
def test_a_falsified_classification_makes_analyze_exit_3(tmp_path, capsys, monkeypatch, site):
    falsify, message = CLASSIFICATION_SITES[site]
    assert main(["examples", "show", "quartic"]) == 0
    cfg = tmp_path / "quartic.json"
    cfg.write_text(capsys.readouterr().out)
    falsify(monkeypatch)
    assert main(["analyze", str(cfg), "--sections", "algebra", "--cutoff", "4"]) == 3
    err = capsys.readouterr().err
    assert re.search(r"certificate failure \[ClassificationViolation\]: " + message, err), err


def test_tensor_builds_one_table_per_block_size(monkeypatch):
    calls = []
    table = koszulalg.koszul_cohomology_dims

    def counting(n, z_cutoff):
        calls.append(n)
        return table(n, z_cutoff)

    monkeypatch.setattr(koszulalg, "koszul_cohomology_dims", counting)
    tensor_j_dims(fixture("z-manifold"), 3)
    assert calls == [3]


def test_cutoff_guard():
    with pytest.raises(CutoffTooSmall):
        koszul_cohomology_dims(4, 3)


def _vectors(n, most):
    """Every a in Z_{>=0}^n with |a| <= most."""
    if n == 0:
        yield ()
        return
    for x in range(most + 1):
        for rest in _vectors(n - 1, most - x):
            yield (x, *rest)


@pytest.mark.parametrize("n", (3, 4, 5, 6))
def test_exponent_count_equals_the_enumerated_exponents(n):
    # a table reads the exponents with two zeros or more and |a| <= cutoff + n - 2
    for cutoff in range(n, n + 4):
        enumerated = sum(1 for a in _vectors(n, cutoff + n - 2) if a.count(0) >= 2)
        assert count_exponents(n, cutoff) == enumerated, cutoff


def test_the_octic_fits_the_exponent_limit_and_nine_indices_do_not():
    assert count_exponents(8, 8) == 289_311 <= koszulalg.ALGEBRA_EXPONENT_LIMIT
    assert count_exponents(9, 9) == 1_915_705 > koszulalg.ALGEBRA_EXPONENT_LIMIT


@pytest.mark.parametrize("slack, refused", [(-1, True), (0, False)])
def test_single_block_table_stops_past_the_exponent_limit(monkeypatch, slack, refused):
    count = count_exponents(4, 6)
    table = koszul_cohomology_dims(4, 6)
    monkeypatch.setattr(koszulalg, "ALGEBRA_EXPONENT_LIMIT", count + slack)
    if refused:
        with pytest.raises(IndexSetTooLarge, match=f"^{count} exponents of a block of size 4 "
                                                   f"at cutoff 6 exceed the limit {count - 1}$"):
            koszul_cohomology_dims(4, 6)
    else:
        assert koszul_cohomology_dims(4, 6) == table


def test_kernel_inside_image_of_f():
    # every kernel element's monomials satisfy a >= e_K (divisibility by z^K)
    n = 4
    blocks = (tuple(range(n)),)
    sampled = [cls for cls in degree_classes(blocks, n, 4)][::7]
    for cls in sampled:
        assert koszul_class_dimension(blocks, n, cls) == j_algebra_dim_for_class(blocks, n, cls)
        here = _koszul_class_monomials(blocks, n, cls)
        if not here:
            continue
        jhat, mhat = cls
        above = _koszul_class_monomials(blocks, n, canonical_class(blocks, jhat + 1, mhat))
        index = {mono: i for i, mono in enumerate(above)}
        rows = []
        for mono in here:
            row = [0] * len(above)
            for key, coeff in _koszul_image(blocks, *mono).items():
                row[index[key]] = coeff
            rows.append(row)
        if not above:
            kernel = [[1 if i == k else 0 for i in range(len(here))]
                      for k in range(len(here))]
        else:
            # kernel of the transpose-free row map: x @ rows = 0 is wrong way;
            # we need vectors x with sum_i x_i rows[i] = 0 column-wise
            cols = [[rows[i][j] for i in range(len(here))]
                    for j in range(len(above))]
            kernel = nullspace_int(cols, len(here))
        for vec in kernel:
            for i, coeff in enumerate(vec):
                if coeff != 0:
                    K, a = here[i]
                    assert all(a[k] >= (K >> k & 1) for k in range(n))


def test_ideal_generator_instances():
    # K = empty: z_1 z_2 z_3 lies in the ideal; K = I: the top wedge does
    assert element_in_ideal(BLOCKS3, (1, 1, 1), {0: 1})
    top = h_basis((0, 1, 2))
    elem = wedge(top[0], top[1])
    assert element_in_ideal(BLOCKS3, (0, 0, 0), elem)


def test_block_monomials_in_ideal_two_blocks():
    # z^{e_I_j} comes from z_i times a |K| = 1 generator, block by block
    vt = fixture("cubic-fourfold")
    for j in range(vt.r):
        assert element_in_ideal(vt.blocks, vt.block_vector(j), {0: 1})


def _mask(indices):
    return sum(1 << i for i in indices)


@given(st.permutations(range(8)), st.integers(0, 8), st.integers(0, 8))
@settings(max_examples=200, deadline=None)
def test_signs_match_permutation_parity(perm, size, cut):
    word = perm[:size]
    # u_{w_1} ^ ... ^ u_{w_k} is the ordered monomial times the sign of w
    elem = {0: 1}
    for g in word:
        elem = wedge(elem, {1 << g: 1})
    assert elem == {_mask(word): permutation_sign(word)}
    # ordered monomials: u_S ^ u_T carries the sign of sorted(S) + sorted(T)
    left, right = sorted(word[:cut]), sorted(word[cut:])
    product = wedge({_mask(left): 1}, {_mask(right): 1})
    assert product == {_mask(word): permutation_sign(left + right)}
    if left:
        assert wedge({_mask(left): 1}, {_mask(left + right): 1}) == {}
    # moving generator i to the front of the ordered product over the others
    for i in range(8):
        rest = sorted(set(word) - {i})
        assert front_sign(_mask(rest), i) == permutation_sign([i] + rest)


def test_contraction_kills_h_basis():
    for vec in h_basis((0, 1, 2)):
        assert contract_block(vec, (0, 1, 2)) == {}


def test_tensor_matches_direct_cubic_fourfold():
    vt = fixture("cubic-fourfold")
    conv = dict(graded_pairs(tensor_j_dims(vt, 3)))
    direct = dict(multiblock_j_dims(vt.blocks, vt.n, 3))
    for cls, dim in direct.items():
        assert conv.get(cls) == dim


def test_tensor_matches_direct_zmanifold_sampled():
    vt = fixture("z-manifold")
    conv = dict(graded_pairs(tensor_j_dims(vt, 3)))
    sample = degree_classes(vt.blocks, vt.n, 1)
    for cls in sample:
        assert j_algebra_dim_for_class(vt.blocks, vt.n, cls) == conv.get(cls, 0)


def test_tensor_single_block_equals_plain():
    vt = fixture("quartic")
    conv = dict(graded_pairs(tensor_j_dims(vt, 5)))
    plain = dict(graded_pairs(koszul_cohomology_dims(4, 5)))
    for cls, dim in plain.items():
        assert conv.get(cls) == dim


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_tensor_convolution_matches_the_oracle_row_for_row(name):
    # every row, the ones beyond the cutoff included
    vt = fixture(name)
    assert graded_pairs(tensor_j_dims(vt, 4)) == convolution_by_oracle(vt, 4)


@pytest.mark.parametrize("blocks", INTERLEAVED_BLOCKS)
def test_tensor_convolution_matches_the_oracle_on_interleaved_blocks(blocks):
    vt = SimpleNamespace(blocks=blocks, n=sum(map(len, blocks)))
    assert graded_pairs(tensor_j_dims(vt, 4)) == convolution_by_oracle(vt, 4)


PARTIAL_SUM_CLASS = (-15, (0, 0, 0, 0, 8, 8))


def test_partial_sum_class_lies_outside_the_cutoff_classes():
    vt = fixture("cubic-fourfold")
    assert PARTIAL_SUM_CLASS not in degree_classes(vt.blocks, vt.n, 3)
    assert j_algebra_dim_for_class(vt.blocks, vt.n, PARTIAL_SUM_CLASS) == 3


@pytest.mark.xfail(strict=True, reason="for r > 1 graded_dims prints partial "
                   "convolution sums for classes outside degree_classes: dim 2 "
                   "where the class-by-class dimension is 3")
def test_printed_graded_dims_row_is_never_a_partial_sum():
    vt = fixture("cubic-fourfold")
    body = report.build_report(vt, ("algebra",), algebra_cutoff=3)
    printed = dict(graded_pairs(body["sections"]["algebra"]["graded_dims"]))
    truth = j_algebra_dim_for_class(vt.blocks, vt.n, PARTIAL_SUM_CLASS)
    assert printed.get(PARTIAL_SUM_CLASS, truth) == truth


def test_sign_action_examples():
    v = (1, 1, 0)
    assert sign_action((0, 0, 0), 0, v) == -1          # the unit: dagger = 1
    assert sign_action((1, 1, 1), 0, v) == 1           # a = e_I: dagger = 6
    assert sign_action((1, 1, 1), 1, v) == -1          # |h| parity flips


@given(st.tuples(*[st.integers(0, 3)] * 3), st.tuples(*[st.integers(0, 3)] * 3),
       st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_sign_action_multiplicative(a1, a2, h1, h2):
    # (-1)^(<v+e,a>+h) is a character; the leading 1 contributes a fixed flip
    v = (1, 1, 0)
    combined = sign_action(tuple(x + y for x, y in zip(a1, a2)), h1 + h2, v)
    assert combined == -sign_action(a1, h1, v) * sign_action(a2, h2, v)


@pytest.mark.parametrize("name,count", (
    ("quartic", 22), ("cubic-fourfold", 24), ("z-manifold", 36)))
def test_deformation_classes(name, count):
    vt = fixture(name)
    cls = enumerate_deformation_classes(vt)
    assert len(cls.surviving) == count
    assert cls.surviving == vt.xi0
    assert len(cls.killed_in_ideal) == len(vt.xi) - len(vt.xi0)
    # every pair of the H basis, labelled (block, position), is a |h| = 2
    # candidate that the sign rule kills: C(sum (|I_j| - 1), 2) of them
    labels = [(j, pos) for j, blk in enumerate(vt.blocks) for pos in range(len(blk) - 1)]
    assert len(cls.sign_killed) == comb(len(labels), 2)
    assert set(cls.sign_killed) == {(x, y) for x in labels for y in labels if x < y}


def test_classification_ranks_only_the_xi_exponents(monkeypatch):
    # one membership test per b in Xi; the sign-killed pairs are not ranked
    vt = fixture("z-manifold")
    calls = []
    check = koszulalg.element_in_ideal
    monkeypatch.setattr(koszulalg, "element_in_ideal",
                        lambda *args: calls.append(args) or check(*args))
    enumerate_deformation_classes(vt)
    assert len(calls) == len(vt.xi) == 57


def test_deformation_classes_random_v():
    vt = fixture("cubic-fourfold")
    rng = random.Random(3)
    from tests_support import random_admissible_v
    for _ in range(5):
        v = random_admissible_v(vt, rng)
        cls = enumerate_deformation_classes(
            validate(vt.input._replace(volume_orders=v)))
        assert cls.surviving == vt.xi0


def test_some_wedge_killed_candidates_are_nonzero():
    # for the quartic the pure wedge pairs survive in the algebra (they are
    # killed only by the sign rule); each flag is computed here, by the oracle
    vt = fixture("quartic")
    cls = enumerate_deformation_classes(vt)
    basis = {(j, pos): vec for j, blk in enumerate(vt.blocks)
             for pos, vec in enumerate(h_basis(blk))}
    pairs = [wedge(basis[x], basis[y]) for x, y in cls.sign_killed]
    flags = [bool(pair) and not in_ideal_by_class(vt.blocks, vt.n, (0,) * vt.n, pair)
             for pair in pairs]
    assert len(flags) == 3 and any(flags)


@pytest.mark.parametrize("name", ("quartic", "cubic-fourfold", "z-manifold"))
def test_curvature_candidates_match_no_bc(name):
    vt = fixture(name)
    assert enumerate_curvature_candidates(vt) == check_no_bc(vt).witnesses
