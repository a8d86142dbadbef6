import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorcone import report, toricdata
from mirrorcone.fixtures import FIXTURE_NAMES, fixture, fixture_input
from mirrorcone.grading import build_grading_data
from mirrorcone.koszulalg import involution_sign
from mirrorcone.toricdata import (
    BlockTooSmall,
    DegreeSumNotOne,
    DivisibilityFail,
    LatticeSpec,
    MissingGenerator,
    ToricDataError,
    ToricInput,
    UnknownMonomial,
    check_embeddedness,
    check_nef_partition,
    check_no_bc,
    count_xi_candidates,
    symmetry_groups,
    validate,
)
from oracles import (
    box_scan_xi,
    delta_relator_j_parts,
    involution_sign_by_fractions,
    nef_verdict_by_fractions,
    no_bc_witnesses_by_fractions,
)
from tests_support import analyze_fixture, iota_of_block, patch_during, random_admissible_v

QUARTIC_CONG = (((1, 1, 1, 1), 4),)
CUBIC_CONG = (((1, 1, 1, 1, 1, 1), 3),)
ZMAN_CONG = (((1, 1, 1, -1, -1, -1, 0, 0, 0), 3), ((0, 0, 0, 1, 1, 1, -1, -1, -1), 3))


def test_quartic_validates():
    vt = fixture("quartic")
    assert vt.d == 4
    assert vt.q == (1, 1, 1, 1)
    assert vt.n_sigma == (Fraction(1, 4),) * 4
    assert len(vt.xi) == 35
    assert len(vt.xi0) == 22


def test_cubic_fourfold_validates():
    vt = fixture("cubic-fourfold")
    assert vt.d == 3
    assert len(vt.xi0) == 24


def test_zmanifold_xi0_structure():
    vt = fixture("z-manifold")
    assert len(vt.xi0) == 36
    singles = {p for p in vt.xi0 if max(p) == 3}
    triples = {p for p in vt.xi0 if max(p) == 1}
    assert len(singles) == 9 and len(triples) == 27
    assert singles | triples == set(vt.xi0)
    for p in triples:
        support = [i for i, x in enumerate(p) if x]
        assert [i // 3 for i in support] == [0, 1, 2]


def test_elliptic_xi0_exact():
    vt = fixture("elliptic")
    assert vt.xi0 == ((0, 0, 3), (0, 3, 0), (3, 0, 0))


@pytest.mark.parametrize("name,degrees,congs", [
    ("elliptic", (3, 3, 3), (((1, 1, 1), 3),)),
    ("quartic", (4, 4, 4, 4), QUARTIC_CONG),
    ("cubic-fourfold", (3,) * 6, CUBIC_CONG),
])
def test_xi_matches_box_scan_oracle(name, degrees, congs):
    vt = fixture(name)
    assert list(vt.xi) == box_scan_xi(degrees, congs)


@pytest.mark.parametrize("degrees", [(3, 3, 3), (4, 4, 4, 4), (2, 4, 4), (2, 3, 6), (3,) * 6])
def test_xi_candidate_count_matches_box_scan(degrees):
    d = lcm(*degrees)
    q = tuple(d // x for x in degrees)
    assert count_xi_candidates(q, d) == len(box_scan_xi(degrees, ()))


def test_xi0_two_zero_rule():
    for name in ("elliptic", "quartic", "cubic-fourfold", "z-manifold"):
        vt = fixture(name)
        for p in vt.xi0:
            for blk in vt.blocks:
                nonzero = sum(1 for i in blk if p[i] != 0)
                assert nonzero <= len(blk) - 2


def test_degree_sum_not_one():
    inp = ToricInput(blocks=((0, 1, 2),), degrees=(3, 3, 4),
                     lattice=LatticeSpec(congruences=(((1, 1, 1), 3),)))
    with pytest.raises(DegreeSumNotOne):
        validate(inp)


def test_block_too_small():
    inp = ToricInput(blocks=((0, 1),), degrees=(2, 2),
                     lattice=LatticeSpec(congruences=(((1, 1), 2),)))
    with pytest.raises(BlockTooSmall):
        validate(inp)


def test_missing_generator():
    # the diagonal lattice misses e_I
    gens = tuple(tuple(4 if i == j else 0 for i in range(4)) for j in range(4))
    inp = ToricInput(blocks=((0, 1, 2, 3),), degrees=(4, 4, 4, 4),
                     lattice=LatticeSpec(generators=gens))
    with pytest.raises(MissingGenerator):
        validate(inp)


def test_divisibility_fail():
    # the full lattice Z^4 contains everything but fails d | <q, m>
    gens = tuple(tuple(1 if i == j else 0 for i in range(4)) for j in range(4))
    inp = ToricInput(blocks=((0, 1, 2, 3),), degrees=(4, 4, 4, 4),
                     lattice=LatticeSpec(generators=gens))
    with pytest.raises(DivisibilityFail):
        validate(inp)


def test_weight_key_must_be_in_xi0():
    inp = fixture_input("quartic", weights={(1, 1, 1, 1): Fraction(1)})
    with pytest.raises(UnknownMonomial):
        validate(inp)


def test_validate_keeps_uniform_heights_as_the_default_valuations():
    vt = fixture("quartic", weights=Fraction(5, 2))
    assert vt.heights == (Fraction(5, 2),) * len(vt.xi0) == vt.valuations


def test_validate_keeps_mapped_heights_and_overrides_a_valuation():
    inp = fixture_input("quartic")
    weights = {p: Fraction(i + 1, 3) for i, p in enumerate(validate(inp).xi0)}
    first, second = sorted(weights)[:2]
    vt = validate(inp._replace(weights=weights, b_valuations={second: Fraction(9, 4)}))
    assert vt.heights == tuple(weights[p] for p in vt.xi0)
    valuations = dict(zip(vt.xi0, vt.valuations))
    assert valuations[first] == weights[first] and valuations[second] == Fraction(9, 4)
    assert all(valuations[p] == weights[p] for p in vt.xi0 if p != second)


def test_without_lambda_there_are_no_heights_and_only_input_valuations():
    inp = fixture_input("quartic", weights=None)
    vt = validate(inp)
    assert vt.heights is None and vt.valuations == (None,) * len(vt.xi0)
    key = vt.xi0[3]
    vt = validate(inp._replace(b_valuations={key: Fraction(7)}))
    assert vt.heights is None
    assert vt.valuations == tuple(Fraction(7) if p == key else None for p in vt.xi0)


def test_fans_without_lambda_needs_a_weight_vector():
    vt = fixture("quartic", weights=None)
    with pytest.raises(ToricDataError, match="^no weight vector supplied$"):
        report.build_report(vt, ["fans"])


def test_nef_partition_quartic_true():
    assert check_nef_partition(fixture("quartic")).holds


def test_nef_partition_cubic_false_with_witness():
    vt = fixture("cubic-fourfold")
    verdict = check_nef_partition(vt)
    assert not verdict.holds
    j, m, pairing = verdict.witnesses[0]
    assert pairing.denominator != 1
    # re-check the witness by hand
    iota = iota_of_block(vt, j)
    assert sum(a * b for a, b in zip(iota, m)).denominator != 1


def test_nef_partition_zmanifold_false():
    assert not check_nef_partition(fixture("z-manifold")).holds


def test_nef_implies_iota_sum_is_n_sigma():
    for name in ("elliptic", "quartic"):
        vt = fixture(name)
        assert check_nef_partition(vt).holds
        total = [Fraction(0)] * vt.n
        for j in range(vt.r):
            for i, x in enumerate(iota_of_block(vt, j)):
                total[i] += x
        assert tuple(total) == vt.n_sigma


def test_embeddedness_quartic_true():
    assert check_embeddedness(fixture("quartic")).holds


def test_embeddedness_cubic_witnesses():
    verdict = check_embeddedness(fixture("cubic-fourfold"))
    assert not verdict.holds
    # the classical counterexample {1,4,5} (1-based) is among the witnesses
    assert (0, 3, 4) in verdict.witnesses
    # every witness is a 0/1 vector in M_bar that is not a union of blocks
    for K in verdict.witnesses:
        assert len(K) % 3 == 0
        assert set(K) not in ({0, 1, 2}, {3, 4, 5}, {0, 1, 2, 3, 4, 5})


def test_embeddedness_zmanifold_first_witness():
    verdict = check_embeddedness(fixture("z-manifold"))
    assert not verdict.holds
    assert verdict.witnesses[0] == (0, 3, 6)


def test_no_bc_quartic_holds():
    assert check_no_bc(fixture("quartic")).holds


def test_no_bc_cubic_fails_with_145():
    verdict = check_no_bc(fixture("cubic-fourfold"))
    assert not verdict.holds
    assert (0, 3, 4) in verdict.witnesses


def test_no_bc_zmanifold_fails_with_147():
    verdict = check_no_bc(fixture("z-manifold"))
    assert not verdict.holds
    assert (0, 3, 6) in verdict.witnesses


# Blocks whose 1/d_i sum to 1, of sizes 3 and 4 with mixed degrees.
DEGREE_BLOCKS = ((3, 3, 3), (2, 4, 4), (2, 3, 6), (4, 4, 4, 4), (3, 3, 6, 6))


@st.composite
def degree_inputs(draw):
    """One or two blocks from DEGREE_BLOCKS with <q, m> = 0 mod d, and maybe a
    random congruence c = 0 mod k with k | c_i d_i at every index."""
    shapes = draw(st.lists(st.sampled_from(DEGREE_BLOCKS), min_size=1, max_size=2))
    degrees = sum(shapes, ())
    starts = [sum(map(len, shapes[:b])) for b in range(len(shapes))]
    d = lcm(*degrees)
    congruences = [(tuple(d // di for di in degrees), d)]
    if draw(st.booleans()):
        k = draw(st.sampled_from((2, 3, 4, 6)))
        congruences.append((tuple(k // gcd(k, di) * draw(st.integers(0, k - 1)) % k
                                  for di in degrees), k))
    return ToricInput(
        blocks=tuple(tuple(range(start, start + len(shape)))
                     for start, shape in zip(starts, shapes)),
        degrees=degrees, lattice=LatticeSpec(congruences=tuple(congruences)))


@given(degree_inputs(), st.integers(0, 2 ** 32))
@settings(max_examples=60, deadline=None)
def test_degree_certificates_agree_with_the_fraction_oracles(inp, seed):
    # src reads the conditions, the delta relators and the involution sign
    # on (q, d); the oracles read them on Fractions 1/d_i
    try:
        vt = validate(inp)
    except ToricDataError:
        return
    nef = check_nef_partition(vt)
    holds, witness = nef_verdict_by_fractions(vt.blocks, vt.degrees, vt.m_bar.basis)
    assert nef.holds == holds
    assert nef.witnesses == (() if holds else (witness,))
    assert check_no_bc(vt).witnesses == no_bc_witnesses_by_fractions(
        vt.degrees, vt.subsets_in_lattice)
    delta = build_grading_data(vt).delta
    assert [rel[0] for rel in delta.relations] == delta_relator_j_parts(
        vt.degrees, vt.m_bar.basis)
    v = random_admissible_v(vt, random.Random(seed))
    vt_v = validate(inp._replace(volume_orders=v))
    for b in vt.xi:
        for h_size in (0, 1):
            assert involution_sign(vt_v, b, h_size) == involution_sign_by_fractions(
                vt.degrees, v, b, h_size)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_one_report_scans_the_subsets_once(name, monkeypatch):
    # embeddedness, no-bc and the curvature candidates share one 2^n scan
    vt = fixture(name)
    calls = []
    contains = toricdata.contains

    def counting(lattice, vec):
        calls.append(vec)
        return contains(lattice, vec)

    monkeypatch.setattr(toricdata, "contains", counting)
    report.build_report(vt, ("conditions", "algebra"),
                        algebra_cutoff=max(map(len, vt.blocks)))
    assert len(calls) == 2 ** vt.n - 1


def test_a_kernel_of_the_wrong_index_makes_analyze_exit_3(tmp_path, capsys, monkeypatch):
    # K built from <q, m> = 0 mod d/2: it still holds M_bar, but its index is
    # 2 where the diagonal character has order 4
    patch_during(monkeypatch, report, "symmetry_groups", toricdata, "sublattice_from_congruences",
                 lambda build: lambda n, congs: build(n, [(c, m // 2) for c, m in congs]))
    code, err = analyze_fixture(tmp_path, capsys, "quartic", "--sections", "groups")
    assert code == 3
    assert "certificate failure [GroupOrderCheckFailed]: [Z^I : K] = 2, not d = 4" in err, err


def test_symmetry_groups_fixture_values():
    sg = symmetry_groups(fixture("quartic"))
    assert sg.g.invariant_factors == (4,)
    assert sg.gamma.invariant_factors == ()
    sg = symmetry_groups(fixture("cubic-fourfold"))
    assert sg.gamma.invariant_factors == ()
    sg = symmetry_groups(fixture("z-manifold"))
    assert sg.gamma.invariant_factors == (3,)
    assert sg.g.invariant_factors == (3, 3)


@given(st.integers(3, 6))
@settings(max_examples=4, deadline=None)
def test_fermat_family_groups(n):
    # single block, all degrees n: G is Z/n, Gamma trivial
    inp = ToricInput(blocks=(tuple(range(n)),), degrees=(n,) * n,
                     lattice=LatticeSpec(congruences=(((1,) * n, n),)))
    vt = validate(inp)
    sg = symmetry_groups(vt)
    assert sg.g.invariant_factors == (n,)
    assert sg.gamma.invariant_factors == ()
