
import copy
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirrorcone import report
from mirrorcone.fixtures import fixture
from mirrorcone.grading import (
    GradingDatum,
    GradingError,
    GradingMorphism,
    MorphismCheckFailed,
    build_grading_data,
    check_commutative_square,
    coker_H,
    p_injective_mod_z,
)
from mirrorcone.intlat import sublattice_from_congruences
from mirrorcone.report import build_report
from mirrorcone.toricdata import ToricDataError, validate
from tests_support import analyze_fixture

FIXTURES = ("elliptic", "quartic", "cubic-fourfold", "z-manifold")


@pytest.mark.parametrize("name", FIXTURES)
def test_morphisms_well_defined(name):
    vt = fixture(name)
    gd = build_grading_data(vt)
    for morph in gd.morphisms().values():
        assert morph.is_well_defined()


def test_report_prints_the_build_verdicts_and_checks_each_morphism_once(monkeypatch):
    calls = []
    check = GradingMorphism.is_well_defined

    def counting(self):
        calls.append(self.name)
        return check(self)

    monkeypatch.setattr(GradingMorphism, "is_well_defined", counting)
    section = build_report(fixture("quartic"), ("grading",))["sections"]["grading"]
    assert section["morphisms_well_defined"] == dict.fromkeys("pqrstuv", True)
    assert sorted(calls) == list("pqrstuv")


def test_a_morphism_that_is_not_well_defined_stops_the_report(monkeypatch):
    check = GradingMorphism.is_well_defined
    monkeypatch.setattr(GradingMorphism, "is_well_defined",
                        lambda self: self.name != "t" and check(self))
    with pytest.raises(GradingError, match="morphism t"):
        build_report(fixture("quartic"), ("grading",))


def test_a_morphism_that_is_not_well_defined_makes_analyze_exit_3(tmp_path, capsys, monkeypatch):
    check = GradingMorphism.is_well_defined
    monkeypatch.setattr(GradingMorphism, "is_well_defined",
                        lambda self: self.name != "t" and check(self))
    code, err = analyze_fixture(tmp_path, capsys, "quartic", "--sections", "grading")
    assert code == 3
    assert err == ("certificate failure [MorphismCheckFailed]: "
                   "morphism t does not respect relators\n")


def test_p_refuses_a_non_integral_shift_off_m_bar():
    # (0, 1, 0, 0) is not in M_bar: p shifts it by 2(1 - 4)/4 = -3/2
    gd = build_grading_data(fixture("quartic"))
    assert gd.p.apply((0, 1, 1, 1, 1)) == (-6, 1, 1, 1, 1)
    with pytest.raises(MorphismCheckFailed, match=r"^morphism p: non-integral shift on "
                                                  r"m = \(1, 0, 0, 0\)$"):
        gd.p.apply((0, 1, 0, 0, 0))
    with pytest.raises(GradingError, match="not in G_amb"):
        gd.p.apply((0, 1, 1, 1))


def test_a_non_integral_n_sigma_pairing_makes_analyze_exit_3(tmp_path, capsys, monkeypatch):
    # d = 5 with q = (1, 1, 1, 1): the M_bar basis row (4, 0, 0, 0) pairs to 4/5
    def shifted(vt):
        vt = copy.copy(vt)
        vt.d = 5
        return build_grading_data(vt)

    monkeypatch.setattr(report, "build_grading_data", shifted)
    code, err = analyze_fixture(tmp_path, capsys, "quartic", "--sections", "grading")
    assert code == 3
    assert ("certificate failure [IntegralityCheckFailed]: <n_sigma, (4, 0, 0, 0)> "
            "is not integral") in err, err


def test_mf_datum_relator():
    gd = build_grading_data(fixture("quartic"))
    assert gd.mf.relations == ((2, -4),)
    assert gd.mf.equal((2, -4), (0, 0))
    assert not gd.mf.equal((1, 0), (0, 0))


def test_delta_datum_relation_quartic():
    gd = build_grading_data(fixture("quartic"))
    assert gd.delta.equal((2, -1, -1, -1, -1), (0, 0, 0, 0, 0))


def test_z_degrees():
    gd = build_grading_data(fixture("quartic"))
    assert gd.deg_z(0) == (2, -1, 0, 0, 0)
    assert gd.r.apply(gd.deg_z(0)) == (0, 1, 0, 0, 0)


def test_odd_relator_rejected():
    with pytest.raises(GradingError):
        GradingDatum("bad", 1, ((1, 2),))


@pytest.mark.parametrize("name", FIXTURES)
def test_all_relators_even(name):
    gd = build_grading_data(fixture(name))
    for datum in (gd.amb, gd.cover, gd.delta, gd.mf):
        for rel in datum.relations:
            assert rel[0] % 2 == 0


@pytest.mark.parametrize("name", FIXTURES)
def test_commutative_square(name):
    vt = fixture(name)
    gd = build_grading_data(vt)
    assert check_commutative_square(vt, gd)


def test_a_square_that_does_not_commute_is_reported():
    # without r's shift 2|m|, r(p(0, m)) misses s(q(0, m)) by 2|m| in j for m in M_bar
    vt = fixture("quartic")
    gd = build_grading_data(vt)
    r = gd.r._replace(w=(0,) * vt.n)
    assert not check_commutative_square(vt, gd._replace(r=r))
    # and it sends the cover relator (-6, 1, 1, 1, 1) off the Delta lattice
    assert not r.is_well_defined()


@pytest.mark.parametrize("name", FIXTURES)
def test_coker_h_trivial(name):
    vt = fixture(name)
    assert coker_H(vt, build_grading_data(vt)).invariant_factors == ()


@pytest.mark.parametrize("name", FIXTURES)
def test_p_injective(name):
    vt = fixture(name)
    gd = build_grading_data(vt)
    assert p_injective_mod_z(vt, gd)


@st.composite
def blocked_congruences(draw):
    """Blocks partitioning 0..n-1 and congruences (c, mod) on Z^n."""
    n = draw(st.integers(2, 6))
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=2)))
    blocks = [tuple(sorted(order[a:b])) for a, b in zip([0, *cuts], [*cuts, n])]
    congruences = draw(st.lists(st.tuples(st.tuples(*[st.integers(-4, 4)] * n),
                                          st.integers(1, 6)), max_size=3))
    return blocks, congruences


@given(blocked_congruences())
@example(([(0, 1, 2)], [((1, 1, 1), 3)]))
@example(([(0, 1, 2)], [((1, 0, 0), 2)]))
@settings(max_examples=80, deadline=None)
def test_p_injective_mod_z_holds_iff_every_block_vector_meets_the_congruences(case):
    # validate refuses a lattice without every e_{I_j}, so the record is a
    # stand-in with the lattice, the blocks and the block vectors
    blocks, congruences = case
    n = sum(map(len, blocks))
    vt = SimpleNamespace(m_bar=sublattice_from_congruences(n, congruences), n=n, r=len(blocks),
                         block_vector=lambda j: tuple(int(i in blocks[j]) for i in range(n)))
    expected = all(sum(c[i] for i in blk) % mod == 0
                   for blk in blocks for c, mod in congruences)
    assert p_injective_mod_z(vt, None) is expected


def test_default_volume_vector_block_sums():
    vt = fixture("z-manifold")
    v = vt.volume_orders
    for blk in vt.blocks:
        assert sum(v[i] for i in blk) == len(blk) - 1


def test_default_volume_vector_quartic():
    assert fixture("quartic").volume_orders == (1, 1, 1, 0)


def test_volume_vector_validation():
    vt = fixture("quartic")
    with pytest.raises(ToricDataError):
        validate(vt.input._replace(volume_orders=(1, 1, 1, 1)))


def test_w_monomials_have_degree_two_in_cover():
    from mirrorcone.bside import build_superpotential
    for name in FIXTURES:
        vt = fixture(name)
        gd = build_grading_data(vt)
        w = build_superpotential(vt)
        two = (2,) + (0,) * vt.n
        for t in w.terms:
            deg = [0] * (1 + vt.n)
            for i, e in enumerate(t.exponent):
                deg = [x + e * y for x, y in zip(deg, gd.deg_z(i))]
            if not t.is_block:
                deg = [x + y for x, y in zip(deg, gd.deg_r_monomial(t.exponent))]
            assert gd.cover.equal(deg, two)


def test_t_sends_z_monomials_to_weighted_degree():
    vt = fixture("quartic")
    gd = build_grading_data(vt)
    for p in vt.xi:
        assert gd.t.apply((0, *p)) == (0, vt.d)


def test_v_morphism_kills_cover_relators():
    vt = fixture("z-manifold")
    gd = build_grading_data(vt)
    for rel in gd.cover.relations:
        assert gd.v.apply(rel) == (0,)


@given(st.integers(0, 3), st.integers(-2, 2))
@settings(max_examples=20, deadline=None)
def test_square_on_random_lattice_elements(k, c):
    vt = fixture("quartic")
    gd = build_grading_data(vt)
    m = tuple(c * x for x in vt.m_bar.basis[k % 4])
    left = gd.s.apply(gd.q.apply((k, *m)))
    right = gd.r.apply(gd.p.apply((k, *m)))
    assert gd.delta.equal(left, right)
