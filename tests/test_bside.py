import dataclasses
import json
import random
from fractions import Fraction
from itertools import product

import pytest

from mirrorcone import bside, report
from mirrorcone.bside import (
    FactorizationCheckFailed,
    IntertwineCheckFailed,
    build_koszul_mf,
    build_superpotential,
    check_wflips,
    dualize_mf,
    term_flip_sign,
)
from mirrorcone.cli import fixture_config_json, main
from mirrorcone.fixtures import fixture
from mirrorcone.grading import build_grading_data
from mirrorcone.toricdata import LatticeSpec, ToricInput, UnknownMonomial, validate
from oracles import koszul_delta_squared, koszul_intertwining_sides

TERM_COUNTS = {"elliptic": 4, "quartic": 23, "cubic-fourfold": 26, "z-manifold": 39}
ISO_DEGREES = {"elliptic": -2, "quartic": -3, "cubic-fourfold": -4, "z-manifold": -6}


@pytest.mark.parametrize("name,count", sorted(TERM_COUNTS.items()))
def test_term_counts(name, count):
    w = build_superpotential(fixture(name))
    assert len(w.terms) == count
    assert sum(1 for t in w.terms if t.is_block) == fixture(name).r


def test_valuations_default_to_weights():
    vt = fixture("quartic", weights=Fraction(5, 2))
    w = build_superpotential(vt)
    for t in w.terms:
        if not t.is_block:
            assert t.valuation == Fraction(5, 2)


def test_explicit_valuations_override():
    vt = fixture("quartic")
    key = vt.xi0[0]
    vt = validate(dataclasses.replace(vt.input, b_valuations={key: Fraction(9, 4)}))
    w = build_superpotential(vt)
    vals = {t.exponent: t.valuation for t in w.terms if not t.is_block}
    assert vals[key] == Fraction(9, 4)


def test_unknown_valuation_key_rejected():
    vt = fixture("quartic")
    with pytest.raises(UnknownMonomial):
        validate(dataclasses.replace(vt.input, b_valuations={(1, 1, 1, 1): Fraction(1)}))


from tests_support import random_admissible_v


@pytest.mark.parametrize("name", sorted(TERM_COUNTS))
def test_wflips_default_and_random_v(name):
    vt = fixture(name)
    w = build_superpotential(vt)
    assert check_wflips(w)
    rng = random.Random(13)
    for _ in range(10):
        v = random_admissible_v(vt, rng)
        assert check_wflips(build_superpotential(
            validate(dataclasses.replace(vt.input, volume_orders=v))))


def test_block_term_flip_is_forced():
    vt = fixture("z-manifold")
    w = build_superpotential(vt)
    for t in w.terms:
        if t.is_block:
            assert term_flip_sign(vt, t) == -1


def test_toy_three_variable_factorization():
    inp = ToricInput(blocks=((0, 1, 2),), degrees=(3, 3, 3),
                     lattice=LatticeSpec(congruences=(((1, 1, 1), 3),)))
    vt = validate(inp)
    w = build_superpotential(vt)
    mf = build_koszul_mf(w)
    assert mf.verify_factorization()
    report = dualize_mf(mf)
    assert report.intertwines and report.iso_degree == -2


@pytest.mark.parametrize("name", sorted(TERM_COUNTS))
def test_factorization_all_fixtures(name):
    vt = fixture(name)
    mf = build_koszul_mf(build_superpotential(vt))
    assert mf.verify_factorization()


@pytest.mark.parametrize("name", sorted(TERM_COUNTS))
def test_delta_degree_is_odd_one(name):
    vt = fixture(name)
    gd = build_grading_data(vt)
    mf = build_koszul_mf(build_superpotential(vt))
    assert mf.delta_degree_check(gd)


@pytest.mark.parametrize("name", sorted(ISO_DEGREES.items()))
def test_dualization(name):
    name, degree = name
    vt = fixture(name)
    mf = build_koszul_mf(build_superpotential(vt))
    report = dualize_mf(mf)
    assert report.iso_degree == degree
    assert report.intertwines


def test_split_reassembles_w():
    vt = fixture("cubic-fourfold")
    w = build_superpotential(vt)
    mf = build_koszul_mf(w)
    rebuilt = {}
    for i, entries in enumerate(mf.splits):
        for sign, sym, wexp in entries:
            exp = tuple(e + (1 if k == i else 0) for k, e in enumerate(wexp))
            rebuilt[(exp, sym)] = rebuilt.get((exp, sym), 0) + sign
    expected = {(t.exponent, t.symbol()): t.sign for t in w.terms}
    assert rebuilt == expected


def _packed(mf, elem):
    """A tuple-keyed oracle element on mf's packed keys; the packing must not merge keys."""
    out = {(mf.pack(exp, syms), mask): c for (exp, mask, syms), c in elem.items()}
    assert len(out) == len(elem)
    return out


@pytest.mark.parametrize("name", sorted(TERM_COUNTS))
def test_packed_certificate_matches_the_tuple_oracle(name):
    w = build_superpotential(fixture(name))
    mf = build_koszul_mf(w)
    sides = bside.intertwining_sides(mf)
    for mask in range(1 << mf.n):
        square = koszul_delta_squared(mf.n, mf.splits, mask)
        assert square == {(t.exponent, mask, t.symbol()): t.sign for t in w.terms}
        basis = {(0, mask): 1}
        assert mf.delta(mf.delta(basis)) == _packed(mf, square)
        lhs, rhs = koszul_intertwining_sides(mf.n, mf.splits, mask)
        assert lhs == rhs
        assert sides(basis) == (_packed(mf, lhs), _packed(mf, rhs))


@pytest.mark.parametrize("name", sorted(TERM_COUNTS))
def test_packing_width_exceeds_every_digit_of_a_sum_of_two_entries(name):
    # a base-2^B digit holds 0 .. 2^B - 1, so no sum of two entries carries
    w = build_superpotential(fixture(name))
    mf = build_koszul_mf(w)
    symbols = sorted({s for t in w.terms for s in t.symbol()})
    entries = [(syms, exp) for p in (*mf.z, *mf.splits) for _, syms, exp in p]
    entries += [(t.symbol(), t.exponent) for t in w.terms]
    digits = [(*exp, *(syms.count(s) for s in symbols)) for syms, exp in entries]
    top = max(a + b for d1, d2 in product(digits, repeat=2) for a, b in zip(d1, d2))
    assert 2 ** mf.width > top


def _with_one_split_sign_flipped(mf):
    (sign, syms, exp), *rest = mf.splits[0]
    return dataclasses.replace(mf, splits=(((-sign, syms, exp), *rest),) + mf.splits[1:])


def test_flipped_split_sign_fails_factorization():
    mf = _with_one_split_sign_flipped(build_koszul_mf(build_superpotential(fixture("quartic"))))
    with pytest.raises(FactorizationCheckFailed):
        mf.verify_factorization()


def test_flipped_split_sign_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(report, "build_koszul_mf",
                        lambda w: _with_one_split_sign_flipped(build_koszul_mf(w)))
    cfg = tmp_path / "elliptic.json"
    cfg.write_text(json.dumps(fixture_config_json("elliptic")))
    assert main(["analyze", str(cfg), "--sections", "bside"]) == 3
    assert "certificate failure [FactorizationCheckFailed]" in capsys.readouterr().err


def test_flipped_dual_sign_fails_intertwining(monkeypatch):
    mf = build_koszul_mf(build_superpotential(fixture("elliptic")))
    operator = bside.koszul_operator

    def dual_with_one_sign_flipped(elem, contract, insert):
        if insert is not mf.packed_splits:
            # the dual operator: -z_0 theta_0 becomes +z_0 theta_0
            insert = (tuple((-s, m) for s, m in insert[0]),) + insert[1:]
        return operator(elem, contract, insert)

    monkeypatch.setattr(bside, "koszul_operator", dual_with_one_sign_flipped)
    with pytest.raises(IntertwineCheckFailed):
        dualize_mf(mf)
