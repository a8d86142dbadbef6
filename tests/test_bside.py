import copy
import json
import random
import time
from fractions import Fraction

import pytest

from mirrorcone import bside, report
from mirrorcone.bside import (
    FactorizationCheckFailed,
    HomogeneityCheckFailed,
    IntertwineCheckFailed,
    KoszulMF,
    build_koszul_mf,
    build_superpotential,
    check_wflips,
    dualize_mf,
    term_flip_sign,
)
from mirrorcone.cli import main
from mirrorcone.fixtures import fixture
from mirrorcone.grading import build_grading_data
from mirrorcone.toricdata import LatticeSpec, ToricInput, UnknownMonomial, input_echo, validate
from oracles import comparison_image, koszul_delta_squared, koszul_intertwining_sides
from tests_support import cubic_block_input, random_admissible_v

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
    vt = validate(vt.input._replace(b_valuations={key: Fraction(9, 4)}))
    w = build_superpotential(vt)
    vals = {t.exponent: t.valuation for t in w.terms if not t.is_block}
    assert vals[key] == Fraction(9, 4)


def test_unknown_valuation_key_rejected():
    vt = fixture("quartic")
    with pytest.raises(UnknownMonomial):
        validate(vt.input._replace(b_valuations={(1, 1, 1, 1): Fraction(1)}))


@pytest.mark.parametrize("name", sorted(TERM_COUNTS))
def test_wflips_default_and_random_v(name):
    vt = fixture(name)
    w = build_superpotential(vt)
    assert check_wflips(w)
    rng = random.Random(13)
    for _ in range(10):
        v = random_admissible_v(vt, rng)
        assert check_wflips(build_superpotential(
            validate(vt.input._replace(volume_orders=v))))


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


def test_a_split_entry_of_the_wrong_degree_fails_the_degree_check():
    # one more z_0 in W_0's first entry adds (2, -e_0): its piece has degree (3, -e_0)
    mf = build_koszul_mf(build_superpotential(fixture("quartic")))
    (sign, syms, exp), *rest = mf.splits[0]
    raised = (sign, syms, (exp[0] + 1,) + exp[1:])
    bad = KoszulMF(mf.vt, mf.w, ((raised, *rest),) + mf.splits[1:])
    assert not bad.delta_degree_check(build_grading_data(mf.vt))


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


ORACLE_INPUTS = {name: lambda name=name: fixture(name) for name in sorted(TERM_COUNTS)}
# one cubic block is the elliptic fixture
ORACLE_INPUTS.update({f"cubic-blocks-{k}": lambda k=k: validate(cubic_block_input(k))
                      for k in (2, 3)})


@pytest.mark.parametrize("name", ORACLE_INPUTS)
def test_tuple_oracle_basis_scan_agrees_with_the_sign_identity_certificate(name):
    """The 2^n basis scan on readable keys agrees with the sign-identity
    certificate: delta^2 = W * id and the comparison map intertwines on
    every basis element."""
    w = build_superpotential(ORACLE_INPUTS[name]())
    mf = build_koszul_mf(w)
    assert mf.verify_factorization() and dualize_mf(mf).intertwines
    for mask in range(1 << mf.n):
        square = koszul_delta_squared(mf.n, mf.splits, mask)
        assert square == {(t.exponent, mask, t.symbol()): t.sign for t in w.terms}
        lhs, rhs = koszul_intertwining_sides(mf.n, mf.splits, mask)
        assert lhs == rhs


# The name this check had before its rename, on four of its cases until the
# next change deletes it.
@pytest.mark.parametrize("name", ["cubic-blocks-2", "cubic-blocks-3", "elliptic", "quartic"])
def test_packed_certificate_matches_the_tuple_oracle(name):
    test_tuple_oracle_basis_scan_agrees_with_the_sign_identity_certificate(name)


def test_comparison_sign_matches_the_contractions():
    for n in range(1, 10):
        for mask in range(1 << n):
            assert comparison_image(n, mask) == (bside.comparison_sign(mask),
                                                 ((1 << n) - 1) ^ mask)


def test_six_cubic_blocks_bside_within_budget(tmp_path):
    cfg = tmp_path / "cubic6.json"
    cfg.write_text(json.dumps(report.input_echo(validate(cubic_block_input(6)))))
    t0 = time.monotonic()
    assert main(["analyze", str(cfg), "--sections", "bside",
                 "--out", str(tmp_path / "report.json")]) == 0
    assert time.monotonic() - t0 < 10
    body = json.loads((tmp_path / "report.json").read_text())["sections"]["bside"]
    assert body["delta_squared_is_w"] and body["dual_intertwines"]
    assert body["dual_iso_degree"] == 6 - 18


def _with_one_split_sign_flipped(mf):
    (sign, syms, exp), *rest = mf.splits[0]
    return KoszulMF(mf.vt, mf.w, (((-sign, syms, exp), *rest),) + mf.splits[1:])


def test_flipped_split_sign_fails_factorization():
    mf = _with_one_split_sign_flipped(build_koszul_mf(build_superpotential(fixture("quartic"))))
    with pytest.raises(FactorizationCheckFailed):
        mf.verify_factorization()


def test_flipped_split_sign_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(report, "build_koszul_mf",
                        lambda w: _with_one_split_sign_flipped(build_koszul_mf(w)))
    cfg = tmp_path / "elliptic.json"
    cfg.write_text(json.dumps(input_echo(fixture("elliptic"))))
    assert main(["analyze", str(cfg), "--sections", "bside"]) == 3
    assert "certificate failure [FactorizationCheckFailed]" in capsys.readouterr().err


def _with_q_tampered(vt):
    tampered = copy.copy(vt)
    tampered.q = (vt.q[0] + 1,) + vt.q[1:]
    return tampered


def test_tampered_q_fails_the_homogeneity_check():
    with pytest.raises(HomogeneityCheckFailed, match="is not weighted homogeneous"):
        build_superpotential(_with_q_tampered(fixture("quartic")))


def test_tampered_q_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(report, "build_superpotential",
                        lambda vt: build_superpotential(_with_q_tampered(vt)))
    cfg = tmp_path / "elliptic.json"
    cfg.write_text(json.dumps(input_echo(fixture("elliptic"))))
    assert main(["analyze", str(cfg), "--sections", "bside"]) == 3
    assert "certificate failure [HomogeneityCheckFailed]" in capsys.readouterr().err


def test_dropped_split_term_fails_factorization():
    mf = build_koszul_mf(build_superpotential(fixture("quartic")))
    bad = KoszulMF(mf.vt, mf.w, (mf.splits[0][1:],) + mf.splits[1:])
    with pytest.raises(FactorizationCheckFailed, match="z_i W_i != W"):
        bad.verify_factorization()
    # the basis scan sees the same defect
    assert any(koszul_delta_squared(mf.n, bad.splits, mask)
               != koszul_delta_squared(mf.n, mf.splits, mask)
               for mask in range(1 << mf.n))


def test_front_sign_ignoring_a_lower_bit_fails_both_checks(monkeypatch):
    mf = build_koszul_mf(build_superpotential(fixture("quartic")))
    sign = bside.front_sign
    monkeypatch.setattr(bside, "front_sign", lambda mask, i: sign(mask & ~0b10, i))
    with pytest.raises(FactorizationCheckFailed, match="Clifford"):
        mf.verify_factorization()
    with pytest.raises(IntertwineCheckFailed):
        dualize_mf(mf)


def test_flipped_dual_sign_fails_intertwining(monkeypatch):
    mf = build_koszul_mf(build_superpotential(fixture("elliptic")))
    signs = bside.dual_signs

    def dual_with_one_sign_flipped(n):
        # the dual differential: -z_0 theta_0 becomes +z_0 theta_0
        (a, b), *rest = signs(n)
        return [(-a, b), *rest]

    monkeypatch.setattr(bside, "dual_signs", dual_with_one_sign_flipped)
    with pytest.raises(IntertwineCheckFailed, match="generator 0"):
        dualize_mf(mf)
