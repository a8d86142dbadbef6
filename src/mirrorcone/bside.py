"""The superpotential, its sign involution, and the Koszul matrix factorization.

Coefficients are formal units: a block term carries the unit -1, a
distinguished-monomial term carries a named symbol with a valuation.  Every
identity checked here (weighted homogeneity, the sign flip, delta^2 = W) is
coefficient-agnostic, so no series arithmetic is needed.  A polynomial
element is one flat map from (z-exponent, odd-generator bitmask, coefficient
symbols) to an integer, and one Koszul operator serves both delta and the
dual differential.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add

from . import CertificateFailure
from .grading import GradingData, deg_equal
from .toricdata import ToricDataError, ValidatedToricData, resolve_weight
from .intlat import contains
from .koszulalg import bits, front_sign, involution_sign


class FactorizationCheckFailed(CertificateFailure):
    pass


class IntertwineCheckFailed(CertificateFailure):
    pass


@dataclass(frozen=True)
class Term:
    """One monomial of the superpotential: sign * (unit) * z^exponent."""

    sign: int
    exponent: tuple[int, ...]
    valuation: Fraction | None  # None for the block terms (coefficient -1)
    is_block: bool

    def symbol(self):
        return () if self.is_block else (("b", self.exponent),)

    def to_json(self):
        return {
            "sign": self.sign,
            "exp": list(self.exponent),
            "val": None if self.valuation is None else str(self.valuation),
        }


@dataclass(frozen=True)
class Superpotential:
    terms: tuple[Term, ...]
    vt: ValidatedToricData


def build_superpotential(vt: ValidatedToricData) -> Superpotential:
    """-sum_j z^{e_I_j} + sum_p b_p z^p with val(b_p) defaulting to lambda_p."""
    b_valuations = vt.input.b_valuations
    terms = []
    for j in range(vt.r):
        terms.append(Term(sign=-1, exponent=vt.block_vector(j),
                          valuation=None, is_block=True))
    for p in vt.xi0:
        if b_valuations is not None and tuple(p) in b_valuations:
            val = Fraction(b_valuations[tuple(p)])
        elif vt.input.weights is not None:
            val = resolve_weight(vt.input.weights, p)
        else:
            val = None
        terms.append(Term(sign=1, exponent=p, valuation=val, is_block=False))
    terms.sort(key=lambda t: (not t.is_block, t.exponent))
    w = Superpotential(terms=tuple(terms), vt=vt)
    _assert_homogeneous(w)
    return w


def _assert_homogeneous(w: Superpotential):
    vt = w.vt
    for t in w.terms:
        deg = sum(q * e for q, e in zip(vt.q, t.exponent))
        if deg != vt.d:
            raise ToricDataError(f"term {t.exponent} is not weighted homogeneous")
        if not contains(vt.m_bar, t.exponent):
            raise ToricDataError(f"term exponent {t.exponent} is not in M_bar")


def term_flip_sign(vt: ValidatedToricData, term: Term):
    """Sign the involution z_i -> (-1)^(1+v_i) z_i gives a term z^p and its
    coefficient: minus ``involution_sign`` of z^p, whose sign action has a
    leading -1."""
    return -involution_sign(vt, term.exponent, 0)


def check_wflips(w: Superpotential) -> bool:
    """True iff the involution sends every term of W to minus itself."""
    return all(term_flip_sign(w.vt, t) == -1 for t in w.terms)


# ---------------------------------------------------------------------------
# Koszul matrix factorization.  An element of the free module S[phi] is one
# flat map {(zexp, mask, symbols): int}: bit i of the int mask is the odd
# generator phi_i, products of generators are kept in increasing index order,
# and symbols is a sorted tuple of coefficient symbols (empty = numeric
# unit).  A polynomial such as W_i or z_i is a tuple of (sign, symbols,
# exponent) entries.


def koszul_operator(elem, contract, insert):
    """Apply sum_i contract[i] d/dx_i + insert[i] x_i to a flat element.

    x_i is the odd generator of bit i; contract[i] and insert[i] are
    polynomials given as (sign, symbols, exponent) entries.
    """
    out = {}
    for (zexp, mask, syms), coeff in elem.items():
        for i in range(len(insert)):
            bit = 1 << i
            # d/dx_i and x_i both move x_i past the generators below it
            c = coeff * front_sign(mask, i)
            for sign, esyms, eexp in contract[i] if mask & bit else insert[i]:
                key = (tuple(map(add, zexp, eexp)), mask ^ bit,
                       tuple(sorted(syms + esyms)))
                out[key] = out.get(key, 0) + sign * c
    return {key: c for key, c in out.items() if c}


def _negated(polys):
    return tuple(tuple((-sign, syms, exp) for sign, syms, exp in p) for p in polys)


def _check_every_basis_element(n, holds, failure, what):
    """Raise failure unless holds(mask, phi_mask) for each of the 2^n basis masks."""
    zero = (0,) * n
    for mask in range(1 << n):
        if not holds(mask, {(zero, mask, ()): 1}):
            raise failure(f"{what}{tuple(bits(mask))}")


@dataclass
class KoszulMF:
    """The rank-2^|I| Koszul factorization delta = sum z_i d/dphi_i + W_i phi_i."""

    vt: ValidatedToricData
    w: Superpotential
    splits: tuple  # per variable i: W_i as (sign, symbols, exponent) entries

    @property
    def n(self):
        return self.vt.n

    @cached_property
    def z(self):
        """Per variable i: z_i as a polynomial of one entry."""
        n = self.n
        return tuple(((1, (), tuple(int(k == i) for k in range(n))),)
                     for i in range(n))

    def delta(self, elem):
        return koszul_operator(elem, self.z, self.splits)

    def verify_factorization(self):
        """delta^2 = W * id on every basis element phi_S."""
        w = [(t.sign, t.symbol(), t.exponent) for t in self.w.terms]
        _check_every_basis_element(
            self.n,
            lambda mask, basis: self.delta(self.delta(basis))
            == {(exp, mask, syms): sign for sign, syms, exp in w},
            FactorizationCheckFailed, "delta^2 != W*id on basis element ")
        return True

    def delta_degree_check(self, gd: GradingData) -> bool:
        """Every nonzero piece of delta is homogeneous of odd degree (1, 0).

        The z_i d/dphi_i pieces have degree (2,-e_i) + (-1,e_i) = (1,0)
        exactly; each split entry of W_i phi_i is checked against the same
        class (coefficient symbols graded by their pushed-forward degree).
        """
        n = self.n
        one = gd.cover.deg(1, (0,) * n)
        for i in range(n):
            phi_deg = gd.cover.deg(1, tuple(-1 if k == i else 0 for k in range(n)))
            for _, syms, wexp in self.splits[i]:
                deg = phi_deg
                for k, e in enumerate(wexp):
                    deg = deg + gd.deg_z(gd.cover, k).scale(e)
                for _, exp in syms:
                    deg = deg + gd.deg_r_monomial(exp, 1)
                if not deg_equal(deg, one):
                    return False
        return True


def build_koszul_mf(w: Superpotential) -> KoszulMF:
    """Split W = sum z_i W_i by the smallest-index variable of each monomial."""
    vt = w.vt
    splits = [[] for _ in range(vt.n)]
    for t in w.terms:
        i = next(k for k, e in enumerate(t.exponent) if e > 0)
        reduced = tuple(e - (1 if k == i else 0) for k, e in enumerate(t.exponent))
        splits[i].append((t.sign, t.symbol(), reduced))
    return KoszulMF(vt=vt, w=w, splits=tuple(tuple(s) for s in splits))


@dataclass(frozen=True)
class DualizationReport:
    iso_degree: int
    intertwines: bool


def dualize_mf(mf: KoszulMF) -> DualizationReport:
    """Check that the standard comparison map intertwines the pulled-back dual
    differential with delta, and report its degree r - |I|.

    The dual differential on S[theta] is sum_i(-z_i theta_i - W_i d/dtheta_i)
    (the coefficient involution composed with the theta rescaling), i.e. the
    Koszul operator with -W_i and -z_i; the comparison map sends
    theta_{i_1}..theta_{i_k} to (-1)^k d/dphi_{i_1} .. d/dphi_{i_k} applied
    to phi_1..phi_n.
    """
    vt = mf.vt
    n = vt.n
    contract, insert = _negated(mf.splits), _negated(mf.z)
    full = (1 << n) - 1

    def comparison(mask):
        """Image of theta_mask: sign and the complementary phi mask."""
        # d/dphi_{i_1} .. d/dphi_{i_k} (phi_1 .. phi_n) with i_1 < ... < i_k
        # and the rightmost contraction acting first, then the (-1)^k factor.
        sign, remaining = 1, full
        for i in reversed(bits(mask)):
            sign *= front_sign(remaining, i)
            remaining ^= 1 << i
        return sign * (-1) ** mask.bit_count(), remaining

    def map_elem(elem):
        out = {}
        for (zexp, mask, syms), coeff in elem.items():
            sign, image = comparison(mask)
            out[(zexp, image, syms)] = sign * coeff
        return out

    _check_every_basis_element(
        n,
        lambda mask, basis: map_elem(koszul_operator(basis, contract, insert))
        == mf.delta(map_elem(basis)),
        IntertwineCheckFailed, "comparison map fails on theta_")
    return DualizationReport(iso_degree=vt.r - n, intertwines=True)
