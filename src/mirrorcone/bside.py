"""The superpotential, its sign involution, and the Koszul matrix factorization.

Coefficients are formal units: a block term carries the unit -1, a
distinguished-monomial term carries a named symbol with a valuation.  Every
identity checked here (weighted homogeneity, the sign flip, delta^2 = W) is
coefficient-agnostic, so no series arithmetic is needed.  A polynomial
element is one flat map from (packed monomial, odd-generator bitmask) to an
integer, and one Koszul operator serves both delta and the dual
differential.  The packed monomial is one int whose base-2^B digits are the
n z-exponents followed by one count per coefficient symbol, so multiplying
two monomials is one int addition.  B is chosen from the data so that 2^B
exceeds every digit of a product of two entries (the most any check forms):
no addition carries, and the packing is injective on everything compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import eq

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
# flat map {(monomial, mask): int}: bit i of the int mask is the odd
# generator phi_i, products of generators are kept in increasing index order,
# and monomial is z^a times the coefficient symbols packed by KoszulMF.pack.
# A product of monomials is their sum, which never carries because 2^B
# exceeds every digit of a product of two entries.  A polynomial such as W_i
# or z_i is a tuple of (sign, monomial) entries.


def koszul_operator(elem, contract, insert):
    """Apply sum_i contract[i] d/dx_i + insert[i] x_i to a flat element.

    x_i is the odd generator of bit i; contract[i] and insert[i] are
    polynomials given as (sign, packed monomial) entries.
    """
    out = {}
    for (mono, mask), coeff in elem.items():
        for i in range(len(insert)):
            bit = 1 << i
            # d/dx_i and x_i both move x_i past the generators below it
            c = coeff * front_sign(mask, i)
            for sign, m in contract[i] if mask & bit else insert[i]:
                key = (mono + m, mask ^ bit)
                out[key] = out.get(key, 0) + sign * c
    return {key: c for key, c in out.items() if c}


def _negated(polys):
    return tuple(tuple((-sign, m) for sign, m in p) for p in polys)


def _check_every_basis_element(n, holds, failure, what):
    """Raise failure unless holds(mask, phi_mask) for each of the 2^n basis masks."""
    for mask in range(1 << n):
        if not holds(mask, {(0, mask): 1}):
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

    def _entries(self):
        """Every (sign, symbols, exponent) entry of z, the splits and W."""
        return [*(e for p in (*self.z, *self.splits) for e in p),
                *((t.sign, t.symbol(), t.exponent) for t in self.w.terms)]

    @cached_property
    def width(self):
        """Digit width B of a packed monomial: 2^B exceeds twice the largest
        digit (exponent or symbol count) of any entry, hence every digit of a
        product of two entries."""
        return (2 * max(max((*exp, *map(syms.count, syms)))
                        for _, syms, exp in self._entries())).bit_length()

    @cached_property
    def _symbol_digit(self):
        """Digit index n + k of the k-th coefficient symbol in sorted order."""
        symbols = sorted({s for _, syms, _ in self._entries() for s in syms})
        return {s: self.n + k for k, s in enumerate(symbols)}

    def pack(self, exponent, symbols=()):
        """z^exponent times the coefficient symbols as one packed monomial."""
        b = self.width
        return (sum(e << b * k for k, e in enumerate(exponent))
                + sum(1 << b * self._symbol_digit[s] for s in symbols))

    @cached_property
    def packed_z(self):
        return tuple(((1, 1 << self.width * i),) for i in range(self.n))

    @cached_property
    def packed_splits(self):
        return tuple(tuple((sign, self.pack(exp, syms)) for sign, syms, exp in p)
                     for p in self.splits)

    def delta(self, elem):
        return koszul_operator(elem, self.packed_z, self.packed_splits)

    def verify_factorization(self):
        """delta^2 = W * id on every basis element phi_S."""
        w = [(self.pack(t.exponent, t.symbol()), t.sign) for t in self.w.terms]
        _check_every_basis_element(
            self.n,
            lambda mask, basis: self.delta(self.delta(basis))
            == {(m, mask): sign for m, sign in w},
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


def intertwining_sides(mf: KoszulMF):
    """The two sides of the intertwining identity as a function of a theta
    basis element: (comparison map after the dual differential, delta after
    the comparison map), both as packed flat elements.

    The dual differential on S[theta] is sum_i(-z_i theta_i - W_i d/dtheta_i)
    (the coefficient involution composed with the theta rescaling), i.e. the
    Koszul operator with -W_i and -z_i; the comparison map sends
    theta_{i_1}..theta_{i_k} to (-1)^k d/dphi_{i_1} .. d/dphi_{i_k} applied
    to phi_1..phi_n.
    """
    n = mf.n
    contract, insert = _negated(mf.packed_splits), _negated(mf.packed_z)
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

    images = [comparison(mask) for mask in range(1 << n)]

    def map_elem(elem):
        out = {}
        for (mono, mask), coeff in elem.items():
            sign, image = images[mask]
            out[(mono, image)] = sign * coeff
        return out

    return lambda elem: (map_elem(koszul_operator(elem, contract, insert)),
                         mf.delta(map_elem(elem)))


def dualize_mf(mf: KoszulMF) -> DualizationReport:
    """Check that the standard comparison map intertwines the pulled-back dual
    differential with delta on every theta basis element, and report its
    degree r - |I|."""
    sides = intertwining_sides(mf)
    _check_every_basis_element(
        mf.n, lambda mask, basis: eq(*sides(basis)),
        IntertwineCheckFailed, "comparison map fails on theta_")
    return DualizationReport(iso_degree=mf.vt.r - mf.n, intertwines=True)
