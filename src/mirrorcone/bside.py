"""The superpotential, its sign involution, and the Koszul matrix factorization.

Coefficients are formal units: a block term carries the unit -1, a
distinguished-monomial term carries a named symbol with a valuation.  Every
identity checked here (weighted homogeneity, the sign flip, delta^2 = W) is
coefficient-agnostic, so no series arithmetic is needed; polynomial elements
are maps from (z-exponent, odd-generator subset) to integer combinations of
coefficient symbols.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import CertificateFailure
from .grading import GradingData, deg_equal, default_volume_vector
from .toricdata import ToricDataError, UnknownMonomial, ValidatedToricData
from .toricdata import validate_volume_orders
from .intlat import contains


class FactorizationCheckFailed(CertificateFailure, AssertionError):
    pass


class IntertwineCheckFailed(CertificateFailure, AssertionError):
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


def build_superpotential(vt: ValidatedToricData, b_valuations=None) -> Superpotential:
    """-sum_j z^{e_I_j} + sum_p b_p z^p with val(b_p) defaulting to lambda_p."""
    if b_valuations is None:
        b_valuations = vt.input.b_valuations
    terms = []
    for j in range(vt.r):
        terms.append(Term(sign=-1, exponent=vt.block_vector(j),
                          valuation=None, is_block=True))
    xi0set = set(vt.xi0)
    if b_valuations is not None:
        for key in b_valuations:
            if tuple(key) not in xi0set:
                raise UnknownMonomial(f"valuation key {key} is not in Xi_0")
    for p in vt.xi0:
        if b_valuations is not None and tuple(p) in b_valuations:
            val = Fraction(b_valuations[tuple(p)])
        elif vt.input.weights is not None:
            val = vt.weight_of(p)
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


def epsilon_involution(vt: ValidatedToricData, v=None):
    """Per-variable signs of the involution z_i -> (-1)^(1+v_i) z_i."""
    if v is None:
        v = default_volume_vector(vt)
    validate_volume_orders(vt.blocks, v)
    return tuple((-1) ** (1 + vi) for vi in v), tuple(v)


def term_flip_sign(vt: ValidatedToricData, term: Term, v):
    """Sign the involution applies to one term (variables and coefficient)."""
    var_sign = 1
    for i, e in enumerate(term.exponent):
        if ((1 + v[i]) * e) % 2:
            var_sign = -var_sign
    if term.is_block:
        return var_sign
    # the coefficient symbol transforms by (-1)^<n_sigma + v - e_I, p>
    pairing = sum((ns + vi - 1) * e
                  for ns, vi, e in zip(vt.n_sigma, v, term.exponent))
    if pairing.denominator != 1:
        raise CertificateFailure(f"<n_sigma + v - e_I, {term.exponent}> is not integral")
    return var_sign * (-1) ** (int(pairing) % 2)


def check_wflips(w: Superpotential, v=None) -> bool:
    """True iff the involution sends every term of W to minus itself."""
    _, v = epsilon_involution(w.vt, v)
    return all(term_flip_sign(w.vt, t, v) == -1 for t in w.terms)


# ---------------------------------------------------------------------------
# Koszul matrix factorization.  Elements of the free module S[phi] are maps
# {(zexp, frozenset): coeff} with coeff = {symbol-tuple: int}; symbol tuples
# are sorted tuples of coefficient symbols (empty = numeric unit).


def _coeff_mul(c1, c2):
    out = {}
    for s1, v1 in c1.items():
        for s2, v2 in c2.items():
            key = tuple(sorted(s1 + s2))
            out[key] = out.get(key, 0) + v1 * v2
            if out[key] == 0:
                del out[key]
    return out


def _elem_add(dst, key, coeff):
    cur = dst.get(key)
    if cur is None:
        dst[key] = dict(coeff)
        if not dst[key]:
            del dst[key]
        return
    for s, v in coeff.items():
        cur[s] = cur.get(s, 0) + v
        if cur[s] == 0:
            del cur[s]
    if not cur:
        del dst[key]


def _scale(coeff, k):
    return {s: k * v for s, v in coeff.items()}


def _wedge_sign(subset, i):
    """Sign of moving the generator i to the front of the sorted product."""
    return (-1) ** sum(1 for k in subset if k < i)


@dataclass
class KoszulMF:
    """The rank-2^|I| Koszul factorization delta = sum z_i d/dphi_i + W_i phi_i."""

    vt: ValidatedToricData
    w: Superpotential
    splits: tuple  # per variable i: list of (coeff, exponent-with-z_i-removed)

    @property
    def n(self):
        return self.vt.n

    def delta(self, elem):
        out = {}
        n = self.n
        for (zexp, subset), coeff in elem.items():
            for i in sorted(subset):
                # z_i * d/dphi_i
                sign = _wedge_sign(subset, i)
                new_exp = tuple(e + (1 if k == i else 0) for k, e in enumerate(zexp))
                _elem_add(out, (new_exp, subset - {i}), _scale(coeff, sign))
            for i in range(n):
                if i in subset:
                    continue
                sign = _wedge_sign(subset, i)
                for wcoeff, wexp in self.splits[i]:
                    new_exp = tuple(e + we for e, we in zip(zexp, wexp))
                    _elem_add(out, (new_exp, subset | {i}),
                              _scale(_coeff_mul(coeff, wcoeff), sign))
        return out

    def w_element(self):
        out = {}
        for t in self.w.terms:
            _elem_add(out, (t.exponent, frozenset()), {t.symbol(): t.sign})
        return out

    def verify_factorization(self):
        """delta^2 = W * id on every basis element phi_S."""
        n = self.n
        w_elem = self.w_element()
        for size in range(n + 1):
            for subset in combinations(range(n), size):
                subset = frozenset(subset)
                basis = {((0,) * n, subset): {(): 1}}
                sq = self.delta(self.delta(basis))
                expected = {}
                for (zexp, s), coeff in w_elem.items():
                    _elem_add(expected, (zexp, subset), coeff)
                if sq != expected:
                    raise FactorizationCheckFailed(
                        f"delta^2 != W*id on basis element {tuple(sorted(subset))}")
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
            for wcoeff, wexp in self.splits[i]:
                deg = phi_deg
                for k, e in enumerate(wexp):
                    deg = deg + gd.deg_z(gd.cover, k).scale(e)
                for syms in wcoeff:
                    sym_deg = gd.cover.zero()
                    for sym in syms:
                        _, exp = sym
                        sym_deg = sym_deg + gd.deg_r_monomial(exp, 1)
                    if not deg_equal(deg + sym_deg, one):
                        return False
        return True


def build_koszul_mf(w: Superpotential) -> KoszulMF:
    """Split W = sum z_i W_i by the smallest-index variable of each monomial."""
    vt = w.vt
    splits = [[] for _ in range(vt.n)]
    for t in w.terms:
        i = next(k for k, e in enumerate(t.exponent) if e > 0)
        reduced = tuple(e - (1 if k == i else 0) for k, e in enumerate(t.exponent))
        splits[i].append(({t.symbol(): t.sign}, reduced))
    mf = KoszulMF(vt=vt, w=w, splits=tuple(tuple(s) for s in splits))
    return mf


@dataclass(frozen=True)
class DualizationReport:
    iso_degree: int
    intertwines: bool


def dualize_mf(mf: KoszulMF, v=None) -> DualizationReport:
    """Check that the standard comparison map intertwines the pulled-back dual
    differential with delta, and report its degree r - |I|.

    The dual differential on S[theta] is sum_i(-z_i theta_i - W_i d/dtheta_i)
    (the coefficient involution composed with the theta rescaling); the
    comparison map sends theta_{i_1}..theta_{i_k} to
    (-1)^k d/dphi_{i_1} .. d/dphi_{i_k} applied to phi_1..phi_n.
    """
    vt = mf.vt
    n = vt.n
    if v is None:
        v = default_volume_vector(vt)

    def dual_delta(elem):
        out = {}
        for (zexp, subset), coeff in elem.items():
            for i in range(n):
                if i not in subset:
                    # -z_i theta_i
                    sign = -_wedge_sign(subset, i)
                    new_exp = tuple(e + (1 if k == i else 0)
                                    for k, e in enumerate(zexp))
                    _elem_add(out, (new_exp, subset | {i}), _scale(coeff, sign))
            for i in sorted(subset):
                # -W_i d/dtheta_i
                sign = -_wedge_sign(subset, i)
                for wcoeff, wexp in mf.splits[i]:
                    new_exp = tuple(e + we for e, we in zip(zexp, wexp))
                    _elem_add(out, (new_exp, subset - {i}),
                              _scale(_coeff_mul(coeff, wcoeff), sign))
        return out

    full = frozenset(range(n))

    def comparison(subset):
        """Image of theta_S: sign and the complementary phi subset."""
        # d/dphi_{i_1} .. d/dphi_{i_k} (phi_1 .. phi_n) with i_1 < ... < i_k
        # and the rightmost contraction acting first, then the (-1)^k factor.
        sign = 1
        remaining = sorted(full)
        for i in sorted(subset, reverse=True):
            pos = remaining.index(i)
            sign *= (-1) ** pos
            remaining.remove(i)
        sign *= (-1) ** len(subset)
        return sign, frozenset(remaining)

    def map_elem(elem):
        out = {}
        for (zexp, subset), coeff in elem.items():
            sign, image = comparison(subset)
            _elem_add(out, (zexp, image), _scale(coeff, sign))
        return out

    for size in range(n + 1):
        for subset in combinations(range(n), size):
            subset = frozenset(subset)
            basis = {((0,) * n, subset): {(): 1}}
            lhs = map_elem(dual_delta(basis))
            rhs = mf.delta(map_elem(basis))
            if lhs != rhs:
                raise IntertwineCheckFailed(
                    f"comparison map fails on theta_{tuple(sorted(subset))}")
    return DualizationReport(iso_degree=vt.r - n, intertwines=True)
