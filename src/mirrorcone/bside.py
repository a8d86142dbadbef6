"""The superpotential, its sign involution, and the Koszul matrix factorization.

Coefficients are formal units: a block term carries the unit -1, a
distinguished-monomial term carries a named symbol with a valuation.  Every
identity checked here (weighted homogeneity, the sign flip, delta^2 = W, the
dual) is coefficient-agnostic, so no series arithmetic is needed.  Neither
delta^2 = W nor the dual is checked by applying an operator to basis
elements: delta^2 = W reduces to sum_i z_i W_i = W on the split of W plus
the Clifford sign identities of the generator flips (O(n^2) masks), and the
intertwining of the dual to one sign identity per generator (O(n) masks).
The scan over all 2^n basis elements is the tests' oracle.  The mask helpers
and the sign action live here, so a run without the algebra section never
loads ``koszulalg``, which imports them for the deformation classes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import CertificateFailure
from .grading import GradingData
from .toricdata import ValidatedToricData
from .intlat import contains


class ClassificationViolation(CertificateFailure):
    pass


class FactorizationCheckFailed(CertificateFailure):
    pass


class IntertwineCheckFailed(CertificateFailure):
    pass


class HomogeneityCheckFailed(CertificateFailure):
    pass


class Term(NamedTuple):
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


class Superpotential(NamedTuple):
    terms: tuple[Term, ...]
    vt: ValidatedToricData


def build_superpotential(vt: ValidatedToricData) -> Superpotential:
    """-sum_j z^{e_I_j} + sum_p b_p z^p with val(b_p) defaulting to lambda_p."""
    terms = [Term(sign=-1, exponent=vt.block_vector(j), valuation=None, is_block=True)
             for j in range(vt.r)]
    terms += [Term(sign=1, exponent=p, valuation=val, is_block=False)
              for p, val in zip(vt.xi0, vt.valuations)]
    terms.sort(key=lambda t: (not t.is_block, t.exponent))
    w = Superpotential(terms=tuple(terms), vt=vt)
    _check_homogeneous(w)
    return w


def _check_homogeneous(w: Superpotential):
    """Every term has degree d and lies in M_bar: ``validate`` guarantees
    both, so a failure is a falsified identity."""
    vt = w.vt
    for t in w.terms:
        deg = sum(q * e for q, e in zip(vt.q, t.exponent))
        if deg != vt.d:
            raise HomogeneityCheckFailed(f"term {t.exponent} is not weighted homogeneous")
        if not contains(vt.m_bar, t.exponent):
            raise HomogeneityCheckFailed(f"term exponent {t.exponent} is not in M_bar")


def bits(mask):
    """Indices of the set bits of mask, in increasing order."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def front_sign(mask, i):
    """Sign of moving generator i to the front of the ordered product over mask."""
    return -1 if (mask & ((1 << i) - 1)).bit_count() & 1 else 1


def sign_action(a_vec, h_size, v):
    """(-1)^(1 + <v + e_I, a> + |h|) for the element z^a h."""
    dagger = 1 + sum((vi + 1) * ai for vi, ai in zip(v, a_vec)) + h_size
    return -1 if dagger % 2 else 1


def involution_sign(vt: ValidatedToricData, b, h_size):
    """Sign of the involution on r^a z^b h with minimal a, so that k(a) = b.

    (-1)^(<n_sigma + v - e_I, b> + 1 + <v + e_I, b> + |h|) for the resolved
    volume orders v: the coefficient's sign times the sign action.  The
    pairing is read on the integers as sum_i (q_i + d (v_i - 1)) b_i, which
    d must divide; its quotient's parity is the coefficient's sign.
    """
    v, d = vt.volume_orders, vt.d
    pairing = sum((qi + d * (vi - 1)) * x for qi, vi, x in zip(vt.q, v, b) if x)
    if pairing % d:
        raise ClassificationViolation(f"<n_sigma + v - e_I, {b}> is not integral")
    return sign_action(b, h_size, v) * (-1) ** (pairing // d % 2)


def term_flip_sign(vt: ValidatedToricData, term: Term):
    """Sign the involution z_i -> (-1)^(1+v_i) z_i gives a term z^p and its
    coefficient: minus ``involution_sign`` of z^p, whose sign action has a
    leading -1."""
    return -involution_sign(vt, term.exponent, 0)


def check_wflips(w: Superpotential) -> bool:
    """True iff the involution sends every term of W to minus itself."""
    return all(term_flip_sign(w.vt, t) == -1 for t in w.terms)


# ---------------------------------------------------------------------------
# Koszul matrix factorization on S[phi], bit i of an int mask the odd
# generator phi_i, products of generators in increasing index order.  A split
# W_i is a tuple of (sign, symbols, reduced exponent) entries.


def _collect(entries):
    """{(exponent, symbols): coefficient} of (sign, exponent, symbols) entries."""
    out = {}
    for sign, exp, syms in entries:
        out[exp, syms] = out.get((exp, syms), 0) + sign
    return out


def _representative_masks(i, j):
    """Every mask over bits i and j, one bit below i and one strictly between
    i and j (each where there is room): all the parities front_sign sees."""
    free = sorted({i, j, *([i - 1] if i else []), *([i + 1] if j > i + 1 else [])})
    return [sum(1 << b for k, b in enumerate(free) if sel >> k & 1)
            for sel in range(1 << len(free))]


class KoszulMF:
    """The rank-2^|I| Koszul factorization delta = sum z_i d/dphi_i + W_i phi_i."""

    def __init__(self, vt: ValidatedToricData, w: Superpotential, splits: tuple):
        # splits: per variable i, W_i as (sign, symbols, exponent) entries
        self.vt, self.w, self.splits = vt, w, splits

    @property
    def n(self):
        return self.vt.n

    def verify_factorization(self):
        """Certify delta^2 = W * id without applying delta.

        Write delta = sum_i (z_i iota_i + W_i eps_i), where iota_i removes and
        eps_i adds phi_i, both flipping bit i of phi_S with the sign
        fs(S, i) = front_sign(S, i).  If the flips anticommute for i != j and
        each squares to the identity, these are the Clifford relations
        {iota_i, iota_j} = {eps_i, eps_j} = 0, {iota_i, eps_j} = delta_ij, so
        the cross terms of delta^2 cancel in pairs and
        delta^2 = (sum_i z_i W_i) * id.  Hence two checks, each raising
        FactorizationCheckFailed with its witness:

        (a) sum_i z_i W_i = W as polynomials, on the readable
            (exponent, symbols) entries: O(|W|) work;
        (b) for every pair i <= j the sign identities
            fs(S, i) fs(S ^ 2^i, j) = -fs(S, j) fs(S ^ 2^j, i)  (i != j),
            fs(S, i) = fs(S ^ 2^i, i)                            (i == j).
            fs(S, i) sees S only through the parity of S below i, so both
            sides see S only through bits i and j, the parity of S below i
            and its parity strictly between i and j.  The masks of
            _representative_masks realise every combination, so O(n^2)
            checks stand for all 2^n masks.
        """
        product = _collect((sign, exp[:i] + (exp[i] + 1,) + exp[i + 1:], syms)
                           for i, split in enumerate(self.splits)
                           for sign, syms, exp in split)
        w = _collect((t.sign, t.exponent, t.symbol()) for t in self.w.terms)
        for key in sorted(product.keys() | w.keys()):
            if product.get(key, 0) != w.get(key, 0):
                raise FactorizationCheckFailed(
                    f"sum_i z_i W_i != W at z^{key[0]} {key[1]}: coefficient "
                    f"{product.get(key, 0)}, not {w.get(key, 0)}")
        for j in range(self.n):
            for i in range(j + 1):
                for s in _representative_masks(i, j):
                    if i == j:
                        holds = front_sign(s, i) == front_sign(s ^ (1 << i), i)
                    else:
                        holds = (front_sign(s, i) * front_sign(s ^ (1 << i), j)
                                 == -front_sign(s, j) * front_sign(s ^ (1 << j), i))
                    if not holds:
                        raise FactorizationCheckFailed(
                            f"flips of phi_{i} and phi_{j} break the Clifford "
                            f"relations on phi_{tuple(bits(s))}")
        return True

    def delta_degree_check(self, gd: GradingData) -> bool:
        """Every nonzero piece of delta is homogeneous of odd degree (1, 0).

        The z_i d/dphi_i pieces have degree (2,-e_i) + (-1,e_i) = (1,0)
        exactly; each split entry of W_i phi_i is checked against the same
        class (coefficient symbols graded by their pushed-forward degree).
        """
        n = self.n
        one = (1,) + (0,) * n
        for i in range(n):
            phi_deg = (1, *(-1 if k == i else 0 for k in range(n)))
            for _, syms, wexp in self.splits[i]:
                parts = [phi_deg, *(gd.deg_r_monomial(exp) for _, exp in syms)]
                parts += [[e * x for x in gd.deg_z(k)] for k, e in enumerate(wexp) if e]
                if not gd.cover.equal(map(sum, zip(*parts)), one):
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


class DualizationReport(NamedTuple):
    iso_degree: int
    intertwines: bool


def comparison_sign(mask):
    """Sign s(T) of the comparison map theta_T -> s(T) phi_{T^c}.

    The map sends theta_{i_1}..theta_{i_k} to (-1)^k d/dphi_{i_1} ..
    d/dphi_{i_k} applied to phi_1..phi_n, the rightmost contraction first.
    The contraction of phi_i meets every phi_k, k < i, still in place, so
    s(T) = prod_{i in T} (-1)^(i + 1).
    """
    return -1 if sum(i + 1 for i in bits(mask)) & 1 else 1


def dual_signs(n):
    """Per generator i: the signs (a_i, b_i) of z_i theta_i and W_i d/dtheta_i
    in the dual differential sum_i (-z_i theta_i - W_i d/dtheta_i) on
    S[theta], the coefficient involution composed with the theta rescaling."""
    return [(-1, -1)] * n


def dualize_mf(mf: KoszulMF) -> DualizationReport:
    """Certify that the comparison map C intertwines the dual differential D
    with delta, C D = delta C, and report the isomorphism's degree r - |I|.

    With fs = front_sign and T^c the complement of T in I,
      C D theta_T = sum_{i not in T} a_i z_i fs(T, i) s(T + i) phi_{T^c - i}
                  + sum_{i in T} b_i W_i fs(T, i) s(T - i) phi_{T^c + i},
      delta C theta_T = s(T) (sum_{i not in T} z_i fs(T^c, i) phi_{T^c - i}
                             + sum_{i in T} W_i fs(T^c, i) phi_{T^c + i}).
    The terms match generator by generator, so C D = delta C iff for every
    i and every T not containing i
      a_i fs(T, i) s(T + i) = s(T) fs(T^c, i)              (z_i terms at T),
      b_i fs(T + i, i) s(T) = s(T + i) fs(T^c - i, i)      (W_i terms at T + i).
    s(T + i) = (-1)^(i + 1) s(T) and fs(., i) sees only the parity below i,
    so both identities see T only through its parity below i, which T = {}
    and T = {i - 1} realise: O(n) checks, each raising
    IntertwineCheckFailed.
    """
    n = mf.n
    full = (1 << n) - 1
    for i, (a, b) in enumerate(dual_signs(n)):
        bit = 1 << i
        for t in (0, bit >> 1) if i else (0,):
            s, s_up = comparison_sign(t), comparison_sign(t | bit)
            if (a * front_sign(t, i) * s_up != s * front_sign(full ^ t, i)
                    or b * front_sign(t | bit, i) * s
                    != s_up * front_sign(full ^ t ^ bit, i)):
                raise IntertwineCheckFailed(
                    f"comparison map fails at generator {i} on theta_{tuple(bits(t))}")
    return DualizationReport(iso_degree=mf.vt.r - n, intertwines=True)
