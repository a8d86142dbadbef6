"""Finitely presented grading groups, their elements and morphisms.

A grading datum is Z (+) Z^k modulo a lattice of relator rows; elements are
compared by reducing their difference against the relator lattice.  The four
data built from validated toric input are called ``amb`` (the ambient datum
Z (+) M), ``cover`` (the branched-cover datum with relators
(2(1-|I_j|), e_I_j)), ``delta`` (relators (2<n_sigma,m>, -m) for m in M_bar)
and ``mf`` (Z (+) Z/(2,-d)).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from . import CertificateFailure
from .intlat import contains, hnf_canonicalize, lattice_quotient
from .toricdata import ValidatedToricData


class GradingError(ValueError):
    pass


class IntegralityCheckFailed(CertificateFailure):
    pass


class GradingDatum:
    def __init__(self, name: str, rank: int, relations: tuple[tuple[int, ...], ...]):
        for rel in relations:
            if len(rel) != 1 + rank:
                raise GradingError("relator length must be 1 + rank")
            if rel[0] % 2 != 0:
                raise GradingError(
                    f"datum {name}: relator {rel} has odd first coordinate, "
                    "sign map would be ill-defined")
        self.name, self.rank, self.relations = name, rank, relations

    def __eq__(self, other):
        if type(other) is not GradingDatum:
            return NotImplemented
        return (self.name, self.rank, self.relations) == (other.name, other.rank, other.relations)

    def __hash__(self):
        return hash((self.name, self.rank, self.relations))

    @cached_property
    def relation_lattice(self):
        return hnf_canonicalize(self.relations, 1 + self.rank)

    def deg(self, j, m=()):
        m = tuple(m)
        if len(m) != self.rank:
            raise GradingError("m-part has wrong length")
        return GDeg(self, j, m)

    def zero(self):
        return self.deg(0, (0,) * self.rank)


class GDeg(NamedTuple):
    datum: GradingDatum
    j: int
    m: tuple[int, ...]

    def __add__(self, other):
        _same_datum(self, other)
        return GDeg(self.datum, self.j + other.j,
                    tuple(a + b for a, b in zip(self.m, other.m)))

    def __sub__(self, other):
        _same_datum(self, other)
        return GDeg(self.datum, self.j - other.j,
                    tuple(a - b for a, b in zip(self.m, other.m)))

    def scale(self, k):
        return GDeg(self.datum, k * self.j, tuple(k * a for a in self.m))


def _same_datum(a, b):
    if a.datum.name != b.datum.name or a.datum.rank != b.datum.rank:
        raise GradingError("degree arithmetic across different grading data")


def deg_equal(a: GDeg, b: GDeg) -> bool:
    """True iff a - b lies in the relation lattice of the common datum."""
    _same_datum(a, b)
    diff = a - b
    return contains(a.datum.relation_lattice, (diff.j,) + diff.m)


class GradingMorphism(NamedTuple):
    """(j, m) -> (j + <w, m>, T m); w may be rational but must evaluate integrally."""

    name: str
    source: GradingDatum
    target: GradingDatum
    w: tuple[int | Fraction, ...]  # integral except p's
    t_rows: tuple[tuple[int, ...], ...]  # target.rank rows of length source.rank

    def apply(self, deg: GDeg) -> GDeg:
        if deg.datum.name != self.source.name:
            raise GradingError(f"morphism {self.name} applied to wrong datum")
        shift = sum(wi * mi for wi, mi in zip(self.w, deg.m))
        if isinstance(shift, Fraction) and shift.denominator != 1:
            raise GradingError(
                f"morphism {self.name}: non-integral shift on m = {deg.m}")
        new_m = tuple(sum(row[k] * deg.m[k] for k in range(self.source.rank))
                      for row in self.t_rows)
        return GDeg(self.target, deg.j + int(shift), new_m)

    def is_well_defined(self):
        """Every source relator must map into the target relation lattice."""
        for rel in self.source.relations:
            image = self.apply(GDeg(self.source, rel[0], tuple(rel[1:])))
            if not deg_equal(image, self.target.zero()):
                return False
        return True


class GradingData(NamedTuple):
    """The grading data and named morphisms attached to one toric input."""

    amb: GradingDatum
    cover: GradingDatum
    delta: GradingDatum
    mf: GradingDatum
    z: GradingDatum
    p: GradingMorphism
    q: GradingMorphism
    r: GradingMorphism
    s: GradingMorphism
    t: GradingMorphism
    u: GradingMorphism
    v: GradingMorphism

    def morphisms(self):
        return {m.name: m for m in (self.p, self.q, self.r, self.s, self.t, self.u, self.v)}

    def deg_z(self, i):
        """The cover degree (2, -e_i) of z_i; r sends it to its Delta degree (0, e_i)."""
        return self.cover.deg(2, tuple(-1 if k == i else 0 for k in range(self.cover.rank)))

    def deg_r_monomial(self, k_a):
        """Degree in the cover datum of one coefficient symbol r^a, |a| = 1.

        ``k_a`` is the image in M_bar of the exponent; the ambient degree
        (0, k(a)) pushes forward to (2|a| - 2|k(a)|, k(a)) = (2 - 2|k(a)|, k(a)).
        """
        return self.cover.deg(2 - 2 * sum(k_a), tuple(k_a))


def build_grading_data(vt: ValidatedToricData) -> GradingData:
    """The five data and seven morphisms of vt, each morphism checked well
    defined.  The delta relators pair q with M_bar's basis on the integers:
    d must divide <q, m> (IntegralityCheckFailed), and 2<q, m>/d = 2<n_sigma, m>
    leads the relator.  Every w is integral except p's, 2(n_sigma - 1) from
    (q, d)."""
    n = vt.n

    amb = GradingDatum("G_amb", n, tuple(
        (0,) + vt.block_vector(j) for j in range(vt.r)))
    cover = GradingDatum("G_cover", n, tuple(
        (2 * (1 - len(vt.blocks[j])),) + vt.block_vector(j) for j in range(vt.r)))
    delta_rels = []
    for row in vt.m_bar.basis:
        pairing = sum(qi * x for qi, x in zip(vt.q, row))  # d <n_sigma, row>
        if pairing % vt.d:
            raise IntegralityCheckFailed(f"<n_sigma, {row}> is not integral")
        delta_rels.append((2 * (pairing // vt.d),) + tuple(-x for x in row))
    delta = GradingDatum("G_Delta", n, tuple(delta_rels))
    mf = GradingDatum("G_MF", 1, ((2, -vt.d),))
    z = GradingDatum("Z", 0, ())

    ident = tuple(tuple(1 if i == k else 0 for k in range(n)) for i in range(n))
    neg_ident = tuple(tuple(-1 if i == k else 0 for k in range(n)) for i in range(n))
    zero_w = (0,) * n

    p = GradingMorphism("p", amb, cover,
                        tuple(Fraction(2 * (qi - vt.d), vt.d) for qi in vt.q), ident)
    q = GradingMorphism("q", amb, z, zero_w, ())
    r = GradingMorphism("r", cover, delta, (2,) * n, neg_ident)
    s = GradingMorphism("s", z, delta, (), ((),) * n)
    t = GradingMorphism("t", delta, mf, zero_w, (tuple(vt.q),))
    u = GradingMorphism("u", z, mf, (), ((),))
    v = GradingMorphism("v", cover, z, tuple(2 * x for x in vt.volume_orders), ())

    data = GradingData(amb=amb, cover=cover, delta=delta, mf=mf, z=z,
                       p=p, q=q, r=r, s=s, t=t, u=u, v=v)
    for morph in data.morphisms().values():
        if not morph.is_well_defined():
            raise GradingError(f"morphism {morph.name} does not respect relators")
    return data


def check_commutative_square(vt: ValidatedToricData, gd: GradingData) -> bool:
    """s(q(k,m)) ~ r(p(k,m)) in G_Delta over a spanning set of the ambient datum."""
    samples = [gd.amb.deg(k, (0,) * vt.n) for k in (0, 1, 2)]
    for row in vt.m_bar.basis:
        samples.append(gd.amb.deg(0, row))
        samples.append(gd.amb.deg(1, row))
    for j in range(vt.r):
        samples.append(gd.amb.deg(0, vt.block_vector(j)))
    for g in samples:
        left = gd.s.apply(gd.q.apply(g))
        right = gd.r.apply(gd.p.apply(g))
        if not deg_equal(left, right):
            return False
    return True


def p_injective_mod_z(vt: ValidatedToricData, gd: GradingData) -> bool:
    """The map induced by p on (amb datum)/Z has trivial kernel.

    The quotients by Z are M_bar/E and Z^I/E with E the block span, and the
    m-part of p is the identity, so the kernel is (M_bar intersect E)/E;
    triviality amounts to M_bar intersect E = E, i.e. E in M_bar: every
    e_{I_j} lies in M_bar.
    """
    return all(contains(vt.m_bar, vt.block_vector(j)) for j in range(vt.r))


def coker_H(vt: ValidatedToricData, gd: GradingData):
    """Cokernel of (amb/Z) -> ker(cover/Z -> delta/Z), as a finite group.

    The quotients by Z are read off the relator presentations: amb/Z has
    underlying lattice M_bar modulo the block span E, cover/Z is Z^I/E, and
    delta/Z is Z^I modulo the m-parts of the delta relators.  The kernel of
    the right-hand map and the image of the left-hand map are compared as
    preimage lattices in Z^I.
    """
    block_rows = [tuple(rel[1:]) for rel in gd.cover.relations]
    delta_m_parts = [tuple(rel[1:]) for rel in gd.delta.relations]
    # preimage in Z^I of ker(Z^I/E -> Z^I/<delta m-parts>)
    kernel_preimage = hnf_canonicalize(delta_m_parts + block_rows, vt.n)
    image_preimage = hnf_canonicalize(list(vt.m_bar.basis) + block_rows, vt.n)
    return lattice_quotient(kernel_preimage, image_preimage)
