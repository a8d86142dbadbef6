"""Validation and combinatorics of the toric input data.

The input is a partition of an index set into blocks, a degree vector, a
sublattice of Z^I and a positive weight per distinguished lattice point.
This module checks the defining axioms, enumerates the distinguished lattice
point sets, decides the three named combinatorial conditions and computes the
symmetry groups.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm
from typing import NamedTuple

from . import CertificateFailure
from .intlat import (
    FiniteAbelianGroup,
    Sublattice,
    contains,
    hnf_canonicalize,
    lattice_quotient,
    quotient_group,
    sublattice_from_congruences,
)

IntVec = tuple[int, ...]

# Most candidates m >= 0 with <q, m> = d that validate will enumerate; the
# z-manifold has 165, a 12-variable single block 1,352,078.
XI_CANDIDATE_LIMIT = 100_000


class ToricDataError(ValueError):
    """Base class for rejected toric input."""


class BlockTooSmall(ToricDataError):
    pass


class DegreeSumNotOne(ToricDataError):
    pass


class MissingGenerator(ToricDataError):
    pass


class DivisibilityFail(ToricDataError):
    pass


class IndexSetTooLarge(ToricDataError):
    pass


class UnknownMonomial(ToricDataError):
    pass


class LatticeSpec(NamedTuple):
    """Sublattice given either by generator rows or by congruences (c, mod)."""

    generators: tuple[IntVec, ...] | None = None
    congruences: tuple[tuple[IntVec, int], ...] | None = None

    def build(self, ambient_rank):
        if (self.generators is None) == (self.congruences is None):
            raise ToricDataError("specify exactly one of generators / congruences")
        if self.generators is not None:
            return hnf_canonicalize(self.generators, ambient_rank)
        return sublattice_from_congruences(ambient_rank, self.congruences)


class ToricInput(NamedTuple):
    """Raw input: blocks (0-based index tuples), degrees, sublattice, weights.

    ``weights`` is either a single positive rational (uniform) or a mapping
    from exponent tuples to positive rationals; it may be None when no fan
    computations are requested.  ``volume_orders`` is the optional pole-order
    vector v (block sums |I_j| - 1); None leaves the default to ``validate``.
    """

    blocks: tuple[IntVec, ...]
    degrees: IntVec
    lattice: LatticeSpec
    weights: object = None
    volume_orders: IntVec | None = None
    b_valuations: dict | None = None


class ValidatedToricData:
    """The input and what ``validate`` derives from it.  ``volume_orders`` is
    the resolved v: the input's, else 1 except 0 at each block's largest index.
    """

    def __init__(self, input: ToricInput, m_bar: Sublattice, d: int, q: IntVec,
                 n_sigma: tuple[Fraction, ...], xi: tuple[IntVec, ...],
                 xi0: tuple[IntVec, ...], volume_orders: IntVec):
        self.input, self.m_bar, self.d, self.q = input, m_bar, d, q
        self.n_sigma, self.xi, self.xi0, self.volume_orders = n_sigma, xi, xi0, volume_orders

    @property
    def blocks(self):
        return self.input.blocks

    @property
    def degrees(self):
        return self.input.degrees

    @property
    def n(self):
        return len(self.input.degrees)

    @property
    def r(self):
        return len(self.input.blocks)

    @cached_property
    def subsets_in_lattice(self):
        """Every nonempty K with e_K in M_bar, sorted by size then
        lexicographically: the 2^n subsets are scanned once per instance."""
        if self.n > 30:
            raise IndexSetTooLarge(f"2^{self.n} subset scan refused")
        return tuple(K for size in range(1, self.n + 1)
                     for K in combinations(range(self.n), size)
                     if contains(self.m_bar, tuple(int(i in K) for i in range(self.n))))

    def block_vector(self, j):
        return tuple(1 if i in self.blocks[j] else 0 for i in range(self.n))


def resolve_weight(weights, p):
    """The positive height of the point p under a uniform or per-point weight."""
    if weights is None:
        raise ToricDataError("no weight vector supplied")
    if isinstance(weights, dict):
        key = tuple(p)
        if key not in weights:
            raise UnknownMonomial(f"no weight for {key}")
        lam = Fraction(weights[key])
    else:
        lam = Fraction(weights)
    if lam <= 0:
        raise ToricDataError("weights must be positive")
    return lam


class ConditionVerdict(NamedTuple):
    holds: bool
    witnesses: tuple = ()


def validate(inp: ToricInput) -> ValidatedToricData:
    """Check all axioms on the input and enumerate the lattice point sets.

    Raises a subclass of ToricDataError naming the violated axiom, with a
    witness in the message.
    """
    n = len(inp.degrees)
    if n == 0:
        raise ToricDataError("the index set is empty")
    seen = sorted(i for blk in inp.blocks for i in blk)
    if seen != list(range(n)):
        raise ToricDataError("blocks do not partition the index set")
    if any(d <= 0 for d in inp.degrees):
        raise ToricDataError("degrees must be positive")
    d = lcm(*inp.degrees)
    q = tuple(d // di for di in inp.degrees)
    for j, blk in enumerate(inp.blocks):
        if len(blk) < 3:
            raise BlockTooSmall(f"block {j} has size {len(blk)} < 3")
        s = sum(q[i] for i in blk)  # d times the block's sum of 1/d_i
        if s != d:
            raise DegreeSumNotOne(f"block {j}: sum of 1/d_i is {Fraction(s, d)}, not 1")

    m_bar = inp.lattice.build(n)
    if m_bar.rank != n:
        raise MissingGenerator("sublattice is not of full rank")
    for i in range(n):
        v = tuple(inp.degrees[i] if k == i else 0 for k in range(n))
        if not contains(m_bar, v):
            raise MissingGenerator(f"d_i*e_i missing for i={i}: {v}")
    for j, blk in enumerate(inp.blocks):
        v = tuple(1 if i in blk else 0 for i in range(n))
        if not contains(m_bar, v):
            raise MissingGenerator(f"e_I_j missing for block {j}: {v}")

    for row in m_bar.basis:
        pairing = sum(qi * mi for qi, mi in zip(q, row))
        if pairing % d != 0:
            raise DivisibilityFail(f"d does not divide <q, m> for m = {row}")
    n_sigma = tuple(Fraction(qi, d) for qi in q)

    # the count is a table over the degrees 0..d, so d is bounded first
    if d > XI_CANDIDATE_LIMIT:
        raise IndexSetTooLarge(f"d = {d} exceeds the Xi candidate limit {XI_CANDIDATE_LIMIT}")
    candidates = count_xi_candidates(q, d)
    if candidates > XI_CANDIDATE_LIMIT:
        raise IndexSetTooLarge(f"{candidates} candidates m >= 0 with <q, m> = {d} "
                               f"exceed the limit {XI_CANDIDATE_LIMIT}")
    xi, xi0 = _enumerate_xi(inp.blocks, d, q, m_bar)

    volume_orders = inp.volume_orders
    if volume_orders is None:
        last = {max(blk) for blk in inp.blocks}
        volume_orders = tuple(int(i not in last) for i in range(n))
    for j, blk in enumerate(inp.blocks):
        s = sum(volume_orders[i] for i in blk)
        if s != len(blk) - 1:
            raise ToricDataError(
                f"volume orders on block {j} sum to {s}, expected {len(blk) - 1}")
    xi0set = set(xi0)
    for name, keyed in (("weight", inp.weights), ("valuation", inp.b_valuations)):
        if not isinstance(keyed, dict):
            continue
        for key in keyed:
            if tuple(key) not in xi0set:
                raise UnknownMonomial(f"{name} key {key} is not in Xi_0")

    return ValidatedToricData(
        input=inp, m_bar=m_bar, d=d, q=q, n_sigma=n_sigma,
        xi=tuple(xi), xi0=tuple(xi0), volume_orders=tuple(volume_orders),
    )


def count_xi_candidates(q, d):
    """Number of m >= 0 with <q, m> = d: the points _enumerate_xi visits."""
    ways = [1] + [0] * d  # ways[s]: vectors over the variables so far with <q, m> = s
    for qi in q:
        for s in range(qi, d + 1):
            ways[s] += ways[s - qi]
    return ways[d]


def _enumerate_xi(blocks, d, q, m_bar):
    """All m >= 0 with <q, m> = d and m in M_bar, plus the two-zeros filter.

    Depth-first over coordinates with remaining-degree pruning; the solution
    set is contained in a bounded simplex so the search always terminates.
    """
    n = len(q)
    out = []
    current = [0] * n

    def rec(i, remaining):
        if i == n:
            if remaining == 0 and contains(m_bar, tuple(current)):
                out.append(tuple(current))
            return
        limit = remaining // q[i]
        for val in range(limit + 1):
            current[i] = val
            rec(i + 1, remaining - val * q[i])
        current[i] = 0

    rec(0, d)
    out.sort()
    xi0 = [p for p in out if _two_zeros_per_block(p, blocks)]
    return out, xi0


def _two_zeros_per_block(p, blocks):
    return all(sum(1 for i in blk if p[i] == 0) >= 2 for blk in blocks)


def check_nef_partition(vt: ValidatedToricData) -> ConditionVerdict:
    """Holds iff every iota(e_I_j), 1/d_i on block j, pairs integrally with all
    of M_bar: d divides sum_{i in I_j} q_i m_i.  The witness (j, m, pairing)
    carries the pairing as a Fraction."""
    for j, blk in enumerate(vt.blocks):
        for row in vt.m_bar.basis:
            pairing = sum(vt.q[i] * row[i] for i in blk)
            if pairing % vt.d:
                return ConditionVerdict(False, ((j, row, Fraction(pairing, vt.d)),))
    return ConditionVerdict(True)


def check_embeddedness(vt: ValidatedToricData) -> ConditionVerdict:
    """Holds iff every 0/1 vector in M_bar is a union of blocks.

    All offending subsets are returned (sorted by size then lexicographically)
    so any particular counterexample of interest can be located in the output.
    """
    block_sets = [frozenset(blk) for blk in vt.blocks]
    witnesses = tuple(K for K in vt.subsets_in_lattice
                      if set(K) != set().union(*(b for b in block_sets if b <= set(K))))
    return ConditionVerdict(not witnesses, witnesses)


def check_no_bc(vt: ValidatedToricData) -> ConditionVerdict:
    """Holds iff no K has e_K in M_bar with |K| - 1 = 2 * sum_{i in K} 1/d_i,
    tested on the integers as 2 * sum_{i in K} q_i = (|K| - 1) d."""
    witnesses = tuple(K for K in vt.subsets_in_lattice
                      if 2 * sum(vt.q[i] for i in K) == (len(K) - 1) * vt.d)
    return ConditionVerdict(not witnesses, witnesses)


class GroupOrderCheckFailed(CertificateFailure):
    pass


class SymmetryGroups(NamedTuple):
    g: FiniteAbelianGroup
    gamma: FiniteAbelianGroup


def symmetry_groups(vt: ValidatedToricData) -> SymmetryGroups:
    """The covering group G and Gamma = G*/(Z/d).

    G = Z^I/M_bar (the quotient M-tilde/M agrees with it since every e_I_j
    lies in M_bar), and its dual G* has the same invariant factors.  The
    diagonal Z/d inside G* is generated by the character m -> <q, m>/d mod 1,
    so Gamma is dual to its kernel K/M_bar with K = {m : d | <q, m>}; a
    finite abelian group and its dual share invariant factors.
    """
    g = quotient_group(vt.n, vt.m_bar)
    kernel = sublattice_from_congruences(vt.n, [(vt.q, vt.d)])
    gamma = lattice_quotient(kernel, vt.m_bar)
    # the diagonal character has exact order d, so |Gamma| * d = |G*|
    if kernel.index_in_ambient() != vt.d:
        raise GroupOrderCheckFailed(f"[Z^I : K] = {kernel.index_in_ambient()}, not d = {vt.d}")
    if gamma.order * vt.d != g.order:
        raise GroupOrderCheckFailed(f"|Gamma| * d = {gamma.order * vt.d}, not |G| = {g.order}")
    return SymmetryGroups(g=g, gamma=gamma)
