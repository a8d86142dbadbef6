"""Graded exterior-polynomial computations: the quotient algebra presented by
the block-top-wedge ideal, which gives the graded dimensions of the Koszul
cohomology of W_0 (the two are isomorphic class by class), and the
enumeration of deformation and curvature classes, signed by bside's sign
action.  Only the algebra section loads this module.

Degrees live in the cover grading datum Z (+) Z^I / <(2(1-|I_j|), e_I_j)>;
a degree class is canonicalized by shifting each block's m-part to have
minimum zero.  A class piece splits into slices z^a h, one per exponent a
and wedge distribution, and a slice's rank depends on a only through its
zero set; in one block, only through its zero count.  The slice lemma: z^a h
lies in the ideal as soon as some block of a has at most one zero entry,
since z^(e_I_b - e_i) is an ideal generator (g_{i} = +-1).  The exponents of
a class (j, m) are a_i = s_b - m_i with s_b >= max_b m, and only s_b = max_b m
leaves two zeros in block b, so each class has one exponent that can carry
its dimension.  The classification asks J one question, whether a monomial
z^b lies in the ideal.  The Koszul complex itself is built only by the test
oracles, which compare its cohomology with these dimensions.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import cache, reduce
from itertools import combinations, product
from math import comb, prod
from typing import NamedTuple

from . import CertificateFailure
from .bside import ClassificationViolation, bits, front_sign, involution_sign, sign_action
from .intlat import matrix_rank
from .toricdata import IndexSetTooLarge, ValidatedToricData, check_no_bc


# Most exponents a single block's table may read; the octic in P^7 at cutoff
# 8 has 289,311, nine indices at cutoff 9 1,915,705.
ALGEBRA_EXPONENT_LIMIT = 1_000_000


class CutoffTooSmall(ValueError):
    pass


class SliceLemmaViolation(CertificateFailure):
    pass


# --- degree classes -------------------------------------------------------


def canonical_class(blocks, j, m):
    """Canonical representative of (j, m) modulo the block relators."""
    m = list(m)
    for blk in blocks:
        t = min(m[i] for i in blk)
        if t:
            for i in blk:
                m[i] -= t
            j -= 2 * (1 - len(blk)) * t
    return (j, tuple(m))


def _compositions(total, parts):
    """Compositions of total into ``parts`` positive parts, by stars and bars:
    each choice of parts - 1 cut points among 1 .. total - 1."""
    if not (total and parts):
        return iter([()] if total == parts == 0 else [])
    return (tuple(b - a for a, b in zip((0, *cuts), (*cuts, total)))
            for cuts in combinations(range(1, total), parts - 1))


def degree_classes(blocks, n, cutoff):
    """Classes met by monomials z^a theta^K or z^a h with |a| <= cutoff."""
    classes = set()
    wedge_max = sum(len(blk) - 1 for blk in blocks)
    # a weak composition of total is a positive one of total + n, each part less one
    exponents = (tuple(x - 1 for x in t) for total in range(cutoff + 1)
                 for t in _compositions(total + n, n))
    for a in exponents:
        asum = sum(a)
        neg_a = tuple(-x for x in a)
        for w in range(wedge_max + 1):
            classes.add(canonical_class(blocks, 2 * asum + w, neg_a))
        for mask in range(1 << n):
            m = tuple(x + (mask >> i & 1) for i, x in enumerate(neg_a))
            classes.add(canonical_class(blocks, 2 * asum - mask.bit_count(), m))
    return sorted(classes)


def _times_table(entries, table):
    """entries x table in nested order, the table fastest: (m + m_t, p * q)."""
    for (m, p), (m_t, q) in product(entries, table):
        poly = {}
        for (j1, d1), (j2, d2) in product(p.items(), q.items()):
            poly[j1 + j2] = poly.get(j1 + j2, 0) + d1 * d2
        yield m + m_t, poly


def runs_by_j(tables):
    """The product of (m text, j-polynomial) tables as {j: [(prefix, rows)]}, in
    nested order, the last table fastest.  A prefix joins the m texts of all but
    the last table ("" if none), its polynomial the product of theirs; its rows
    at j, m + str(dim) over the last table, are built once per polynomial."""
    *front, last = tables
    suffixes, runs = {}, defaultdict(list)
    for prefix, poly in reduce(_times_table, front) if front else [("", {0: 1})]:
        key = frozenset(poly.items())
        if key not in suffixes:
            suffixes[key] = suffix = defaultdict(list)
            # with no front table the prefix polynomial is 1: the last table as it is
            for m, row_poly in _times_table([("", poly)], last) if front else last:
                for j, d in row_poly.items():
                    suffix[j].append(m + str(d))
        for j, rows in suffixes[key].items():
            runs[j].append((prefix, rows))
    return runs


class GradedDims(NamedTuple):
    """Graded dimensions of a tensor product of per-block algebras, zeros omitted:
    ``factors[b]`` lists (m_b, {j_b: dim}) by m_b, m_b at the indices ``blocks[b]``,
    one entry per class of the block, read at the class's one exponent with two
    zeros (the slice lemma).  ``report.write_json`` writes the product's rows by
    ``runs_by_j`` on the m texts.  From ``tensor_j_dims`` (r > 1), a class outside
    ``degree_classes`` is a partial sum."""

    blocks: tuple
    factors: tuple

    def tables(self):
        """Tables whose m parts concatenate to m in index order: the factors by
        first index if that puts every index in order, else their product, sorted."""
        # disjoint blocks differ at their first index, so no table is compared
        blocks, tables = zip(*sorted(zip(self.blocks, self.factors)))
        where = sum(blocks, ())
        if list(where) == sorted(where):
            return tables
        order = sorted(range(len(where)), key=where.__getitem__)
        return [sorted((tuple(m[k] for k in order), p) for m, p in reduce(_times_table, tables))]


# --- exterior algebra on the odd generators u_i ---------------------------
# An element is a map {mask: int}: bit i of the int mask is the generator
# u_i, and each monomial is the product of its generators in increasing
# index order (the mask helpers ``bits`` and ``front_sign`` live in bside).


def wedge(e1, e2):
    out = {}
    for s1, c1 in e1.items():
        gens = bits(s1)
        for s2, c2 in e2.items():
            if s1 & s2:
                continue
            # each generator of s1 moves past the generators of s2 below it
            c = c1 * c2
            for i in gens:
                c *= front_sign(s2, i)
            out[s1 | s2] = out.get(s1 | s2, 0) + c
    return {s: c for s, c in out.items() if c}


def h_basis(blk):
    """Basis of the kernel of contraction: u_i - u_last for i in blk[:-1]."""
    last = max(blk)
    return [{1 << i: 1, 1 << last: -1} for i in sorted(blk) if i != last]


def wedge_basis_for_block(blk, degree):
    """Wedge products of h-basis vectors of the block, expanded in u-monomials."""
    basis = h_basis(blk)
    out = []
    for combo in combinations(range(len(basis)), degree):
        elem = {0: 1}
        for k in combo:
            elem = wedge(elem, basis[k])
        out.append(elem)
    return out


# --- quotient algebra side ------------------------------------------------


# cached, like _ideal_generators: pure in hashable arguments, results only read
@cache
def _expand_slice_monomials(blocks, dist):
    """u-monomial expansions of the basis prod_j w_{S_j} of one wedge distribution."""
    elems = [{0: 1}]
    for blk, w in zip(blocks, dist):
        elems = [wedge(e, b) for e in elems for b in wedge_basis_for_block(blk, w)]
    return elems


@cache
def _ideal_generators(blocks):
    """The generators z^{e_I_j - e_K} g_K of the ideal, K a nonzero submask of block j.

    Each is (j, drop, degree, g_K): drop is the mask of I_j - K, and g_K, of
    wedge degree |K| - 1, is the contraction of u_K by e_I_j: the sum of
    u_{K - i} over i in K, each signed by moving u_i to the front.  K = empty
    adds nothing: z^{e_I_j} is z_i times the generator of K = {i}, whose g is 1.
    """
    gens = []
    for j, blk in enumerate(blocks):
        full = sum(1 << i for i in blk)
        for K in range(1, full + 1):
            if K & full == K:
                g = {K ^ (1 << i): front_sign(K, i) for i in bits(K)}
                gens.append((j, full ^ K, K.bit_count() - 1, g))
    return gens


@cache
def _j_slice(blocks, dist, zeros):
    """Size, u-monomial columns, ideal rows and their rank of a slice (a, dist).

    The ideal rows are the products z^a h g of every generator with every
    basis element h whose product lands in the slice.  A product keeps a and
    the wedge distribution, so a class piece is block-diagonal by slice, and
    a generator applies iff no index it drops has a[i] == 0: the slice
    depends on a only through its zero set.  Cached like the expansions.
    """
    basis = _expand_slice_monomials(blocks, dist)
    index = dict.fromkeys(s for elem in basis for s in elem)
    rows = []
    for j, drop, degree, g in _ideal_generators(blocks):
        w = dist[j] - degree
        if not 0 <= w < len(blocks[j]) or zeros & drop:
            continue
        for h in _expand_slice_monomials(blocks, dist[:j] + (w,) + dist[j + 1:]):
            vec = wedge(h, g)
            if not vec.keys() <= index.keys():
                raise ClassificationViolation("ideal vector escapes the class piece")
            rows.append([vec.get(s, 0) for s in index])
    return len(basis), index, rows, matrix_rank(rows)


def least_z_degree(n, size, zeros, w):
    """Least |a'| over the monomials z^a' h' and z^a' theta^K of the class of
    z^a h in one block of size n: a is the class's exponent with ``zeros`` >= 2
    zero entries, |a| = size and |h| = w.  The wedge side's least is z^a h; the
    theta side's, if w + 2 < n, is z^(a - e_I + e_K) theta^K with |K| = w + 2
    and K holding a's zeros."""
    return size + w + 2 - n if zeros <= w + 2 < n else size


def count_exponents(n, z_cutoff):
    """Most exponents koszul_cohomology_dims enumerates: over the C(n, c) zero
    sets of each size c >= 2, the compositions of |a| = n - c .. z_cutoff + n - 2
    into n - c positive parts, sum_|a| C(|a| - 1, n - c - 1) = C(z_cutoff + n - 2, n - c)."""
    return sum(comb(n, c) * comb(z_cutoff + n - 2, n - c) for c in range(2, n + 1))


def koszul_cohomology_dims(n, z_cutoff) -> GradedDims:
    """Graded dimensions of the Koszul cohomology of W_0 for a single block of
    size n, read off the quotient algebra it is isomorphic to class by class:
    the nonzero classes of ``degree_classes``, i.e. of least z-degree at most
    the cutoff.  Permuting the block's indices fixes the ideal and H =
    ker(contraction), and maps a slice to a slice, so a slice's rank depends
    only on its zero count c: each wedge degree is ranked once at the zero set
    {0, .., c - 1}, (n + 1) n ranks, and a surviving slice with under two
    zeros falsifies the slice lemma.  By it each class lives at its one
    exponent a with two zeros: the pair (a, w) is the class
    (2|a| + w + 2(1 - n) max a, max a - a), and |a| <= cutoff + n - 2; the
    exponents of every zero set are enumerated."""
    if z_cutoff < n:
        raise CutoffTooSmall(f"cutoff {z_cutoff} < block size {n}")
    if (count := count_exponents(n, z_cutoff)) > ALGEBRA_EXPONENT_LIMIT:
        raise IndexSetTooLarge(f"{count} exponents of a block of size {n} at cutoff "
                               f"{z_cutoff} exceed the limit {ALGEBRA_EXPONENT_LIMIT}")
    blocks, table = (tuple(range(n)),), {}
    for c in range(n + 1):
        zeros = (1 << c) - 1
        dims = [size - rank for size, _, _, rank in
                (_j_slice(blocks, (w,), zeros) for w in range(n))]
        if c < 2 and any(dims):
            raise SliceLemmaViolation(f"slice with zero set {zeros:#b} survives the ideal")
        if c < 2 or not any(dims):
            continue
        for zero_set in combinations(range(n), c):
            free = [i for i in range(n) if i not in zero_set]
            for size in range(n - c, z_cutoff + n - 1):
                kept = [(2 * size + w, d) for w, d in enumerate(dims)
                        if d and least_z_degree(n, size, c, w) <= z_cutoff]
                for parts in _compositions(size, n - c) if kept else ():
                    top = max(parts, default=0)
                    m = [top] * n
                    for i, x in zip(free, parts):
                        m[i] = top - x
                    table[tuple(m)] = {j + 2 * (1 - n) * top: d for j, d in kept}
    return GradedDims(blocks, (sorted(table.items()),))


def monomial_in_ideal(blocks, a):
    """Exact membership of the monomial z^a in the ideal: the unit row ranked
    against the ideal rows of a's wedge-degree-0 slice, whose one column is
    the unit.  z^a lies in a class piece iff a >= 0."""
    if min(a) < 0:
        raise ClassificationViolation("element does not lie in its class piece")
    zeros = sum(1 << i for i, x in enumerate(a) if x == 0)
    _, _, rows, rank = _j_slice(blocks, (0,) * len(blocks), zeros)
    return matrix_rank(rows + [[1]]) == rank


# --- tensor products ------------------------------------------------------


# Most rows the product of the factor tables may expand to, bounded by the
# product over blocks of the sum of the terms of their entries' j-polynomials:
# the z-manifold reads 274,625 at cutoff 6 (146,812 rows), 704,969 at 10 and
# 3,307,949 at 20; e33+k4 918,287 at 20; four cubic blocks 4,879,681 at 3.
GRADED_ROWS_LIMIT = 1_000_000


def tensor_j_dims(vt: ValidatedToricData, z_cutoff) -> GradedDims:
    """The per-block graded dimensions as the factors of the total datum.

    Per-block tables are computed with a margin above the requested cutoff so
    that every class reachable at total z-degree <= z_cutoff has all its
    tensor decompositions covered (a class reachable on the theta side at
    degree c can need per-block quotient-algebra representatives of degree up
    to c plus the block size); the margin is validated against the direct
    multi-block computation in the tests.  Every nonzero entry of the product
    is a row: for r > 1 a class outside the cutoff's classes is a partial sum.
    A product whose row bound exceeds GRADED_ROWS_LIMIT is refused before the
    writer expands it.
    """
    if z_cutoff < max(len(b) for b in vt.blocks):
        raise CutoffTooSmall("cutoff below the largest block size")
    tables = {nb: koszul_cohomology_dims(nb, z_cutoff + nb + 1).factors[0]
              for nb in {len(blk) for blk in vt.blocks}}
    factors = tuple(tables[len(blk)] for blk in vt.blocks)
    if (bound := prod(sum(len(poly) for _, poly in t) for t in factors)) > GRADED_ROWS_LIMIT:
        raise IndexSetTooLarge(f"up to {bound} graded rows of {len(factors)} blocks at cutoff "
                               f"{z_cutoff} exceed the limit {GRADED_ROWS_LIMIT}")
    return GradedDims(tuple(tuple(sorted(blk)) for blk in vt.blocks), factors)


# --- deformation classes --------------------------------------------------


def deformation_sign(vt: ValidatedToricData, b, h_size):
    """Involution sign of a degree-2 class r^a z^b h, checked against the rule
    that it is (-1)^(|h|/2)."""
    sign = involution_sign(vt, b, h_size)
    if sign != (-1) ** (h_size // 2):
        raise ClassificationViolation("sign disagrees with |h|/2 rule")
    return sign


class DeformationClassification(NamedTuple):
    """The degree-2 candidates by fate; the report prints the sign-killed count."""

    surviving: tuple            # exponents in Xi_0, as tuples
    killed_in_ideal: tuple      # exponents in Xi minus Xi_0
    sign_killed: tuple          # pairs of H-basis labels (block, position)

    def counts(self):
        return {name: len(getattr(self, name)) for name in self._fields}


def enumerate_deformation_classes(vt: ValidatedToricData) -> DeformationClassification:
    """Classify the degree-2 invariant classes r^a z^b h per the proof scheme.

    Degree 2 forces 2 = 2<n_sigma, b> + |h|, so either |h| = 0 and b in Xi,
    or |h| = 2 and b = 0.  The |h| = 2 candidates are killed by the sign rule
    (invariance needs 4 | |h|); the b outside Xi_0 die in the quotient
    algebra; the survivors must be exactly the first-order classes indexed by
    Xi_0, each nonzero.
    """
    blocks, n, xi0 = vt.blocks, vt.n, set(vt.xi0)
    surviving, killed = [], []
    for b in vt.xi:
        pairing = sum(qi * x for qi, x in zip(vt.q, b))  # d <n_sigma, b>
        if pairing != vt.d:
            raise ClassificationViolation(
                f"<n_sigma, {b}> = {Fraction(pairing, vt.d)}, not 1")
        sign = deformation_sign(vt, b, 0)
        if sign != 1:
            raise ClassificationViolation(f"|h|=0 class at {b} is not invariant")
        in_ideal = monomial_in_ideal(blocks, tuple(b))
        if b in xi0:
            if in_ideal:
                raise ClassificationViolation(
                    f"first-order class z^{b} vanishes in the quotient algebra")
            surviving.append(tuple(b))
        else:
            if not in_ideal:
                raise ClassificationViolation(
                    f"class z^{b} with b outside Xi_0 survives the quotient")
            killed.append(tuple(b))
    # |h| = 2 candidates: pairs of the fixed basis of H, labelled (block,
    # position); the sign of r^0 z^0 h depends only on |h| = 2, not on the pair
    if deformation_sign(vt, (0,) * n, 2) != -1:
        raise ClassificationViolation("|h|=2 class not killed by the sign rule")
    labels = [(j, pos) for j, blk in enumerate(blocks) for pos in range(len(blk) - 1)]
    return DeformationClassification(tuple(sorted(surviving)), tuple(sorted(killed)),
                                     tuple(combinations(labels, 2)))


def enumerate_curvature_candidates(vt: ValidatedToricData):
    """All K with e_K in M_bar and sum_{i in K} (1 - 2/d_i) = 1: the no-bc
    equation |K| - 1 = 2 sum_{i in K} 1/d_i rearranged, so the candidates are
    the no-bc witnesses."""
    return check_no_bc(vt).witnesses
