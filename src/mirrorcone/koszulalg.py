"""Graded exterior-polynomial computations: the quotient algebra presented by
the block-top-wedge ideal, which gives the graded dimensions of the Koszul
cohomology of W_0 (the two are isomorphic class by class), the sign action,
and the enumeration of deformation and curvature classes.

Degrees live in the cover grading datum Z (+) Z^I / <(2(1-|I_j|), e_I_j)>;
a degree class is canonicalized by shifting each block's m-part to have
minimum zero.  Every degree class meets only finitely many monomials, so all
dimensions are exact integer ranks, with a z-degree cutoff controlling only
which classes get reported.  A class piece splits into slices, and each
slice shape is ranked once.  The Koszul complex itself is built only by the
test oracles, which compare its cohomology with these dimensions.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import cache, reduce
from itertools import combinations, product, starmap
from typing import NamedTuple

from . import CertificateFailure
from .intlat import matrix_rank
from .toricdata import ValidatedToricData


class CutoffTooSmall(ValueError):
    pass


class ClassificationViolation(CertificateFailure):
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


def _compositions(lo, hi, total):
    """Integer vectors t with lo[j] <= t[j] <= hi[j] and sum(t) = total."""
    r = len(lo)
    if r == 1:
        return iter(((total,),) if lo[0] <= total <= hi[0] else ())
    # the least and the most that coordinates j.. can add up to
    lo_rest, hi_rest = [0] * (r + 1), [0] * (r + 1)
    for j in range(r - 1, -1, -1):
        lo_rest[j] = lo_rest[j + 1] + lo[j]
        hi_rest[j] = hi_rest[j + 1] + hi[j]
    t = [0] * r

    def rec(j, rem):
        if j == r:
            yield tuple(t)
            return
        for v in range(max(lo[j], rem - hi_rest[j + 1]),
                       min(hi[j], rem - lo_rest[j + 1]) + 1):
            t[j] = v
            yield from rec(j + 1, rem - v)

    return rec(0, total) if lo_rest[0] <= total <= hi_rest[0] else iter(())


def _block_shifts(caps, total):
    """Block shifts t with t_j <= caps[j] and sum(t) = total.

    Each t_j is at least caps[j] - slack, since the other blocks can take at
    most sum(caps) - caps[j] of the total.
    """
    slack = sum(caps) - total
    return _compositions([c - slack for c in caps], caps, total)


def _block_index(blocks, n):
    """Per index i, the number of the block that contains it."""
    block_of = [0] * n
    for j, blk in enumerate(blocks):
        for i in blk:
            block_of[i] = j
    return block_of


def degree_classes(blocks, n, cutoff):
    """Classes met by monomials z^a theta^K or z^a h with |a| <= cutoff."""
    classes = set()
    wedge_max = sum(len(blk) - 1 for blk in blocks)
    exponents = (a for total in range(cutoff + 1)
                 for a in _compositions((0,) * n, (total,) * n, total))
    for a in exponents:
        asum = sum(a)
        neg_a = tuple(-x for x in a)
        for w in range(wedge_max + 1):
            classes.add(canonical_class(blocks, 2 * asum + w, neg_a))
        for mask in range(1 << n):
            m = tuple(x + (mask >> i & 1) for i, x in enumerate(neg_a))
            classes.add(canonical_class(blocks, 2 * asum - mask.bit_count(), m))
    return sorted(classes)


def _times(left, right):
    """Two table entries (m, {j: dim}): m parts joined, j-polynomials multiplied."""
    (m1, p1), (m2, p2) = left, right
    poly = {}
    for (j1, d1), (j2, d2) in product(p1.items(), p2.items()):
        poly[j1 + j2] = poly.get(j1 + j2, 0) + d1 * d2
    return m1 + m2, poly


def _product(tables):
    """The entries of the tables' product in nested order, the last table fastest."""
    return reduce(lambda combos, table: starmap(_times, product(combos, table)), tables)


def classes_by_j(tables):
    """{j: (m parts, dims)} over the tables' product, each list in ``_product`` order."""
    groups = defaultdict(lambda: ([], []))
    for m, poly in _product(tables):
        for j, d in poly.items():
            parts, dims = groups[j]
            parts.append(m)
            dims.append(d)
    return groups


class GradedDims(NamedTuple):
    """Graded dimensions of a tensor product of per-block algebras, zeros omitted:
    ``factors[b]`` lists (m_b, {j_b: dim}) by m_b, m_b at the indices ``blocks[b]``.
    One block, or the direct multi-block computation, is one factor.  From
    ``tensor_j_dims`` (r > 1), a class outside ``degree_classes`` is a partial sum."""

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
        return [sorted((tuple(m[k] for k in order), poly) for m, poly in _product(tables))]

    @property
    def dims(self):
        """Sorted tuple of ((jhat, mhat), dim)."""
        groups = classes_by_j(self.tables())
        return tuple(((j, m), d) for j in sorted(groups) for m, d in zip(*groups[j]))


# --- exterior algebra on the odd generators u_i ---------------------------
# An element is a map {mask: int}: bit i of the int mask is the generator
# u_i, and each monomial is the product of its generators in increasing
# index order.


def bits(mask):
    """Indices of the set bits of mask, in increasing order."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def front_sign(mask, i):
    """Sign of moving generator i to the front of the ordered product over mask."""
    return -1 if (mask & ((1 << i) - 1)).bit_count() & 1 else 1


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


def contract_block(elem, blk):
    """Contraction with e_I_j (odd derivation sending each u_i, i in block, to 1)."""
    out = {}
    for s, c in elem.items():
        for i in blk:
            if s >> i & 1:
                key = s ^ (1 << i)
                out[key] = out.get(key, 0) + c * front_sign(s, i)
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


def _j_piece_slices(blocks, n, cls):
    """Slices (a, wedge-distribution) of the quotient-algebra degree class."""
    jhat, mhat = cls
    block_of = _block_index(blocks, n)
    # t_j <= caps[j] keeps every exponent of block j non-negative
    caps = [min(-mhat[i] for i in blk) for blk in blocks]
    wedge_caps = [len(blk) - 1 for blk in blocks]
    no_wedge = [0] * len(blocks)
    slices = []
    # sum(t) determines the total wedge degree: w = jhat + 2|mhat| + 2 sum(t)
    for w in range(sum(wedge_caps) + 1):
        twice = w - jhat - 2 * sum(mhat)
        if twice % 2:
            continue
        dists = list(_compositions(no_wedge, wedge_caps, w))
        for t in _block_shifts(caps, twice // 2):
            a = tuple(-mhat[i] - t[block_of[i]] for i in range(n))
            slices.extend((a, dist) for dist in dists)
    return slices


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

    Each is (j, drop, degree, g_K): drop is the mask of I_j - K, and g_K is
    the contraction of u_K, of wedge degree |K| - 1.  K = empty adds
    nothing: z^{e_I_j} is z_i times the generator of K = {i}, whose g is 1.
    """
    gens = []
    for j, blk in enumerate(blocks):
        full = sum(1 << i for i in blk)
        for K in range(1, full + 1):
            if K & full == K:
                g = contract_block({K: 1}, blk)
                gens.append((j, full ^ K, K.bit_count() - 1, g))
    return gens


def _zeros(a):
    """The mask of the indices i with a[i] == 0."""
    return sum(1 << i for i, x in enumerate(a) if x == 0)


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
            prod = wedge(h, g)
            if not prod.keys() <= index.keys():
                raise CertificateFailure("ideal vector escapes the class piece")
            rows.append([prod.get(s, 0) for s in index])
    return len(basis), index, rows, matrix_rank(rows)


def j_algebra_dim_for_class(blocks, n, cls):
    slices = (_j_slice(blocks, dist, _zeros(a)) for a, dist in _j_piece_slices(blocks, n, cls))
    return sum(size - rank for size, _, _, rank in slices)


def multiblock_j_dims(blocks, n, z_cutoff) -> GradedDims:
    table = {}
    for j, m in degree_classes(blocks, n, z_cutoff):
        if d := j_algebra_dim_for_class(blocks, n, (j, m)):
            table.setdefault(m, {})[j] = d
    return GradedDims((tuple(range(n)),), (sorted(table.items()),))


def koszul_cohomology_dims(n, z_cutoff) -> GradedDims:
    """Graded dimensions of the Koszul cohomology of W_0 for a single block of
    size n, read off the quotient algebra it is isomorphic to class by class."""
    if z_cutoff < n:
        raise CutoffTooSmall(f"cutoff {z_cutoff} < block size {n}")
    return multiblock_j_dims((tuple(range(n)),), n, z_cutoff)


def element_in_ideal(blocks, n, a, elem):
    """Exact membership of z^a * elem (u-expansion of one wedge degree) in the ideal.

    The ideal is block-diagonal by slice, so elem is a member iff each of its
    wedge-distribution components is a member of its slice.
    """
    degree = next(iter(elem), 0).bit_count()
    cls = canonical_class(blocks, 2 * sum(a) + degree, tuple(-x for x in a))
    slices = set(_j_piece_slices(blocks, n, cls))
    block_masks = [sum(1 << i for i in blk) for blk in blocks]
    parts = {}
    for s, c in elem.items():
        dist = tuple((s & bm).bit_count() for bm in block_masks)
        if (a, dist) not in slices:
            raise ClassificationViolation("element does not lie in its class piece")
        parts.setdefault(dist, {})[s] = c
    zeros = _zeros(a)
    for dist, part in parts.items():
        _, index, rows, rank = _j_slice(blocks, dist, zeros)
        if matrix_rank(rows + [[part.get(s, 0) for s in index]]) != rank:
            return False
    return True


# --- tensor products ------------------------------------------------------


def tensor_j_dims(vt: ValidatedToricData, z_cutoff) -> GradedDims:
    """The per-block graded dimensions as the factors of the total datum.

    Per-block tables are computed with a margin above the requested cutoff so
    that every class reachable at total z-degree <= z_cutoff has all its
    tensor decompositions covered (a class reachable on the theta side at
    degree c can need per-block quotient-algebra representatives of degree up
    to c plus the block size); the margin is validated against the direct
    multi-block computation in the tests.  Every nonzero entry of the product
    is a row: for r > 1 a class outside the cutoff's classes is a partial sum.
    """
    if z_cutoff < max(len(b) for b in vt.blocks):
        raise CutoffTooSmall("cutoff below the largest block size")
    tables = {nb: koszul_cohomology_dims(nb, z_cutoff + nb + 1).factors[0]
              for nb in {len(blk) for blk in vt.blocks}}
    return GradedDims(tuple(tuple(sorted(blk)) for blk in vt.blocks),
                      tuple(tables[len(blk)] for blk in vt.blocks))


# --- sign action and deformation classes ----------------------------------


def sign_action(a_vec, h_size, v):
    """(-1)^(1 + <v + e_I, a> + |h|) for the element z^a h."""
    dagger = 1 + sum((vi + 1) * ai for vi, ai in zip(v, a_vec)) + h_size
    return -1 if dagger % 2 else 1


def involution_sign(vt: ValidatedToricData, b, h_size):
    """Sign of the involution on r^a z^b h with minimal a, so that k(a) = b.

    (-1)^(<n_sigma + v - e_I, b> + 1 + <v + e_I, b> + |h|) for the resolved
    volume orders v: the coefficient's sign times the sign action.
    """
    v = vt.volume_orders
    pairing = sum((ns + vi - 1) * x for ns, vi, x in zip(vt.n_sigma, v, b) if x)
    if pairing.denominator != 1:
        raise CertificateFailure(f"<n_sigma + v - e_I, {b}> is not integral")
    return sign_action(b, h_size, v) * (-1) ** (int(pairing) % 2)


def deformation_sign(vt: ValidatedToricData, b, h_size):
    """Involution sign of a degree-2 class r^a z^b h, checked against the rule
    that it is (-1)^(|h|/2)."""
    sign = involution_sign(vt, b, h_size)
    if sign != (-1) ** (h_size // 2):
        raise CertificateFailure("sign disagrees with |h|/2 rule")
    return sign


class DeformationClassification(NamedTuple):
    surviving: tuple            # exponents in Xi_0, as tuples
    killed_in_ideal: tuple      # exponents in Xi minus Xi_0
    sign_killed: tuple          # (pair of H-basis labels, nonzero_in_algebra)

    def counts(self):
        return {
            "surviving": len(self.surviving),
            "killed_in_ideal": len(self.killed_in_ideal),
            "sign_killed": len(self.sign_killed),
        }


def enumerate_deformation_classes(vt: ValidatedToricData) -> DeformationClassification:
    """Classify the degree-2 invariant classes r^a z^b h per the proof scheme.

    Degree 2 forces 2 = 2<n_sigma, b> + |h|, so either |h| = 0 and b in Xi,
    or |h| = 2 and b = 0.  The |h| = 2 candidates are killed by the sign rule
    (invariance needs 4 | |h|); the b outside Xi_0 die in the quotient
    algebra; the survivors must be exactly the first-order classes indexed by
    Xi_0, each nonzero.
    """
    blocks = vt.blocks
    n = vt.n
    xi0 = set(vt.xi0)
    surviving = []
    killed = []
    for b in vt.xi:
        pairing = sum(ns * x for ns, x in zip(vt.n_sigma, b))
        if pairing != 1:
            raise CertificateFailure(f"<n_sigma, {b}> = {pairing}, not 1")
        sign = deformation_sign(vt, b, 0)
        if sign != 1:
            raise ClassificationViolation(f"|h|=0 class at {b} is not invariant")
        in_ideal = element_in_ideal(blocks, n, tuple(b), {0: 1})
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
    # |h| = 2 candidates: wedge pairs of the fixed basis of H
    labelled = [((j, pos), vec) for j, blk in enumerate(blocks)
                for pos, vec in enumerate(h_basis(blk))]
    zero_a = (0,) * n
    # the sign of r^0 z^0 h depends only on |h| = 2, not on the pair
    if deformation_sign(vt, zero_a, 2) != -1:
        raise ClassificationViolation("|h|=2 class not killed by the sign rule")
    sign_killed = []
    for (label1, vec1), (label2, vec2) in combinations(labelled, 2):
        pair = wedge(vec1, vec2)
        nonzero = bool(pair) and not element_in_ideal(blocks, n, zero_a, pair)
        sign_killed.append(((label1, label2), nonzero))
    return DeformationClassification(
        surviving=tuple(sorted(surviving)),
        killed_in_ideal=tuple(sorted(killed)),
        sign_killed=tuple(sign_killed),
    )


def enumerate_curvature_candidates(vt: ValidatedToricData):
    """All K with e_K in M_bar and sum_{i in K} (1 - 2/d_i) = 1.

    The defining arithmetic is the same as the no-bc condition, so the output
    must coincide with its witness list.
    """
    return tuple(K for K in vt.subsets_in_lattice
                 if sum(1 - Fraction(2, vt.degrees[i]) for i in K) == 1)
