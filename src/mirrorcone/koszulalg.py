"""Graded exterior-polynomial computations: Koszul cohomology, the quotient
algebra presented by the block-top-wedge ideal, the sign action, and the
enumeration of deformation and curvature classes.

Degrees live in the cover grading datum Z (+) Z^I / <(2(1-|I_j|), e_I_j)>;
a degree class is canonicalized by shifting each block's m-part to have
minimum zero.  Every degree class meets only finitely many monomials, so all
dimensions are computed per class by exact integer rank computations, with a
z-degree cutoff controlling only which classes get reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import combinations

from . import CertificateFailure
from .intlat import matrix_rank
from .toricdata import ValidatedToricData, subsets_in_lattice


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


# --- Koszul complex side --------------------------------------------------
# A monomial z^a theta^K is a pair (mask, a): bit i of the int mask is theta_i.


def _koszul_piece(blocks, n, cls):
    """All monomials z^a theta^K of the given degree class, as (mask, a) pairs."""
    jhat, mhat = cls
    msum = sum(mhat)
    block_of = _block_index(blocks, n)
    out = []
    for mask in range(1 << n):
        twice = mask.bit_count() - 2 * msum - jhat
        if twice % 2:
            continue
        base = [(mask >> i & 1) - mhat[i] for i in range(n)]
        # t_j <= caps[j] keeps every exponent of block j non-negative
        caps = [min(base[i] for i in blk) for blk in blocks]
        for t in _block_shifts(caps, twice // 2):
            out.append((mask, tuple(b - t[block_of[i]] for i, b in enumerate(base))))
    return out


def _koszul_differential(blocks, mono):
    """Image of the monomial (mask, a) under contraction with dW_0, W_0 = -sum z^{e_I_j}.

    Each theta_k in mask gives the key mask ^ (1 << k), so no two terms meet.
    """
    mask, a = mono
    out = {}
    for blk in blocks:
        for k in blk:
            if mask >> k & 1:
                new_a = list(a)
                for i in blk:
                    new_a[i] += 1
                new_a[k] -= 1
                # dW_0/dz_k carries the minus sign
                out[(mask ^ (1 << k), tuple(new_a))] = -front_sign(mask, k)
    return out


def _koszul_dim_table(blocks, n):
    """dim of ker/im as a function of a canonical class, each piece and rank built once.

    The differential maps the class (j, m) to (j + 1, m), so the rank into a
    class is the rank out of the class below it.
    """
    @cache
    def piece(cls):
        return _koszul_piece(blocks, n, cls)

    @cache
    def rank_out(j, m):
        target = {mono: col for col, mono in enumerate(piece((j + 1, m)))}
        rows = []
        for mono in piece((j, m)):
            row = [0] * len(target)
            for key, coeff in _koszul_differential(blocks, mono).items():
                row[target[key]] = coeff
            rows.append(row)
        return matrix_rank(rows)

    def dim(cls):
        j, m = cls
        size = len(piece(cls))
        return size and size - rank_out(j, m) - rank_out(j - 1, m)

    return dim


def koszul_cohomology_dim_for_class(blocks, n, cls):
    """dim of ker/im of the Koszul differential at one canonical degree class."""
    return _koszul_dim_table(blocks, n)(cls)


@dataclass(frozen=True)
class GradedDims:
    """Finitely many degree classes with their dimensions (zeros omitted)."""

    dims: tuple  # sorted tuple of ((jhat, mhat), dim)

    def as_dict(self):
        return dict(self.dims)

    def to_json(self):
        return [{"deg": {"j": c[0], "m": list(c[1])}, "dim": d}
                for c, d in self.dims]


def _single_block(n, cutoff):
    """The one block of size n, once the cutoff reaches it."""
    if cutoff < n:
        raise CutoffTooSmall(f"cutoff {cutoff} < block size {n}")
    return (tuple(range(n)),)


def _graded_dims(dim_of, blocks, n, z_cutoff) -> GradedDims:
    dims = ((cls, dim_of(cls)) for cls in degree_classes(blocks, n, z_cutoff))
    return GradedDims(tuple((cls, d) for cls, d in dims if d))


def koszul_cohomology_dims(n, z_cutoff) -> GradedDims:
    """Graded dimensions of the Koszul cohomology for a single block of size n."""
    return multiblock_koszul_dims(_single_block(n, z_cutoff), n, z_cutoff)


def multiblock_koszul_dims(blocks, n, z_cutoff) -> GradedDims:
    return _graded_dims(_koszul_dim_table(blocks, n), blocks, n, z_cutoff)


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

    Each is (j, drop, degree, g_K): drop lists the indices of I_j - K, and g_K
    is the contraction of u_K, of wedge degree |K| - 1.  K = empty adds
    nothing: z^{e_I_j} is z_i times the generator of K = {i}, whose g is 1.
    """
    gens = []
    for j, blk in enumerate(blocks):
        full = sum(1 << i for i in blk)
        for K in range(1, full + 1):
            if K & full == K:
                g = contract_block({K: 1}, blk)
                gens.append((j, bits(full ^ K), K.bit_count() - 1, g))
    return gens


def _row(index, a, elem):
    """Coordinates of z^a * elem in the class piece, or None if it escapes."""
    row = [0] * len(index)
    for s, c in elem.items():
        if (a, s) not in index:
            return None
        row[index[(a, s)]] = c
    return row


def _quotient_class(blocks, n, cls):
    """Dimension, (a, u-monomial) coordinate index and ideal rows of a class piece.

    The ideal rows are the products of every generator with every basis
    element of the piece whose product lands in the class.
    """
    slices = _j_piece_slices(blocks, n, cls)
    index = {}
    piece_dim = 0
    for a, dist in slices:
        for elem in _expand_slice_monomials(blocks, dist):
            piece_dim += 1
            for s in elem:
                index.setdefault((a, s), len(index))
    gens = _ideal_generators(blocks)
    rows = []
    for a, dist in slices:
        for j, drop, degree, g in gens:
            w = dist[j] - degree
            if not 0 <= w < len(blocks[j]) or any(a[i] == 0 for i in drop):
                continue
            for h in _expand_slice_monomials(blocks, dist[:j] + (w,) + dist[j + 1:]):
                row = _row(index, a, wedge(h, g))
                if row is None:
                    raise CertificateFailure("ideal vector escapes the class piece")
                rows.append(row)
    return piece_dim, index, rows


def j_algebra_dim_for_class(blocks, n, cls):
    piece_dim, _, rows = _quotient_class(blocks, n, cls)
    return piece_dim - matrix_rank(rows)


def j_algebra_dims(n, z_cutoff) -> GradedDims:
    """Graded dimensions of the quotient algebra for a single block of size n."""
    return multiblock_j_dims(_single_block(n, z_cutoff), n, z_cutoff)


def multiblock_j_dims(blocks, n, z_cutoff) -> GradedDims:
    return _graded_dims(partial(j_algebra_dim_for_class, blocks, n), blocks, n, z_cutoff)


def element_in_ideal(blocks, n, a, elem):
    """Exact membership of z^a * elem (u-expansion of one wedge degree) in the ideal."""
    degree = next(iter(elem), 0).bit_count()
    cls = canonical_class(blocks, 2 * sum(a) + degree, tuple(-x for x in a))
    _, index, rows = _quotient_class(blocks, n, cls)
    target = _row(index, a, elem)
    if target is None:
        raise ClassificationViolation("element does not lie in its class piece")
    return matrix_rank(rows + [target]) == matrix_rank(rows)


# --- tensor products ------------------------------------------------------


def tensor_j_dims(vt: ValidatedToricData, z_cutoff) -> GradedDims:
    """Convolution of the per-block graded dimensions in the total datum.

    Per-block dictionaries are computed with a margin above the requested
    cutoff so that every class reachable at total z-degree <= z_cutoff has all
    its tensor decompositions covered (a class reachable on the theta side at
    degree c can need per-block quotient-algebra representatives of degree up
    to c plus the block size); the margin is validated against the direct
    multi-block computation in the tests.
    """
    if z_cutoff < max(len(b) for b in vt.blocks):
        raise CutoffTooSmall("cutoff below the largest block size")
    tables = {nb: j_algebra_dims(nb, z_cutoff + nb + 1).as_dict()
              for nb in {len(blk) for blk in vt.blocks}}
    total = {(0, (0,) * vt.n): 1}
    for blk in vt.blocks:
        positions = sorted(blk)
        nxt = {}
        for (j1, m1), d1 in total.items():
            for (j2, m2loc), d2 in tables[len(blk)].items():
                m = list(m1)
                for i, x in zip(positions, m2loc):
                    m[i] += x
                key = (j1 + j2, tuple(m))
                nxt[key] = nxt.get(key, 0) + d1 * d2
        total = nxt
    out = tuple(sorted((cls, d) for cls, d in total.items() if d))
    return GradedDims(out)


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
    pairing = sum((ns + vi - 1) * x for ns, vi, x in zip(vt.n_sigma, v, b))
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


@dataclass(frozen=True)
class DeformationClassification:
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
    return tuple(K for K in subsets_in_lattice(vt)
                 if sum(1 - Fraction(2, vt.degrees[i]) for i in K) == 1)
