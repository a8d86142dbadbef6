"""Independent brute-force oracles used by the test suite.

These deliberately avoid the code paths they check: lattice membership via
subgroup closure in a finite quotient, point enumeration by box scan with the
congruences applied directly, subdivisions by scanning all candidate
supporting hyperplanes, volumes by a pulling triangulation over a facet scan
of their own, simplex membership by a rational kernel, MPCS over every
subset of every cell, the Koszul factorization on readable tuple keys, the
convolution of graded-dims tables on (j, m) tuple keys, the quotient algebra
and Koszul cohomology ranked over whole degree classes at once, one block's
slice dimensions by their closed form, and the
degree conditions on Fractions straight from n_sigma = (1/d_i)_i, and
h^{k-2,1} of a Greene-Plesser hypersurface by Batyrev's formula on the
simplex conv(d_i e_i).  Nothing here imports mirrorcone.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb, gcd, lcm


def subgroup_closure_mod(generators, modulus, n):
    """All elements of the subgroup of (Z/modulus)^n generated by the rows."""
    seen = {(0,) * n}
    frontier = [(0,) * n]
    gens = [tuple(x % modulus for x in g) for g in generators]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple((a + b) % modulus for a, b in zip(cur, g))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def lattice_index_by_cosets(generators, modulus, n):
    """Index of the generated lattice in Z^n, assuming modulus*Z^n lies inside."""
    sub = subgroup_closure_mod(generators, modulus, n)
    return modulus ** n // len(sub)


def membership_by_cosets(generators, v, modulus, n):
    """v in the lattice iff its residue lies in the finite image subgroup."""
    sub = subgroup_closure_mod(generators, modulus, n)
    return tuple(x % modulus for x in v) in sub


def box_scan_xi(degrees, congruences):
    """All m >= 0 with sum q_i m_i = d and the congruences satisfied."""
    n = len(degrees)
    d = 1
    for x in degrees:
        d = d * x // _gcd(d, x)
    q = [d // x for x in degrees]
    out = []
    for m in product(range(d + 1), repeat=n):
        if sum(qi * mi for qi, mi in zip(q, m)) != d:
            continue
        if all(sum(c * x for c, x in zip(cvec, m)) % mod == 0
               for cvec, mod in congruences):
            out.append(m)
    return sorted(out)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def _affinely_independent(points):
    base = points[0]
    dirs = [[Fraction(x - y) for x, y in zip(p, base)] for p in points[1:]]
    return _rank(dirs) == len(points) - 1


def _rank(rows):
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col] != 0:
                f = Fraction(rows[i][col], 1) / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _solve(a_rows, b):
    n = len(a_rows[0])
    aug = [[Fraction(x) for x in row] + [Fraction(bv)] for row, bv in zip(a_rows, b)]
    pivots = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, len(aug)) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        p = aug[r][col]
        aug[r] = [x / p for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
    for i in range(r, len(aug)):
        if aug[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        x[col] = aug[i][n]
    return x


def subdivision_by_hyperplane_scan(points, heights):
    """All maximal cells of the lower hull, by scanning (dim+1)-subsets.

    For every affinely independent (dim+1)-subset, interpolate the lifted
    points by an affine functional; if it supports the whole lifted
    configuration from below, record its full contact set.  Cells are the
    contact sets that affinely span.
    """
    npts = len(points)
    dim = len(points[0])
    cells = set()
    for sub in combinations(range(npts), dim + 1):
        pts = [points[i] for i in sub]
        if not _affinely_independent(pts):
            continue
        rows = [list(points[i]) + [1] for i in sub]
        sol = _solve(rows, [heights[i] for i in sub])
        if sol is None:
            continue
        a, c = sol[:dim], sol[dim]

        def val(i):
            return sum(x * y for x, y in zip(a, points[i])) + c

        slacks = [heights[i] - val(i) for i in range(npts)]
        if any(s < 0 for s in slacks):
            continue
        contact = frozenset(i for i in range(npts) if slacks[i] == 0)
        cpts = [points[i] for i in sorted(contact)]
        base = cpts[0]
        dirs = [[Fraction(x - y) for x, y in zip(p, base)] for p in cpts[1:]]
        if _rank(dirs) == dim:
            cells.add(contact)
    return cells


def nullspace_int(rows, ncols):
    """Rational basis of the right kernel of an integer matrix (list of rows)."""
    a = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        p = a[r][col]
        a[r] = [x / p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fcol in free:
        vec = [Fraction(0)] * ncols
        vec[fcol] = Fraction(1)
        for i, pcol in enumerate(pivots):
            vec[pcol] = -a[i][fcol]
        basis.append(vec)
    return basis


def _barycentric_membership(vertices, x):
    """x in conv(vertices) for affinely independent vertices, exactly.

    A kernel vector (lam, t) of the rows [v_i | -x] and [1 ... 1 | -1] has
    sum lam_j v_j = t x and sum lam_j = t.  For independent vertices the
    kernel is one vector exactly when x is in their affine hull; then t = 1
    and lam are the barycentric coordinates of x.
    """
    rows = [[v[i] for v in vertices] + [-xi] for i, xi in enumerate(x)]
    rows.append([1] * len(vertices) + [-1])
    kernel = nullspace_int(rows, len(vertices) + 1)
    return len(kernel) == 1 and kernel[0][-1] > 0 and min(kernel[0]) >= 0


def permutation_sign(seq):
    """Sign of the permutation that sorts seq (distinct items), by its cycles."""
    order = sorted(range(len(seq)), key=lambda k: seq[k])
    seen = [False] * len(seq)
    sign = 1
    for start in range(len(seq)):
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = order[k]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def _det(rows):
    """Determinant of a square matrix, by Fraction Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for i in range(col + 1, n):
            f = a[i][col] / a[col][col]
            a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return det


def smith_by_minors(rows):
    """Smith diagonal from the determinantal divisors, one entry per rank.

    d_1 * ... * d_k is the gcd of the k x k minors; the first k with no
    nonzero minor is the rank.
    """
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    diag = []
    prev = 1
    for k in range(1, min(nrows, ncols) + 1):
        g = 0
        for sel in combinations(range(nrows), k):
            for cols in combinations(range(ncols), k):
                g = _gcd(g, abs(int(_det([[rows[i][j] for j in cols] for i in sel]))))
        if g == 0:
            break
        diag.append(g // prev)
        prev = g
    return diag


def _facets_by_scan(pts, dim):
    """Facets of conv(pts) (full-dimensional): contact index set -> integer normal.

    Every dim-subset that spans a hyperplane with all points on one side
    gives that hyperplane's contact set; the normal is oriented so the
    points lie where <normal, x> <= <normal, contact point>.  A hyperplane
    is dropped at the first point that puts points on both of its sides.
    """
    facets = {}
    for sub in combinations(range(len(pts)), dim):
        base = pts[sub[0]]
        dirs = [[x - y for x, y in zip(pts[i], base)] for i in sub[1:]]
        kernel = nullspace_int(dirs, dim)
        if len(kernel) != 1:
            continue
        den = lcm(*(x.denominator for x in kernel[0]))
        g = [int(x * den) for x in kernel[0]]
        vals, lo, hi = [], 0, 0
        for p in pts:
            v = sum(gi * (x - y) for gi, x, y in zip(g, p, base))
            lo, hi = min(lo, v), max(hi, v)
            if lo < 0 < hi:
                break
            vals.append(v)
        else:
            if lo == 0:  # every point on the >= side
                g = [-x for x in g]
            facets[frozenset(i for i, v in enumerate(vals) if v == 0)] = g
    return facets


def pulling_triangulation(points):
    """Index simplices of a triangulation of conv(points), pulling at lex-min.

    ``points`` must affinely span their ambient space.  Interior points other
    than the pulled vertex are not used as simplex vertices.
    """
    return _pull(points, list(range(len(points))), len(points[0]))


def _pull(points, idx, dim):
    pts = [points[i] for i in idx]
    if len(idx) == dim + 1:
        return [tuple(idx)]
    v0 = min(range(len(idx)), key=lambda k: pts[k])
    simplices = []
    for contact, g in _facets_by_scan(pts, dim).items():
        if v0 in contact:
            continue
        # project the facet along a coordinate where its normal is nonzero
        drop = next(k for k in range(dim) if g[k] != 0)
        sub_idx = sorted(contact)
        sub_pts = [tuple(x for k, x in enumerate(pts[i]) if k != drop)
                   for i in sub_idx]
        for simplex in _pull(sub_pts, list(range(len(sub_idx))), dim - 1):
            simplices.append(tuple([idx[v0]] + [idx[sub_idx[s]] for s in simplex]))
    return simplices


def normalized_volume(points):
    """dim! times the Euclidean volume of conv(points), exact."""
    total = Fraction(0)
    for simplex in pulling_triangulation(points):
        base = points[simplex[0]]
        rows = [[x - y for x, y in zip(points[i], base)] for i in simplex[1:]]
        total += abs(_det(rows))
    return total


def subdivision_volume(sub, cfg):
    """Sum of the normalized volumes of the cells of a subdivision."""
    return sum((normalized_volume([cfg.coords[pid] for pid in cell])
                for cell in sub.cells), Fraction(0))


def mpcs_by_subsets(cells, origin, lifts, coords, blocks, m_basis):
    """Boundary-relevant cones that are not unimodular w.r.t. M, sorted.

    Every nonempty subset of a cell's points other than ``origin`` is a cone.
    It is boundary-relevant when the union of its lifts' supports omits two
    indices of every block, and unimodular when the Smith diagonal of its
    generators' coordinates in ``m_basis`` (rows of a basis of M) is one 1
    per generator.
    """
    columns = [list(col) for col in zip(*m_basis)]
    m_coords = {}
    for pid in sorted({pid for cell in cells for pid in cell} - {origin}):
        sol = _solve(columns, coords[pid])
        if sol is None or any(x.denominator != 1 for x in sol):
            raise ValueError(f"{pid} is not in M")
        m_coords[pid] = [int(x) for x in sol]
    bad = set()
    for cell in cells:
        gens = sorted(pid for pid in cell if pid != origin)
        for size in range(1, len(gens) + 1):
            for cone in combinations(gens, size):
                support = {i for pid in cone for i, x in enumerate(lifts[pid]) if x}
                if (cone not in bad
                        and all(len(set(blk) - support) >= 2 for blk in blocks)
                        and smith_by_minors([m_coords[pid] for pid in cone])
                        != [1] * len(cone)):
                    bad.add(cone)
    return sorted(bad)


# ---------------------------------------------------------------------------
# Koszul factorization on readable keys: an element is {(z-exponent, mask,
# sorted coefficient symbols): int}, bit i of mask the odd generator x_i,
# products of generators in increasing index order; a polynomial is a tuple
# of (sign, symbols, exponent) entries.


def _sign_past_lower_generators(mask, i):
    """(-1)^(number of generators of mask below i)."""
    return -1 if sum(1 for k in range(i) if mask >> k & 1) % 2 else 1


def koszul_operator_by_tuples(elem, contract, insert):
    """sum_i contract[i] d/dx_i + insert[i] x_i applied to a tuple-keyed element."""
    out = {}
    for (zexp, mask, syms), coeff in elem.items():
        for i in range(len(insert)):
            c = coeff * _sign_past_lower_generators(mask, i)
            for sign, esyms, eexp in contract[i] if mask >> i & 1 else insert[i]:
                key = (tuple(a + b for a, b in zip(zexp, eexp)), mask ^ 1 << i,
                       tuple(sorted(syms + esyms)))
                out[key] = out.get(key, 0) + sign * c
    return {key: c for key, c in out.items() if c}


def _z_polys(n):
    return tuple(((1, (), tuple(int(k == i) for k in range(n))),) for i in range(n))


def _negated_polys(polys):
    return tuple(tuple((-s, syms, e) for s, syms, e in p) for p in polys)


def _basis(n, mask):
    return {((0,) * n, mask, ()): 1}


def koszul_delta_squared(n, splits, mask):
    """delta(delta(phi_mask)) for delta = sum_i z_i d/dphi_i + W_i phi_i."""
    z = _z_polys(n)
    return koszul_operator_by_tuples(
        koszul_operator_by_tuples(_basis(n, mask), z, splits), z, splits)


def comparison_image(n, mask):
    """(sign, phi mask) of theta_mask -> (-1)^k d/dphi_{i_1}..d/dphi_{i_k}(phi_1..phi_n),
    the contractions applied one at a time, the rightmost first."""
    image = {((0,) * n, (1 << n) - 1, ()): (-1) ** bin(mask).count("1")}
    for i in reversed([k for k in range(n) if mask >> k & 1]):
        unit = tuple(((1, (), (0,) * n),) if k == i else () for k in range(n))
        image = koszul_operator_by_tuples(image, unit, ((),) * n)
    ((_, phi_mask, _), sign), = image.items()
    return sign, phi_mask


def _comparison(n, elem):
    out = {}
    for (zexp, mask, syms), coeff in elem.items():
        sign, phi_mask = comparison_image(n, mask)
        out[(zexp, phi_mask, syms)] = sign * coeff
    return out


def koszul_intertwining_sides(n, splits, mask):
    """(comparison(dual(theta_mask)), delta(comparison(theta_mask))) for the
    dual differential sum_i(-z_i theta_i - W_i d/dtheta_i)."""
    z = _z_polys(n)
    dual = koszul_operator_by_tuples(_basis(n, mask), _negated_polys(splits),
                                     _negated_polys(z))
    return (_comparison(n, dual),
            koszul_operator_by_tuples(_comparison(n, _basis(n, mask)), z, splits))


# ---------------------------------------------------------------------------
# Graded dimensions on (j, m) tuple keys.


def graded_rows_as_dicts(pairs):
    """The report rows of a graded-dims table, one dict per ((j, m), dim) pair."""
    return [{"deg": {"j": j, "m": list(m)}, "dim": d} for (j, m), d in pairs]


def convolve_block_tables(blocks, n, tables):
    """Convolution of per-block tables in the total datum, block by block.

    tables holds one {(j, m_local): dim} per block, in block order, m_local
    in the block's sorted index order.  Returns the sorted nonzero
    ((j, m), dim) pairs.
    """
    total = {(0, (0,) * n): 1}
    for blk, table in zip(blocks, tables):
        positions = sorted(blk)
        nxt = {}
        for (j1, m1), d1 in total.items():
            for (j2, m2loc), d2 in table.items():
                m = list(m1)
                for i, x in zip(positions, m2loc):
                    m[i] += x
                key = (j1 + j2, tuple(m))
                nxt[key] = nxt.get(key, 0) + d1 * d2
        total = nxt
    return tuple(sorted((cls, d) for cls, d in total.items() if d))


# ---------------------------------------------------------------------------
# Graded exterior-polynomial algebra, one whole degree class at a time.  A
# degree is (j, m) modulo the block relators (2(1 - |I_b|), e_I_b); a
# monomial of the Koszul complex is (mask, a), z^a theta_K with bit i of
# mask the generator theta_i; an element of the exterior algebra on the u_i
# is {mask: int}, each mask the product of its generators in increasing
# index order.


def class_representative(blocks, j, m):
    """(j, m) shifted block by block until each block's least m entry is 0."""
    m = list(m)
    for blk in blocks:
        low = min(m[i] for i in blk)
        for i in blk:
            m[i] -= low
        j += 2 * (len(blk) - 1) * low
    return j, tuple(m)


def _block_shift_vectors(caps, total):
    """Integer vectors s with s_b <= caps[b] and sum(s) = total, by a box scan."""
    ranges = [range(total - (sum(caps) - c), c + 1) for c in caps]
    return [s for s in product(*ranges) if sum(s) == total]


def _exterior_product(e1, e2):
    """e1 ^ e2: one sign flip per generator of s2 below a generator of s1."""
    out = {}
    for s1, c1 in e1.items():
        for s2, c2 in e2.items():
            if s1 & s2:
                continue
            flips = sum(1 for i in range(s1.bit_length()) if s1 >> i & 1
                        for k in range(i) if s2 >> k & 1)
            out[s1 | s2] = out.get(s1 | s2, 0) + (-1) ** flips * c1 * c2
    return {s: c for s, c in out.items() if c}


def _block_wedges(blk, degree):
    """Products of `degree` distinct vectors u_i - u_last of the block, i < last."""
    last = max(blk)
    vecs = [{1 << i: 1, 1 << last: -1} for i in sorted(blk) if i != last]
    out = []
    for combo in combinations(vecs, degree):
        elem = {0: 1}
        for vec in combo:
            elem = _exterior_product(elem, vec)
        out.append(elem)
    return out


@lru_cache(maxsize=None)
def _distribution_basis(blocks, dist):
    """The products over the blocks of each block's wedges of degree dist[b]."""
    elems = [{0: 1}]
    for blk, w in zip(blocks, dist):
        elems = [_exterior_product(e, b) for e in elems for b in _block_wedges(blk, w)]
    return elems


def _wedge_distributions(blocks, total):
    """Per-block wedge degrees 0 <= w_b < |I_b| with sum total."""
    return [d for d in product(*(range(len(blk)) for blk in blocks)) if sum(d) == total]


def _j_class_slices(blocks, n, cls):
    """(a, wedge distribution) of every basis monomial z^a h of the class, a >= 0."""
    jhat, mhat = cls
    block_of = {i: b for b, blk in enumerate(blocks) for i in blk}
    wmax = sum(len(blk) - 1 for blk in blocks)
    caps = [min(-mhat[i] for i in blk) for blk in blocks]
    # |h| = jhat + 2|mhat| + 2 sum(s) for a = -mhat - s[block]
    base = jhat + 2 * sum(mhat)
    slices = []
    for total in range(-(base // 2), (wmax - base) // 2 + 1):
        w = base + 2 * total
        for s in _block_shift_vectors(caps, total):
            a = tuple(-mhat[i] - s[block_of[i]] for i in range(n))
            if class_representative(blocks, 2 * sum(a) + w, tuple(-x for x in a)) != cls:
                raise ValueError(f"slice {a} escapes the class {cls}")
            slices.extend((a, dist) for dist in _wedge_distributions(blocks, w))
    return slices


def _sparse_rank(rows):
    """Rank of rows given as {column: int}, by Fraction elimination that keeps
    one reduced row per leading column."""
    leading = {}
    for row in rows:
        r = {c: Fraction(x) for c, x in row.items() if x}
        while r:
            col = min(r)
            if col not in leading:
                leading[col] = r
                break
            pivot = leading[col]
            f = r[col] / pivot[col]
            for c, x in pivot.items():
                v = r.get(c, 0) - f * x
                if v:
                    r[c] = v
                else:
                    del r[c]
    return len(leading)


@lru_cache(maxsize=None)
def _ideal_generator_list(blocks, n):
    """(e_I_b - e_K, g_K, wedge distribution of g_K) for every nonzero K inside
    a block I_b: g_K is the derivation sending each u_i of the block to 1,
    applied to u_K."""
    gens = []
    for b, blk in enumerate(blocks):
        for size in range(1, len(blk) + 1):
            for K in combinations(sorted(blk), size):
                g = {}
                for pos, i in enumerate(K):
                    rest = sum(1 << k for k in K if k != i)
                    g[rest] = g.get(rest, 0) + (-1) ** pos
                exponent = tuple(int(i in blk and i not in K) for i in range(n))
                g_dist = tuple(size - 1 if c == b else 0 for c in range(len(blocks)))
                gens.append((exponent, g, g_dist))
    return gens


def quotient_class_piece(blocks, n, cls):
    """(size, {(a, u-monomial): column}, ideal rows as {column: coefficient}) of
    the whole class piece.

    The rows are z^(a - e) h * z^e g for every generator z^e g, every a of
    the class with a >= e and every basis element h whose product lands in
    the class, all in the coordinates of the whole class at once.
    """
    slices = _j_class_slices(blocks, n, cls)
    index = {}
    size = 0
    for a, dist in slices:
        for elem in _distribution_basis(blocks, dist):
            size += 1
            for s in elem:
                index.setdefault((a, s), len(index))
    rows = []
    for a, dist in slices:
        for exponent, g, g_dist in _ideal_generator_list(blocks, n):
            h_dist = tuple(d - e for d, e in zip(dist, g_dist))
            if min(h_dist) < 0 or any(x < e for x, e in zip(a, exponent)):
                continue
            for h in _distribution_basis(blocks, h_dist):
                rows.append({index[(a, s)]: c for s, c in _exterior_product(h, g).items()})
    return size, index, rows


def j_class_dimension(blocks, n, cls):
    """dim of the quotient algebra at one degree class, ranked over the whole class."""
    size, _, rows = quotient_class_piece(blocks, n, cls)
    return size - _sparse_rank(rows)


def in_ideal_by_class(blocks, n, a, elem):
    """Membership of z^a * elem in the ideal, by rank over the whole class piece."""
    degree = bin(next(iter(elem), 0)).count("1")
    cls = class_representative(blocks, 2 * sum(a) + degree, tuple(-x for x in a))
    _, index, rows = quotient_class_piece(blocks, n, cls)
    target = {index[(tuple(a), s)]: c for s, c in elem.items()}
    return _sparse_rank(rows + [target]) == _sparse_rank(rows)


def slice_dim_by_closed_form(n, c, w):
    """dim J of one block's slice of size n with c zeros in a and wedge degree w:
    C(n - 1, w) - C(n - c, w - c + 1) for c >= 2, and 0 for c < 2 (the slice
    lemma), with C(a, b) = 0 for b < 0."""
    if c < 2:
        return 0
    return comb(n - 1, w) - (comb(n - c, w - c + 1) if w >= c - 1 else 0)


def _koszul_class_monomials(blocks, n, cls):
    """(mask, a), a >= 0, of every monomial z^a theta_K of the class."""
    jhat, mhat = cls
    block_of = {i: b for b, blk in enumerate(blocks) for i in blk}
    out = []
    for mask in range(1 << n):
        k = [mask >> i & 1 for i in range(n)]
        twice = sum(k) - 2 * sum(mhat) - jhat
        if twice % 2:
            continue
        # a = e_K - mhat - s[block] with sum(s) = twice / 2
        caps = [min(k[i] - mhat[i] for i in blk) for blk in blocks]
        for s in _block_shift_vectors(caps, twice // 2):
            a = tuple(k[i] - mhat[i] - s[block_of[i]] for i in range(n))
            if class_representative(blocks, 2 * sum(a) - sum(k),
                                    tuple(x - y for x, y in zip(k, a))) != cls:
                raise ValueError(f"monomial {(mask, a)} escapes the class {cls}")
            out.append((mask, a))
    return out


def _koszul_image(blocks, mask, a):
    """Contraction of z^a theta_K with dW_0, W_0 = -sum_b z^{e_I_b}."""
    out = {}
    for blk in blocks:
        for k in blk:
            if mask >> k & 1:
                new_a = tuple(x + (i in blk) - (i == k) for i, x in enumerate(a))
                out[(mask ^ 1 << k, new_a)] = -_sign_past_lower_generators(mask, k)
    return out


def koszul_class_matrix(blocks, n, j, m):
    """The differential out of the class (j, m) as {column: coefficient} rows,
    one row per source monomial, one column per monomial of the class (j + 1, m)."""
    target = {mono: col for col, mono in
              enumerate(_koszul_class_monomials(blocks, n, (j + 1, m)))}
    return [{target[key]: c for key, c in _koszul_image(blocks, mask, a).items()}
            for mask, a in _koszul_class_monomials(blocks, n, (j, m))]


def koszul_class_dimension(blocks, n, cls):
    """dim of the Koszul cohomology at one class: size minus the ranks in and out."""
    j, m = cls
    size = len(_koszul_class_monomials(blocks, n, cls))
    return (size - _sparse_rank(koszul_class_matrix(blocks, n, j, m))
            - _sparse_rank(koszul_class_matrix(blocks, n, j - 1, m)))


# --- the degree conditions on Fractions: n_sigma_i = 1/d_i ------------------


def nef_verdict_by_fractions(blocks, degrees, m_basis):
    """(holds, first witness) of the nef partition condition: iota(e_I_j) has
    entries 1/d_i on block j, and the first pairing <iota(e_I_j), m> over the
    blocks, then the basis rows m, that is not an integer is the witness
    (j, m, pairing); None if every pairing is integral."""
    for j, blk in enumerate(blocks):
        for row in m_basis:
            pairing = sum(Fraction(row[i], degrees[i]) for i in blk)
            if pairing.denominator != 1:
                return False, (j, row, pairing)
    return True, None


def no_bc_witnesses_by_fractions(degrees, subsets):
    """The subsets K with |K| - 1 = 2 sum_{i in K} 1/d_i, in the given order."""
    return tuple(K for K in subsets
                 if 2 * sum(Fraction(1, degrees[i]) for i in K) == len(K) - 1)


def delta_relator_j_parts(degrees, m_basis):
    """2 <n_sigma, m> = 2 sum_i m_i / d_i for each basis row m."""
    return [2 * sum(Fraction(x, d) for x, d in zip(row, degrees)) for row in m_basis]


def involution_sign_by_fractions(degrees, v, b, h_size):
    """(-1)^(<n_sigma + v - e_I, b> + 1 + <v + e_I, b> + |h|), or None when
    the exponent is not an integer."""
    exponent = (sum((Fraction(1, d) + vi - 1) * x for d, vi, x in zip(degrees, v, b))
                + 1 + sum((vi + 1) * x for vi, x in zip(v, b)) + h_size)
    if exponent.denominator != 1:
        return None
    return -1 if exponent.numerator % 2 else 1


def _weighted_monomials(weights, total):
    """Every a >= 0 with sum w_i a_i = total."""
    if not weights:
        return [()] if total == 0 else []
    return [(a, *rest) for a in range(total // weights[0] + 1)
            for rest in _weighted_monomials(weights[1:], total - a * weights[0])]


def batyrev_h21(degrees):
    """(h^{k-2,1}, its codimension-2 term) of the Calabi-Yau hypersurface
    sum_i x_i^{d_i} = 0, sum_i 1/d_i = 1, by Batyrev's formula (Batyrev, "Dual
    polyhedra and mirror symmetry for Calabi-Yau hypersurfaces in toric
    varieties", J. Alg. Geom. 3, 1994) for its Newton polytope Delta =
    conv(d_i e_i), of dimension k = n - 1:

        h^{k-2,1} = l(Delta) - k - 1 - sum over facets theta of l*(theta)
                    + sum over codimension-2 faces theta of l*(theta) l*(theta*).

    Delta's lattice points are the monomials of weighted degree lcm(d) under
    the weights w_i = lcm(d) / d_i, and the interior points of the face on
    the indices S are those whose support is exactly S.  The face missing
    i and j is dual to the edge between the images of e_i and e_j in
    Hom(M_lin, Z) = Z^n / Z w', M_lin = {a : sum w_i a_i = 0} and w' the
    primitive weights; its lattice length is the largest content of
    e_i - e_j - c w' over c (it divides sum w', so c < sum w' suffices).
    """
    n, total = len(degrees), lcm(*degrees)
    weights = [total // d for d in degrees]
    interior = Counter(frozenset(i for i, a in enumerate(m) if a)
                       for m in _weighted_monomials(weights, total))
    primitive = [w // gcd(*weights) for w in weights]

    def edge_interior(i, j):
        edge = [(k == i) - (k == j) for k in range(n)]
        return max(gcd(*(x - c * w for x, w in zip(edge, primitive)))
                   for c in range(sum(primitive))) - 1

    every = frozenset(range(n))
    facets = sum(interior[every - {i}] for i in range(n))
    codim2 = sum(interior[every - {i, j}] * edge_interior(i, j)
                 for i, j in combinations(range(n), 2))
    return sum(interior.values()) - (n - 1) - 1 - facets + codim2, codim2
