"""Independent brute-force oracles used by the test suite.

These deliberately avoid the code paths they check: lattice membership via
subgroup closure in a finite quotient, point enumeration by box scan with the
congruences applied directly, subdivisions by scanning all candidate
supporting hyperplanes, volumes by a pulling triangulation over a facet
scan of their own, the Koszul factorization on readable tuple keys, and the
convolution of graded-dims tables on (j, m) tuple keys.  Nothing here imports
mirrorcone.
"""

from fractions import Fraction
from itertools import combinations, product


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
    """Facets of conv(pts) (full-dimensional): contact index set -> normal.

    Every dim-subset that spans a hyperplane with all points on one side
    gives that hyperplane's contact set; the normal is oriented so the
    points lie where <normal, x> <= <normal, contact point>.
    """
    facets = {}
    for sub in combinations(range(len(pts)), dim):
        base = pts[sub[0]]
        dirs = [[x - y for x, y in zip(pts[i], base)] for i in sub[1:]]
        kernel = nullspace_int(dirs, dim)
        if len(kernel) != 1:
            continue
        g = kernel[0]
        vals = [sum(gi * (x - y) for gi, x, y in zip(g, p, base)) for p in pts]
        if all(v >= 0 for v in vals):
            g = [-x for x in g]
        elif not all(v <= 0 for v in vals):
            continue
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


def _comparison(n, elem):
    """theta_{i_1}..theta_{i_k} -> (-1)^k d/dphi_{i_1}..d/dphi_{i_k}(phi_1..phi_n),
    the contractions applied one at a time, the rightmost first."""
    out = {}
    for (zexp, mask, syms), coeff in elem.items():
        image = {((0,) * n, (1 << n) - 1, ()): (-1) ** bin(mask).count("1")}
        for i in reversed([k for k in range(n) if mask >> k & 1]):
            unit = tuple(((1, (), (0,) * n),) if k == i else () for k in range(n))
            image = koszul_operator_by_tuples(image, unit, ((),) * n)
        ((_, phi_mask, _), sign), = image.items()
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


def graded_rows_as_dicts(dims):
    """The report rows of a graded-dims table, one dict per ((j, m), dim) of dims.dims."""
    return [{"deg": {"j": j, "m": list(m)}, "dim": d} for (j, m), d in dims.dims]


def convolve_block_tables(blocks, n, tables):
    """Convolution of per-block tables in the total datum, block by block.

    tables maps a block size to {(j, m_local): dim}, m_local in the block's
    sorted index order.  Returns the sorted nonzero ((j, m), dim) pairs.
    """
    total = {(0, (0,) * n): 1}
    for blk in blocks:
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
    return tuple(sorted((cls, d) for cls, d in total.items() if d))
