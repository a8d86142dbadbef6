"""Exact integer linear algebra on small lattices.

Everything here works on plain Python ints (arbitrary precision); no
floating point enters any computation.  Matrices are lists of row tuples.
One elimination, the integer echelon ``_echelon`` (gcd row steps), gives
Hermite forms, lattice kernels, the Smith form, rank, the rational nullspace
as primitive integer vectors, and barycentric coordinates on a simplex.  The
matrices are small (at most a few dozen rows of ~10 columns with small
entries), so it uses no size-reduction tricks.
"""

from __future__ import annotations

from bisect import bisect
from math import gcd, prod
from operator import mul
from typing import NamedTuple

from . import CertificateFailure

IntVec = tuple[int, ...]


class LatticeError(ValueError):
    pass


def _echelon(a, ncols, trans=None):
    """Row echelon form of the integer rows ``a`` by unimodular row steps, in place.

    Column by column among the first ``ncols``, the rows below the current
    rank are reduced by the one with the smallest entry there (Euclid) until
    one row carries the column; it moves up to the rank with a positive
    pivot.  ``trans`` gets the same steps: from the identity it ends as T
    with T * a_in = a_out.  Changed rows become new lists.  Returns the
    pivot columns; rows past their count are zero in the first ``ncols``.
    """
    mats = (a,) if trans is None else (a, trans)
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        live = [i for i in range(r, len(a)) if a[i][col]]
        if not live:
            continue
        while len(live) > 1:
            p = min(live, key=lambda i: abs(a[i][col]))
            for i in live:
                if i != p:
                    q = a[i][col] // a[p][col]
                    for mat in mats:
                        mat[i] = [x - q * y for x, y in zip(mat[i], mat[p])]
            live = [i for i in live if a[i][col]]
        p = live[0]
        if a[p][col] < 0:
            for mat in mats:
                mat[p] = [-x for x in mat[p]]
        for mat in mats:
            mat[r], mat[p] = mat[p], mat[r]
        pivots.append(col)
    return pivots


def hnf(rows, ambient_rank):
    """Hermite normal form of the lattice spanned by ``rows`` in Z^ambient_rank.

    Convention: lower triangular, pivots positive, the entries below each
    pivot reduced into [0, pivot).  Rows are ordered by increasing pivot
    column, zero rows dropped.  This form is unique per lattice, so it can be
    compared for equality directly.
    """
    work = [r[::-1] for r in map(tuple, rows) if any(r)]
    if any(len(r) != ambient_rank for r in work):
        raise LatticeError("row length does not match ambient rank")
    # echelon of the reversed rows: the pivot is each row's last nonzero entry
    pivots = _echelon(work, ambient_rank)
    basis = [list(r[::-1]) for r in reversed(work[:len(pivots)])]
    cols = [ambient_rank - 1 - c for c in reversed(pivots)]
    # reduce entries below each pivot into [0, pivot); rows must be reduced
    # against pivot rows in decreasing pivot-column order, otherwise a later
    # subtraction (whose row has nonzero earlier entries) undoes the reduction
    for k in range(len(basis)):
        for i in range(k - 1, -1, -1):
            c = cols[i]
            q = basis[k][c] // basis[i][c]
            if q:
                for t in range(ambient_rank):
                    basis[k][t] -= q * basis[i][t]
    return [tuple(r) for r in basis]


def right_kernel_basis(mat):
    """Rows spanning {x in Z^n : mat @ x = 0} for an integer matrix."""
    echelon = list(zip(*mat))
    n = len(echelon)
    trans = _identity(n)
    rank = len(_echelon(echelon, len(mat), trans))
    if any(any(echelon[i]) for i in range(rank, n)):
        raise CertificateFailure("Hermite form has a nonzero row below its rank")
    return [tuple(row) for row in trans[rank:]]


def smith_normal_form(rows):
    """Smith normal form diagonal: one entry per rank, 1s kept, each dividing the next.

    Echelon forms of the rows and of the columns alternate until every row
    has a single nonzero entry (Kannan-Bachem 1979); the pairwise gcd/lcm
    pass then turns those entries into the divisibility chain.
    """
    a = list(rows)
    while True:
        pivots = _echelon(a, len(a[0]) if a else 0)
        a = a[:len(pivots)]
        if all(not any(row[c + 1:]) for row, c in zip(a, pivots)):
            break
        a = list(zip(*a))
    diag = [row[c] for row, c in zip(a, pivots)]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return diag


class FiniteAbelianGroup:
    """Finite abelian group given by its invariant factors (each dividing the next)."""

    def __init__(self, invariant_factors: tuple[int, ...]):
        for a, b in zip(invariant_factors, invariant_factors[1:]):
            if b % a != 0:
                raise LatticeError("invariant factors must form a divisibility chain")
        if any(f < 2 for f in invariant_factors):
            raise LatticeError("invariant factors must be >= 2")
        self.invariant_factors = invariant_factors

    @property
    def order(self):
        n = 1
        for f in self.invariant_factors:
            n *= f
        return n


def group_from_diagonal(diag):
    return FiniteAbelianGroup(tuple(d for d in diag if d > 1))


class Sublattice(NamedTuple):
    """A sublattice of Z^ambient_rank held by its unique HNF basis."""

    ambient_rank: int
    basis: tuple[IntVec, ...]

    @property
    def rank(self):
        return len(self.basis)

    def index_in_ambient(self):
        if self.rank != self.ambient_rank:
            raise LatticeError("index undefined for non-full-rank sublattice")
        det = 1
        for i, row in enumerate(self.basis):
            det *= row[_pivot_col(row)]
        return abs(det)


def _pivot_col(row):
    for j in range(len(row) - 1, -1, -1):
        if row[j] != 0:
            return j
    raise LatticeError("zero row in basis")


def hnf_canonicalize(generators, ambient_rank):
    """Canonical Sublattice spanned by the given generator rows."""
    return Sublattice(ambient_rank, tuple(hnf(generators, ambient_rank)))


def sublattice_from_congruences(ambient_rank, congruences):
    """The sublattice {m : <c_k, m> = 0 mod n_k for all k} of Z^ambient_rank.

    Computed as the projection of the integer kernel of [C | -diag(n)].
    """
    congruences = list(congruences)
    for c, n in congruences:
        if n < 1:
            raise LatticeError("moduli must be >= 1")
        if len(c) != ambient_rank:
            raise LatticeError("congruence vector has wrong length")
    if not congruences:
        return hnf_canonicalize(_identity(ambient_rank), ambient_rank)
    k = len(congruences)
    mat = []
    for idx, (c, n) in enumerate(congruences):
        row = list(c) + [0] * k
        row[ambient_rank + idx] = -n
        mat.append(tuple(row))
    kernel = right_kernel_basis(mat)
    projected = [row[:ambient_rank] for row in kernel]
    return hnf_canonicalize(projected, ambient_rank)


def _identity(n):
    return [(0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)]


def solve_int(lat: Sublattice, v):
    """Integer coefficients x with x @ lat.basis == v, or None."""
    v = list(v)
    if len(v) != lat.ambient_rank:
        raise LatticeError("dimension mismatch")
    coeffs = [0] * lat.rank
    for i in range(lat.rank - 1, -1, -1):
        row = lat.basis[i]
        c = _pivot_col(row)
        if v[c] % row[c] != 0:
            return None
        x = v[c] // row[c]
        coeffs[i] = x
        if x:
            for t in range(lat.ambient_rank):
                v[t] -= x * row[t]
    if any(v):
        return None
    return coeffs


def contains(lat: Sublattice, v):
    return solve_int(lat, v) is not None


def quotient_group(ambient_rank, lat: Sublattice):
    """Invariant factors of Z^ambient_rank / lat (lat must be full rank)."""
    if lat.rank != ambient_rank:
        raise LatticeError("quotient by a non-full-rank sublattice is infinite")
    return group_from_diagonal(smith_normal_form(lat.basis))


def lattice_quotient(sup: Sublattice, sub: Sublattice):
    """Invariant factors of sup/sub for full-rank sub <= sup."""
    if sup.ambient_rank != sub.ambient_rank:
        raise LatticeError("ambient rank mismatch")
    if sub.rank != sup.rank:
        raise LatticeError("quotient of lattices of different rank is infinite")
    coeff_rows = []
    for row in sub.basis:
        coeffs = solve_int(sup, row)
        if coeffs is None:
            raise LatticeError("second lattice is not contained in the first")
        coeff_rows.append(tuple(coeffs))
    return group_from_diagonal(smith_normal_form(coeff_rows))


def matrix_rank(rows):
    """Rank of an integer matrix."""
    a = [row for row in rows if any(row)]
    return len(_echelon(a, len(a[0]) if a else 0))


def nullspace(rows, ncols):
    """Basis of {x in Q^ncols : <row, x> = 0 for all integer rows}.

    One primitive integer vector per free column (a column that adds no
    rank), positive at that column and 0 at the other free columns.  Each is
    back-substituted through the echelon rows from the bottom, scaled up
    whenever a pivot does not divide its partial sum.
    """
    a = list(rows)
    pivots = _echelon(a, ncols)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [0] * ncols
        vec[free] = 1
        # rows with a pivot right of free give 0: start at the last pivot left of it
        for r in range(bisect(pivots, free) - 1, -1, -1):
            row, col = a[r], pivots[r]
            # the row is zero left of col and vec is zero at col: s sums j > col
            s = sum(map(mul, row, vec))
            m = row[col] // gcd(s, row[col])
            if m != 1:
                vec = [x * m for x in vec]
                s *= m
            vec[col] = -s // row[col]
        g = gcd(*vec)
        basis.append(tuple(x // g for x in vec))
    return basis


def barycentric(vertices):
    """Integer (W, N): x is in the affine hull of ``vertices`` iff N(x, 1) = 0,
    and then W(x, 1) = D * (barycentric coordinates of x), D > 0; None when
    the vertices are affinely dependent.  One echelon of the columns (v_i, 1),
    the identity carried along, gives T [v_i; 1] = [E; 0], E upper triangular
    with positive pivots: N is T below the rank and W = adj(E) T above it, by
    integer back substitution, D = det E.
    """
    k = len(vertices)
    rows = [*zip(*vertices), (1,) * k]
    a = [[*row, *e] for row, e in zip(rows, _identity(len(rows)))]
    if len(_echelon(a, k)) < k:
        return None
    d = prod(a[i][i] for i in range(k))
    w = [None] * k
    for i in range(k - 1, -1, -1):
        acc = [d * t for t in a[i][k:]]
        for j in range(i + 1, k):
            if a[i][j]:
                acc = [x - a[i][j] * y for x, y in zip(acc, w[j])]
        w[i] = [x // a[i][i] for x in acc]
    return w, [row[k:] for row in a[k:]]


def lattice_intersection(a: Sublattice, b: Sublattice):
    """The intersection of two sublattices of the same ambient Z^n."""
    if a.ambient_rank != b.ambient_rank:
        raise LatticeError("ambient rank mismatch")
    n = a.ambient_rank
    # x in both lattices iff x = u @ a.basis = v @ b.basis; solve for (u, v)
    mat = []
    for k in range(n):
        mat.append(tuple([row[k] for row in a.basis] + [-row[k] for row in b.basis]))
    kernel = right_kernel_basis(mat)
    rows = []
    for vec in kernel:
        u = vec[: a.rank]
        rows.append(tuple(sum(u[i] * a.basis[i][k] for i in range(a.rank))
                          for k in range(n)))
    return hnf_canonicalize(rows, n)
