"""Exact integer linear algebra on small lattices.

Everything here works on plain Python ints (arbitrary precision); no
floating point enters any computation.  Matrices are lists of row tuples.
One elimination, the integer echelon ``_echelon`` (gcd row steps), gives
Hermite forms, the Smith form and rank; run on the columns with the identity
carried along, it gives the integer kernel, which serves the lattices of
congruences, the normals of the subdivision's pivot, and barycentric
coordinates on a simplex.  The matrices are small (at most a few dozen rows
of ~10 columns with small entries), so it uses no size-reduction tricks.
"""

from __future__ import annotations

from math import gcd, prod
from typing import NamedTuple

from . import CertificateFailure

IntVec = tuple[int, ...]


class LatticeError(ValueError):
    pass


class EchelonCheckFailed(CertificateFailure):
    pass


def _echelon(a, ncols):
    """Row echelon form of the integer rows ``a`` by unimodular row steps, in place.

    Column by column among the first ``ncols``, the rows below the current
    rank are reduced by the one with the smallest entry there (Euclid) until
    one row carries the column; it moves up to the rank with a positive
    pivot.  Entries past ``ncols`` take the same steps.  Changed rows become
    new lists.  Returns the pivot columns; rows past their count are zero in
    the first ``ncols``.
    """
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
                    a[i] = [x - q * y for x, y in zip(a[i], a[p])]
            live = [i for i in live if a[i][col]]
        p = live[0]
        if a[p][col] < 0:
            a[p] = [-x for x in a[p]]
        a[r], a[p] = a[p], a[r]
        pivots.append(col)
    return pivots


def _transform_echelon(rows, ncols):
    """(rank, a): the echelon of the columns of ``rows``, the identity carried along.

    Row j of ``a`` starts as (column j of rows, e_j), j < ncols, and is
    reduced on its first len(rows) entries: the carried part ends as a
    unimodular T with T rows^T = [E; 0], E in echelon form with ``rank``
    positive pivots.  The rows of T below the rank are thus an integer basis
    of the kernel of ``rows``.
    """
    m = len(rows)
    a = list(zip(*rows, *_identity(ncols)))
    rank = len(_echelon(a, m))
    if any(any(row[:m]) for row in a[rank:]):
        raise EchelonCheckFailed("transform echelon has a nonzero row below its rank")
    return rank, a


def kernel(rows, ncols):
    """An integer basis of {x in Z^ncols : rows @ x = 0}; the identity for no rows."""
    rank, a = _transform_echelon(rows, ncols)
    return [row[len(rows):] for row in a[rank:]]


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
        return prod(self.invariant_factors)


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
        return abs(prod(row[_pivot_col(row)] for row in self.basis))


def _pivot_col(row):
    for j in range(len(row) - 1, -1, -1):
        if row[j] != 0:
            return j
    raise LatticeError("zero row in basis")


def hnf_canonicalize(generators, ambient_rank):
    """Canonical Sublattice spanned by the given generator rows: their Hermite form.

    Convention: lower triangular, pivots positive, the entries below each
    pivot reduced into [0, pivot).  Rows are ordered by increasing pivot
    column, zero rows dropped.  This form is unique per lattice, so it can be
    compared for equality directly.
    """
    work = [r[::-1] for r in map(tuple, generators) if any(r)]
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
    return Sublattice(ambient_rank, tuple(map(tuple, basis)))


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
    k = len(congruences)
    mat = []
    for idx, (c, n) in enumerate(congruences):
        row = list(c) + [0] * k
        row[ambient_rank + idx] = -n
        mat.append(tuple(row))
    projected = [row[:ambient_rank] for row in kernel(mat, ambient_rank + k)]
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


def barycentric(vertices):
    """Integer W: W(x, 1) = D * (barycentric coordinates of x), D > 0, for x
    in the affine hull of ``vertices``; None when they are affinely dependent.
    The transform echelon of the rows (v_i, 1) gives T [v_i; 1] = [E; 0], E
    upper triangular with positive pivots: W = adj(E) T above the rank, by
    integer back substitution, D = det E.
    """
    k = len(vertices)
    rank, a = _transform_echelon([(*v, 1) for v in vertices], len(vertices[0]) + 1)
    if rank < k:
        return None
    d = prod(a[i][i] for i in range(k))
    w = [None] * k
    for i in range(k - 1, -1, -1):
        acc = [d * t for t in a[i][k:]]
        for j in range(i + 1, k):
            if a[i][j]:
                acc = [x - a[i][j] * y for x, y in zip(acc, w[j])]
        w[i] = [x // a[i][i] for x in acc]
    return w

