"""Regular subdivisions induced by the weight vector, and the fan conditions.

The projected configuration consists of the images of the distinguished
lattice points under the per-block coordinate projection, plus the origin.
A weight vector lifts the configuration; the cells of the subdivision are the
projections of the lower faces of the lifted point set, found by an integer
pivot from an initial lowest face across ridges.  One facet enumerator,
``_facets``, reads each cell: a simplex hull by one barycentric factorization,
any other by the same pivot one dimension down.  --perturb pivots once more,
on the weights plus small multiples of |p|^2 and of seeded noise: each cell
splits into simplices on all its points.  The lift reads each simplex's one
factorization and tests a point only against the cells of the lower envelope
(the maximum of the cells' support functionals) at its projection.  All
arithmetic is exact; each cell carries the affine functional certifying it
(equality on the cell, strictly below the heights elsewhere).  MPCP and MPCS
read each lift's support as a bitmask; MPCS solves each point in M once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import mul, or_
import random
from typing import NamedTuple

from . import CertificateFailure
from .intlat import (
    _echelon,
    barycentric,
    hnf_canonicalize,
    kernel,
    matrix_rank,
    smith_normal_form,
    solve_int,
)
from .toricdata import IndexSetTooLarge, ToricDataError, ValidatedToricData

ORIGIN = "origin"
# Most boundary-relevant cones check_mpcs walks; the largest counts measured
# are 16,383 for seven cubic blocks, 13,106 for the generic sextic fourfold
# and 279 for the uniform z-manifold.
MPCS_CONE_LIMIT = 1 << 16


class FanError(ValueError):
    pass


class DegenerateConfig(FanError):
    pass


class PivotCheckFailed(CertificateFailure):
    pass


class BlockZeroCheckFailed(CertificateFailure):
    pass


class MLatticeCheckFailed(CertificateFailure):
    pass


class RefinementCheckFailed(CertificateFailure):
    pass


class CellLiftFailure(FanError, CertificateFailure):
    def __init__(self, cell, reason):
        super().__init__(f"cell {tuple(sorted(cell))}: {reason}")
        self.cell = tuple(sorted(cell))
        self.reason = reason


def point_id(p):
    return ",".join(str(x) for x in p)


class ProjectedConfig(NamedTuple):
    dim: int
    ids: tuple[str, ...]                 # origin first, then Xi_0 in lex order
    coords: dict                         # id -> tuple of ints (projected)
    lifts: dict                          # id -> canonical lift in Z^I
    nonzero: dict                        # id -> bitmask of the lift's nonzero indices
    pairs: tuple[tuple[int, int], ...]   # (kept index, dropped index of its block)
    vt: ValidatedToricData

    def project(self, x):
        return tuple(x[k] - x[i] for k, i in self.pairs)


def _block_masks(vt):
    return [sum(1 << i for i in blk) for blk in vt.blocks]


def project_config(vt: ValidatedToricData) -> ProjectedConfig:
    dropped = {i: max(blk) for blk in vt.blocks for i in blk}
    pairs = tuple((k, dropped[k]) for k in range(vt.n) if k != dropped[k])
    block_masks = _block_masks(vt)
    ids = [ORIGIN]
    coords = {ORIGIN: (0,) * len(pairs)}
    lifts = {ORIGIN: (0,) * vt.n}
    nonzero = {ORIGIN: 0}
    cfg = ProjectedConfig(dim=len(pairs), ids=(), coords=coords, lifts=lifts,
                          nonzero=nonzero, pairs=pairs, vt=vt)
    for p in vt.xi0:
        mask = sum(1 << i for i, x in enumerate(p) if x)
        if any(mask & bm == bm for bm in block_masks):
            raise BlockZeroCheckFailed(f"Xi_0 point {p} without block zero")
        pid = point_id(p)
        ids.append(pid)
        coords[pid] = cfg.project(p)
        lifts[pid] = p
        nonzero[pid] = mask
    return cfg._replace(ids=tuple(ids))


class Subdivision(NamedTuple):
    """The cells of ``regular_subdivision``, each with the pivot's integer functional."""

    cells: tuple[tuple[str, ...], ...]   # sorted id tuples, sorted overall
    supports: dict                       # cell tuple -> (A, C, e): (A.x + C)/e, e > 0
    weights: dict                        # id -> Fraction
    perturbed: bool
    parents: dict                        # refined cell -> unperturbed cell
    simplices: dict                      # simplicial cell -> {vertex id: its row of W}


def _affine_rank(points):
    return matrix_rank([[x - y for x, y in zip(p, points[0])] for p in points[1:]])


def _facets(pts, dim):
    """Facets of conv(pts), full-dimensional: contact index set -> (normal, offset).

    The normal is integral, not necessarily primitive, and points outward
    (pts lie where <normal, x> <= offset); pts may repeat.  dim + 1 points
    are the vertices of a simplex; otherwise dim + 1 vertices come by
    completion.  The lex-max point is a vertex.  While there are at most dim
    vertices, g (the first row of the kernel of their differences: one
    echelon, ``kernel`` of none, takes a gcd column per new vertex) is constant
    on their affine hull but not on pts, which span; so the lex-max point at
    max g, or at min g when the vertices attain max g, is a vertex of a
    supporting face off that hull.  The dim + 1 vertices found are affinely
    independent, and all of conv(pts)'s iff it is a simplex (always for
    dim = 1): W of ``barycentric`` certifies that by W(p, 1) >= 0 at every
    point p, and row k, as (-g, g0), is zero exactly on the facet without
    vertex k, repeated points and points on faces included.  Any other hull
    comes from the pivot of ``_lower_hull_cells``, on pts without their last
    coordinate and with it, or its negative, as height (lower and upper
    facets); the facets of that projection whose contact set still spans a
    hyperplane are the vertical ones.
    """
    if len(pts) == dim + 1:  # the vertices: W(v_j, 1) = D [j == k], nothing to check
        return {frozenset(range(dim + 1)) - {k}: (tuple(-x for x in w[:dim]), w[dim])
                for k, w in enumerate(barycentric(pts))}
    verts, normals = [max(pts)], kernel([], dim)
    while len(verts) <= dim:
        g = normals[0]
        vals = [sum(map(mul, g, p)) for p in pts]
        t = max(vals) if max(vals) != sum(map(mul, g, verts[0])) else min(vals)
        verts.append(max(p for p, v in zip(pts, vals) if v == t))
        normals = [(sum(map(mul, n, verts[-1])) - sum(map(mul, n, verts[0])), *n) for n in normals]
        _echelon(normals, 1)
        normals = [n[1:] for n in normals[1:]]
    if (w_rows := barycentric(verts)) is not None:
        rows = [(w, [sum(map(mul, w, p)) + w[dim] for p in pts]) for w in w_rows]
        if all(min(vals) >= 0 for _, vals in rows):
            return {frozenset(i for i, v in enumerate(vals) if v == 0):
                    (tuple(-x for x in w[:dim]), w[dim]) for w, vals in rows}
    facets = {}
    base = [p[:-1] for p in pts]
    for s in (1, -1):
        # height s*x: the functional (a.x' + c)/e lies below, so a.x' - s*e*x <= -c
        for cell, (a, c, e), _ in _lower_hull_cells(base, [s * p[-1] for p in pts]):
            facets[cell] = (a + (-s * e,), -c)
    for contact, (g, g0) in _facets(base, dim - 1).items():
        if _affine_rank([pts[i] for i in contact]) == dim - 1:
            facets[contact] = (g + (0,), g0)
    return facets


def _lower_hull_cells(points, heights):
    """Maximal cells of the regular subdivision of a full-dimensional config.

    ``points``: list of integer tuples; ``heights``: parallel rationals, scaled
    once to integers H by their common denominator.  The pivot runs on
    integers: a functional (*A, C, e), e > 0, stands for (A.x + C)/e and keeps
    its slacks e*H_i - (A.p_i + C).  Returns a list of (frozenset of indices,
    (A, C, e), ``_facets`` of the cell's points in index order), e including
    the height scale, where (A.x + C)/e equals the height exactly on the cell
    and is strictly below it elsewhere.
    """
    dim = len(points[0])
    if _affine_rank(points) != dim:
        raise DegenerateConfig("configuration does not span its ambient space")
    den = lcm(*(h.denominator for h in heights))
    scaled = [int(h * den) for h in heights]

    def rotate(func, slack, g, g0):
        """Add t*(g.x - g0) to the functional, t = s*/(e*b*) for the least
        ratio s*/b* over b_i = g.p_i - g0 > 0: A' = b*A + s*g, C' = b*C - s*g0,
        e' = b*e, s'_i = b*s_i - s*b_i, all over their gcd.  Returns (func,
        slack, contact), contact None when it is not supporting; None when no
        point has g.x > g0.
        """
        bs = [sum(map(mul, g, p)) - g0 for p in points]
        s_t = b_t = None
        for s, b in zip(slack, bs):
            if b > 0 and (b_t is None or s * b_t < s_t * b):
                s_t, b_t = s, b
        if b_t is None:
            return None
        func = [b_t * x + s_t * y for x, y in zip(func, (*g, -g0, 0))]
        k = gcd(*func)
        slack = [(b_t * s - s_t * b) // k for s, b in zip(slack, bs)]
        contact = frozenset(i for i, s in enumerate(slack) if s == 0)
        return tuple(x // k for x in func), slack, contact if min(slack) >= 0 else None

    # the lowest points, then rotations until the contact set spans (no kernel)
    func, slack = (0,) * dim + (min(scaled), 1), [h - min(scaled) for h in scaled]
    first = frozenset(i for i, s in enumerate(slack) if s == 0)
    while normals := kernel([points[i] + (-1,) for i in sorted(first)], dim + 1):
        *g, g0 = normals[0]
        func, slack, first = (rotate(func, slack, g, g0)
                              or rotate(func, slack, tuple(-x for x in g), -g0))
        if first is None:
            raise PivotCheckFailed("rotated functional is not supporting")

    # pivot across each ridge, around its outward normal, once: an interior
    # ridge holds the same points seen from either of its two cells
    cells, facets = {first: (func, slack)}, {}
    queue, crossed = [first], set()
    while queue:
        cell = queue.pop()
        func, slack = cells[cell]
        idx = sorted(cell)
        facets[cell] = _facets([points[i] for i in idx], dim)
        for facet, (g, g0) in facets[cell].items():
            if (ridge := frozenset(idx[i] for i in facet)) in crossed:
                continue
            crossed.add(ridge)
            res = rotate(func, slack, g, g0)
            if res is None:
                continue
            func2, slack2, contact = res
            if contact is None or not contact >= ridge:
                raise PivotCheckFailed("neighbor functional lost the ridge")
            if contact not in cells:
                cells[contact] = (func2, slack2)
                queue.append(contact)
    return [(cell, (f[:-2], f[-2], f[-1] * den), facets[cell]) for cell, (f, _) in cells.items()]


def regular_subdivision(cfg: ProjectedConfig, perturb_seed=None) -> Subdivision:
    """The regular subdivision induced by the weights h, ``cfg.vt.heights`` and 0 at the origin.

    With ``perturb_seed`` the pivot runs again, on h' = h + eps*f + eps2*g
    (``_refined_heights``): the ``perturbed`` result has weights h', each cell
    its own functional, and ``parents`` names the cell of h holding each new
    cell (RefinementCheckFailed if none does; FanError if it is no simplex).

    h' refines h, and each point of a cell of h is a vertex of h'.  Let sigma
    be a cell of h', l' its functional (l' <= h', equal exactly on sigma), x
    the barycenter of its points and C a cell of h whose hull holds x, with
    functional l_C (h - l_C is 0 on C, at least s_min off it).  Averaging h'
    over sigma, Jensen on the convex f and g >= 0 give l'(x) >= l_C(x) +
    eps*f(x) + s_min*beta, beta the weight of sigma's points off C (0 or at
    least 1/N); x as a convex combination of C's points and l' <= h' give
    l'(x) <= l_C(x) + eps*max f + eps2.  So beta*s_min <= eps*max f + eps2
    <= 3*s_min/(4N) < s_min/N (max f >= 1): beta = 0, sigma lies in C.  A
    point p of C in no cell of h' is sum mu_u u over the points u of some
    sigma, in a cell C' of h with h(p) = l_C'(p); then l'(p) - h'(p) =
    eps*sum mu_u |u - p|^2 + eps2*(sum mu_u g(u) - g(p)) >= eps - eps2 > 0
    (distinct lattice points lie at least 1 apart, 0 <= g <= 1), against l' <= h'.
    """
    if cfg.vt.heights is None:
        raise ToricDataError("no weight vector supplied")
    ids = list(cfg.ids)
    points = [cfg.coords[pid] for pid in ids]
    heights = [Fraction(0), *cfg.vt.heights]

    def named(cell):
        return tuple(sorted(ids[i] for i in cell))

    cells = _lower_hull_cells(points, heights)
    parents = {}
    if perturb_seed is not None:
        heights = _refined_heights(points, heights, cells, perturb_seed)
        coarse, cells = [cell for cell, *_ in cells], _lower_hull_cells(points, heights)
        for cell, *_ in cells:
            if (parent := next((c for c in coarse if cell <= c), None)) is None:
                raise RefinementCheckFailed(
                    f"refined cell {named(cell)} lies in no unperturbed cell")
            if parent != cell:
                parents[named(cell)] = named(parent)
        if any(len(cell) != cfg.dim + 1 for cell, *_ in cells):
            raise FanError("the refined heights did not reach a triangulation")
    supports = dict(sorted((named(cell), func) for cell, func, _ in cells))
    simplices = {named(cell): {ids[idx[k]]: (*(-x for x in g), g0)
                               for facet, (g, g0) in facets.items()
                               for k in set(range(len(idx))) - facet}
                 for cell, _, facets in cells if len(idx := sorted(cell)) == cfg.dim + 1}
    return Subdivision(cells=tuple(supports), supports=supports, weights=dict(zip(ids, heights)),
                       perturbed=perturb_seed is not None, parents=parents, simplices=simplices)


def _refined_heights(points, heights, cells, seed):
    """h' = h + eps*f + eps2*g, ``cells`` those of h from ``_lower_hull_cells``:
    f(p) = |p|^2, g(p) from ``random.Random(seed)`` in (0, 1] but 0 at the
    origin, eps = s_min/(2 N max f), eps2 = eps/2, N = len(points), s_min the
    least positive slack of the cells' functionals (1 if none is positive)."""
    slacks = (h - Fraction(sum(map(mul, a, p)) + c, e)
              for _, (a, c, e), _ in cells for p, h in zip(points, heights))
    s_min = min((s for s in slacks if s > 0), default=Fraction(1))
    f = [sum(x * x for x in p) for p in points]
    eps = s_min / (2 * len(points) * max(f))
    rng = random.Random(seed)
    g = [Fraction(rng.getrandbits(32) + 1, 1 << 32) if any(p) else 0 for p in points]
    return [h + eps * (2 * fp + gp) / 2 for h, fp, gp in zip(heights, f, g)]


class ConditionReport(NamedTuple):
    mpcp: bool
    mpcs: bool | None
    is_triangulation: bool
    refines_product_fan: bool
    rays_are_xi0: bool
    failures: tuple

    def to_json(self):
        return {**self._asdict(),
                "failures": [[list(cell), reason] for cell, reason in self.failures]}


def check_mpcp(sub: Subdivision, cfg: ProjectedConfig) -> ConditionReport:
    failures = [(cell, "cell is not a simplex")
                for cell in sub.cells if len(cell) != cfg.dim + 1]
    is_tri = not failures
    used = set().union(*sub.cells)
    missing = [((pid,), "point is not a vertex of the subdivision")
               for pid in cfg.ids[1:] if pid not in used]
    covered = []
    block_masks = _block_masks(cfg.vt)
    for cell in sub.cells:
        union = reduce(or_, map(cfg.nonzero.__getitem__, cell))
        covered += [(cell, f"block {j} support does not omit an index")
                    for j, bm in enumerate(block_masks) if union & bm == bm]
    failures += missing + covered
    return ConditionReport(mpcp=not failures, mpcs=None, is_triangulation=is_tri,
                           refines_product_fan=not covered, rays_are_xi0=not missing,
                           failures=tuple(failures))


def lattice_m_basis(cfg: ProjectedConfig):
    """Basis of M = image of M_bar under the projection, in kept coordinates."""
    rows = [cfg.project(row) for row in cfg.vt.m_bar.basis]
    return hnf_canonicalize(rows, cfg.dim)


def check_mpcs(sub: Subdivision, cfg: ProjectedConfig,
               mpcp_report: ConditionReport) -> ConditionReport:
    """Boundary-relevant cones (block supports omitting two indices per block)
    must be unimodular with respect to M; ``mpcp_report`` is check_mpcp's.
    A cone grows as a sorted generator tuple with the OR of their supports,
    on an explicit stack; a walk past MPCS_CONE_LIMIT cones is refused."""
    m_basis = lattice_m_basis(cfg)
    m_coords = {}
    for pid in cfg.ids[1:]:
        sol = solve_int(m_basis, cfg.coords[pid])
        if sol is None:
            raise MLatticeCheckFailed(f"Xi_0 projection {pid} escaped M")
        m_coords[pid] = tuple(sol)
    room = [(bm, len(blk) - 2) for bm, blk in zip(_block_masks(cfg.vt), cfg.vt.blocks)]
    checked = set()
    bad = []
    for cell in sub.cells:
        pool = sorted(pid for pid in cell if pid != ORIGIN)
        stack = [((), 0, 0)]  # (generators, OR of their supports, first pool index to add)
        while stack:
            gens, union, start = stack.pop()
            for k in range(start, len(pool)):
                # boundary relevance (two omitted indices per block) is monotone
                # decreasing as generators are added, so failing branches are pruned
                hit = union | cfg.nonzero[pool[k]]
                if any((hit & bm).bit_count() > cap for bm, cap in room):
                    continue
                cone = gens + (pool[k],)
                if cone not in checked:
                    if len(checked) == MPCS_CONE_LIMIT:
                        raise IndexSetTooLarge(f"more than {MPCS_CONE_LIMIT} "
                                               "boundary-relevant cones to check")
                    checked.add(cone)
                    diag = smith_normal_form([m_coords[g] for g in cone])
                    if any(d != 1 for d in diag) or len(diag) != len(cone):
                        bad.append(cone)
                stack.append((cone, hit, k + 1))
    failures = mpcp_report.failures + tuple(
        (cone, "boundary-relevant cone not unimodular") for cone in sorted(bad))
    return mpcp_report._replace(mpcs=mpcp_report.mpcp and not bad, failures=failures)


class LiftedCell(NamedTuple):
    cell: tuple[str, ...]
    vertices: tuple[tuple[int, ...], ...]


def _in_lifted_hull(cfg, rows, y):
    """lambda >= 0 and rho >= 0 of ``lift_subdivision``, W by vertex id in ``rows``."""
    x = (*cfg.project(y), 1)
    lam = {pid: sum(map(mul, w, x)) for pid, w in rows.items()}
    d = sum(lam.values())
    return min(lam.values()) >= 0 and all(
        d * y[i] >= sum(t * cfg.lifts[pid][i] for pid, t in lam.items())
        for i in map(max, cfg.vt.blocks))


def lift_subdivision(sub: Subdivision, cfg: ProjectedConfig) -> tuple[LiftedCell, ...]:
    """Lift each cell to the degree-one slice and certify the lift.

    Certificates per cell, in this order: the pulled-back functional supports
    the lifted configuration exactly on the lifted vertex set; the cell is a
    simplex (its lifted vertices, the block vectors e_{I_j} for the origin,
    are then independent); every degree-one lattice point projecting into it
    lies in the lifted hull.  The first failure raises CellLiftFailure: for
    an MPCP subdivision, the only kind the CLI lifts, that is a bug.

    The hull test reads the pivot's W (``sub.simplices``).  For degree-one y,
    let lambda = W(pi(y), 1), D = sum lambda = W_v(v, 1) and R = D*y - sum
    lambda_v lift(v), the origin's lift 0.  R projects to 0, so it is
    constant on each block, R = sum rho_j e_{I_j}, and <q, R> = d*lambda_origin
    as lifts and block vectors have degree d.  y = sum mu_v lift(v) + sum nu_j
    e_{I_j} (mu, nu >= 0 summing to 1, no nu off the origin) forces mu =
    lambda/D, as pi(y) fixes mu and the origin's weight, and then nu = rho/D.
    So y is in the hull iff lambda >= 0 and rho >= 0, rho_j read at max I_j.
    A point is tested against the cells whose functional attains the maximum
    of all (the lower envelope) at its projection: given the support
    certificates, these are the cells it projects into, as each d_i e_i lies
    in Xi_0.  Everything is compared in integers: each support (A, C, e) and
    the heights are scaled to the lcm of the e's, which each carry the
    heights' denominator.
    """
    vt = cfg.vt
    supports = [sub.supports[cell] for cell in sub.cells]
    den = lcm(*(e for _, _, e in supports))  # each e holds the heights' denominator
    funcs = [(tuple(x * (den // e) for x in a), c * (den // e)) for a, c, e in supports]
    # every functional at every Xi point: its value at the projection is the
    # pulled-back functional's value at the lifted point
    values = [[sum(map(mul, a, px)) + c for a, c in funcs]
              for px in map(cfg.project, vt.xi)]
    at = dict(zip(vt.xi, values))
    # (id, values, height); the block vectors, which stand for the origin,
    # project to 0, where each functional is its constant
    lifted_config = [(pid, at[cfg.lifts[pid]], int(sub.weights[pid] * den))
                     for pid in cfg.ids if pid != ORIGIN]
    lifted_config.append((ORIGIN, [c for _, c in funcs], 0))
    tops = [max(vals) for vals in values]  # the lower envelope at each point
    out = []
    for k, cell in enumerate(sub.cells):
        in_cell = set(cell)
        for pid, vals, h in lifted_config:
            if vals[k] > h or (vals[k] == h) != (pid in in_cell):
                raise CellLiftFailure(cell, "pulled-back functional does not "
                                            "support the lifted configuration")
        if (rows := sub.simplices.get(cell)) is None:
            raise CellLiftFailure(cell, "cell is not a simplex")
        for y, vals, top in zip(vt.xi, values, tops):
            if vals[k] == top and not _in_lifted_hull(cfg, rows, y):
                raise CellLiftFailure(
                    cell, "a degree-one lattice point escapes the lifted hull")
        vertices = [cfg.lifts[pid] for pid in cell if pid != ORIGIN]
        if ORIGIN in in_cell:
            vertices.extend(map(vt.block_vector, range(vt.r)))
        out.append(LiftedCell(cell=cell, vertices=tuple(vertices)))
    return tuple(out)


class SingularityCertificate(NamedTuple):
    certified: bool
    links: tuple  # (name, ok, detail)
    failing_link: str | None

    def to_json(self):
        return {
            "certified": self.certified,
            "failing_link": self.failing_link,
            "links": [[name, ok, detail] for name, ok, detail in self.links],
        }


def certify_isolated_singularity(sub: Subdivision, cfg: ProjectedConfig,
                                 mpcp: ConditionReport) -> SingularityCertificate:
    """Run the full chain on ``sub``: MPCP, lifted triangulation, coordinate slices.

    ``mpcp`` is the check_mpcp report of ``sub``.  The restriction of a
    triangulation by nonnegative lattice simplices to a coordinate subspace
    is the subcomplex of faces supported there, so the last link only
    records the nonnegativity of the lifted vertices; a failed earlier link
    is reported as the failing link with a negative certificate.
    """
    links = [("mpcp", mpcp.mpcp,
              f"{len(sub.cells)} cells; failures: {len(mpcp.failures)}")]
    if not mpcp.mpcp:
        return SingularityCertificate(False, tuple(links), "mpcp")
    try:
        lifted = lift_subdivision(sub, cfg)
        links.append(("lifted_triangulation", True,
                      f"{len(lifted)} simplices certified"))
    except CellLiftFailure as exc:
        links.append(("lifted_triangulation", False, str(exc)))
        return SingularityCertificate(False, tuple(links), "lifted_triangulation")
    nonneg = all(all(x >= 0 for x in v)
                 for cell in lifted for v in cell.vertices)
    links.append(("coordinate_slices", nonneg,
                  "restrictions to coordinate subspaces are face subcomplexes"))
    if not nonneg:
        return SingularityCertificate(False, tuple(links), "coordinate_slices")
    return SingularityCertificate(True, tuple(links), None)
