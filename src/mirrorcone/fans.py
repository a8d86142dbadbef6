"""Regular subdivisions induced by the weight vector, and the fan conditions.

The projected configuration consists of the images of the distinguished
lattice points under the per-block coordinate projection, plus the origin.
A weight vector lifts the configuration; the cells of the subdivision are the
projections of the lower faces of the lifted point set, found by pivoting
from an initial lowest face across ridges.  All arithmetic is exact rational;
each cell carries the affine functional certifying it (equality on the cell,
strictly below the heights elsewhere).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
import random

from . import CertificateFailure
from .intlat import (
    hnf_canonicalize,
    lcm_list,
    matrix_rank,
    nullspace,
    smith_normal_form,
    solve_int,
    solve_linear,
)
from .toricdata import ValidatedToricData, resolve_weight

ORIGIN = "origin"


class FanError(ValueError):
    pass


class DegenerateConfig(FanError):
    pass


class CellLiftFailure(FanError, CertificateFailure):
    def __init__(self, cell, reason):
        super().__init__(f"cell {tuple(sorted(cell))}: {reason}")
        self.cell = tuple(sorted(cell))
        self.reason = reason


def point_id(p):
    return ",".join(str(x) for x in p)


@dataclass(frozen=True)
class ProjectedConfig:
    dim: int
    ids: tuple[str, ...]                 # origin first, then Xi_0 in lex order
    coords: dict                         # id -> tuple of ints (projected)
    lifts: dict                          # id -> canonical lift in Z^I
    kept: tuple[int, ...]                # ambient indices kept by the projection
    dropped: tuple[int, ...]             # per block, the dropped index
    vt: ValidatedToricData

    def project(self, x):
        out = []
        for k in self.kept:
            j = self.vt.block_of(k)
            out.append(x[k] - x[self.dropped[j]])
        return tuple(out)

    def pullback_functional(self, a, c):
        """Coefficients of (a, c) composed with the projection, on R^I."""
        n = self.vt.n
        coeff = [Fraction(0)] * n
        for pos, k in enumerate(self.kept):
            coeff[k] += a[pos]
            j = self.vt.block_of(k)
            coeff[self.dropped[j]] -= a[pos]
        return tuple(coeff), Fraction(c)


def project_config(vt: ValidatedToricData) -> ProjectedConfig:
    dropped = tuple(max(blk) for blk in vt.blocks)
    kept = tuple(i for i in range(vt.n) if i not in set(dropped))
    coords = {}
    lifts = {}
    ids = [ORIGIN]
    coords[ORIGIN] = (0,) * len(kept)
    lifts[ORIGIN] = (0,) * vt.n
    cfg = ProjectedConfig(dim=len(kept), ids=(), coords=coords, lifts=lifts,
                          kept=kept, dropped=dropped, vt=vt)
    for p in vt.xi0:
        pid = point_id(p)
        ids.append(pid)
        coords[pid] = cfg.project(p)
        for blk in vt.blocks:
            if min(p[i] for i in blk) != 0:
                raise CertificateFailure(f"Xi_0 point {p} without block zero")
        lifts[pid] = p
    return replace(cfg, ids=tuple(ids))


def resolve_weights(cfg: ProjectedConfig, weights) -> dict:
    """Heights keyed by point id; the origin is pinned at 0."""
    out = {ORIGIN: Fraction(0)}
    for pid in cfg.ids[1:]:
        out[pid] = resolve_weight(weights, cfg.lifts[pid])
    return out


@dataclass(frozen=True)
class Subdivision:
    cells: tuple[tuple[str, ...], ...]   # sorted id tuples, sorted overall
    supports: dict                       # cell tuple -> (a: tuple[Fraction], c: Fraction)
    weights: dict                        # id -> Fraction
    perturbed: bool = False

    def is_triangulation(self, dim):
        return all(len(c) == dim + 1 for c in self.cells)


def _affine_rank(points):
    if not points:
        return -1
    base = points[0]
    dirs = [[x - y for x, y in zip(p, base)] for p in points[1:]]
    return matrix_rank(dirs)


def _facets(pts, dim):
    """Facets of conv(pts), full-dimensional: contact index set -> (normal, offset).

    The normal is integral and points outward (pts lie where
    <normal, x> <= offset).  The scan costs C(len(pts), dim) candidate
    subsets, each one nullspace unless it lies inside a facet already found;
    on the large cells of degenerate weights this dominates the subdivision.
    """
    if dim == 0:
        return {}
    facets = {}
    for sub in combinations(range(len(pts)), dim):
        if any(set(sub) <= contact for contact in facets):
            continue
        base = pts[sub[0]]
        dirs = [tuple(x - y for x, y in zip(pts[i], base)) for i in sub[1:]]
        basis = nullspace(dirs, dim)
        if len(basis) != 1:
            continue
        den = lcm_list(x.denominator for x in basis[0])
        g = tuple(x.numerator * (den // x.denominator) for x in basis[0])
        g0 = sum(gi * xi for gi, xi in zip(g, base))
        vals = [sum(gi * xi for gi, xi in zip(g, p)) for p in pts]
        if all(v <= g0 for v in vals):
            pass
        elif all(v >= g0 for v in vals):
            g = tuple(-x for x in g)
            g0 = -g0
            vals = [-v for v in vals]
        else:
            continue
        contact = frozenset(i for i, v in enumerate(vals) if v == g0)
        sub_pts = [pts[i] for i in contact]
        if _affine_rank(sub_pts) == dim - 1:
            facets.setdefault(contact, (g, g0))
    return facets


def _lower_hull_cells(points, heights):
    """Maximal cells of the regular subdivision of a full-dimensional config.

    ``points``: list of coordinate tuples; ``heights``: parallel list of
    Fractions.  Returns a list of (frozenset of indices, (a, c)) where the
    affine functional a.x + c equals the height exactly on the cell and is
    strictly below it elsewhere.
    """
    npts = len(points)
    dim = len(points[0])
    if _affine_rank(points) != dim:
        raise DegenerateConfig("configuration does not span its ambient space")

    def rotate(a, c, g, g0):
        """Add t*(g.x - g0) to a.x + c, with the least t > 0 at which the
        functional meets a point where g.x > g0.

        Returns (a, c, contact) of the rotated functional, with contact None
        when it is not supporting; None when no point has g.x > g0.
        """
        slack = []
        t = None
        for p, h in zip(points, heights):
            s = h - (sum(ai * xi for ai, xi in zip(a, p)) + c)
            b = sum(gi * xi for gi, xi in zip(g, p)) - g0
            slack.append((s, b))
            if b > 0 and (t is None or s / b < t):
                t = s / b
        if t is None:
            return None
        a = tuple(ai + t * gi for ai, gi in zip(a, g))
        c = c - t * g0
        contact = set()
        for i, (s, b) in enumerate(slack):
            s -= t * b
            if s < 0:
                return a, c, None
            if s == 0:
                contact.add(i)
        return a, c, frozenset(contact)

    # the lowest points, then rotations until the contact set spans
    a = (Fraction(0),) * dim
    c = min(heights)
    first = frozenset(i for i in range(npts) if heights[i] == c)
    while True:
        cpts = [points[i] for i in sorted(first)]
        if _affine_rank(cpts) == dim:
            break
        base = cpts[0]
        dirs = [tuple(x - y for x, y in zip(p, base)) for p in cpts[1:]]
        g = nullspace(dirs, dim)[0]
        g0 = sum(gi * yi for gi, yi in zip(g, base))
        a, c, first = (rotate(a, c, g, g0)
                       or rotate(a, c, tuple(-x for x in g), -g0))
        if first is None:
            raise CertificateFailure("rotated functional is not supporting")

    # pivot across each ridge, around its outward normal
    cells = {first: (a, c)}
    queue = [first]
    while queue:
        cell = queue.pop()
        a, c = cells[cell]
        idx = sorted(cell)
        for facet, (g, g0) in _facets([points[i] for i in idx], dim).items():
            res = rotate(a, c, g, g0)
            if res is None:
                continue
            a2, c2, contact = res
            if contact is None or not contact >= {idx[i] for i in facet}:
                raise CertificateFailure("neighbor functional lost the ridge")
            if contact not in cells:
                cells[contact] = (a2, c2)
                queue.append(contact)
    return list(cells.items())


def regular_subdivision(cfg: ProjectedConfig, weights, perturb_seed=None) -> Subdivision:
    """The regular subdivision of the configuration induced by the weights.

    With ``perturb_seed`` given, non-simplicial cells are refined by the
    infinitesimal lexicographic perturbation (indicator heights applied point
    by point, in seed-shuffled id order); supports of refined cells are those
    of their parent cell and the result is flagged ``perturbed``.
    """
    heights_by_id = resolve_weights(cfg, weights)
    ids = list(cfg.ids)
    points = [cfg.coords[pid] for pid in ids]
    heights = [heights_by_id[pid] for pid in ids]
    raw = _lower_hull_cells(points, heights)
    cells = {tuple(sorted(ids[i] for i in cell)): func for cell, func in raw}
    if perturb_seed is not None:
        cells = _perturb(cfg, cells, perturb_seed)
    ordered = tuple(sorted(cells))
    return Subdivision(cells=ordered, supports={k: cells[k] for k in ordered},
                       weights=heights_by_id, perturbed=perturb_seed is not None)


def _perturb(cfg, cells, seed):
    """Refine non-simplicial cells point by point in seed-shuffled id order."""
    order = list(cfg.ids)
    random.Random(seed).shuffle(order)
    for q in order:
        refined = {}
        for key, func in cells.items():
            if len(key) == cfg.dim + 1 or q not in key:
                refined[key] = func
                continue
            sub_ids = list(key)
            sub_pts = [cfg.coords[pid] for pid in sub_ids]
            sub_h = [Fraction(1 if pid == q else 0) for pid in sub_ids]
            for sub_cell, _ in _lower_hull_cells(sub_pts, sub_h):
                refined[tuple(sorted(sub_ids[i] for i in sub_cell))] = func
        cells = refined
    if any(len(k) != cfg.dim + 1 for k in cells):
        raise FanError("lexicographic perturbation did not reach a triangulation")
    return cells


@dataclass(frozen=True)
class ConditionReport:
    mpcp: bool
    mpcs: bool | None
    is_triangulation: bool
    refines_product_fan: bool
    rays_are_xi0: bool
    failures: tuple

    def to_json(self):
        return {
            "mpcp": self.mpcp,
            "mpcs": self.mpcs,
            "is_triangulation": self.is_triangulation,
            "refines_product_fan": self.refines_product_fan,
            "rays_are_xi0": self.rays_are_xi0,
            "failures": [[list(cell), reason] for cell, reason in self.failures],
        }


def _cell_block_supports(cfg, cell):
    """Per block, the set of indices hit by the canonical lifts of the cell."""
    vt = cfg.vt
    out = []
    for blk in vt.blocks:
        hit = set()
        for pid in cell:
            if pid == ORIGIN:
                continue
            lift = cfg.lifts[pid]
            hit.update(i for i in blk if lift[i] != 0)
        out.append(hit)
    return out


def check_mpcp(sub: Subdivision, cfg: ProjectedConfig) -> ConditionReport:
    vt = cfg.vt
    failures = []
    is_tri = True
    for cell in sub.cells:
        if len(cell) != cfg.dim + 1:
            is_tri = False
            failures.append((cell, "cell is not a simplex"))
    used = set().union(*sub.cells)
    missing = [pid for pid in cfg.ids if pid != ORIGIN and pid not in used]
    rays_ok = not missing
    for pid in missing:
        failures.append(((pid,), "point is not a vertex of the subdivision"))
    refines = True
    for cell in sub.cells:
        supports = _cell_block_supports(cfg, cell)
        for j, hit in enumerate(supports):
            if len(hit) >= len(vt.blocks[j]):
                refines = False
                failures.append(
                    (cell, f"block {j} support does not omit an index"))
    mpcp = is_tri and rays_ok and refines
    return ConditionReport(mpcp=mpcp, mpcs=None, is_triangulation=is_tri,
                           refines_product_fan=refines, rays_are_xi0=rays_ok,
                           failures=tuple(failures))


def lattice_m_basis(cfg: ProjectedConfig):
    """Basis of M = image of M_bar under the projection, in kept coordinates."""
    rows = [cfg.project(row) for row in cfg.vt.m_bar.basis]
    return hnf_canonicalize(rows, cfg.dim)


def check_mpcs(sub: Subdivision, cfg: ProjectedConfig,
               mpcp_report: ConditionReport | None = None) -> ConditionReport:
    """Boundary-relevant cones (block supports omitting two indices per block)
    must be unimodular with respect to the lattice M."""
    if mpcp_report is None:
        mpcp_report = check_mpcp(sub, cfg)
    vt = cfg.vt
    m_basis = lattice_m_basis(cfg)
    failures = list(mpcp_report.failures)
    checked = set()
    bad = []

    def check_gens(gens):
        coords = []
        for pid in gens:
            sol = solve_int(m_basis, cfg.coords[pid])
            if sol is None:
                raise CertificateFailure(f"Xi_0 projection {pid} escaped M")
            coords.append(tuple(sol))
        diag = smith_normal_form(coords)
        if any(d != 1 for d in diag) or len(diag) != len(gens):
            bad.append(tuple(sorted(gens)))

    def grow(gens, supports, pool):
        # boundary relevance (two omitted indices per block) is monotone
        # decreasing as generators are added, so failing branches are pruned
        if gens:
            key = frozenset(gens)
            if key not in checked:
                checked.add(key)
                check_gens(gens)
        for k, pid in enumerate(pool):
            lift = cfg.lifts[pid]
            new_supports = []
            ok = True
            for j, blk in enumerate(vt.blocks):
                hit = supports[j] | {i for i in blk if lift[i] != 0}
                if len(blk) - len(hit) < 2:
                    ok = False
                    break
                new_supports.append(hit)
            if ok:
                grow(gens + [pid], new_supports, pool[k + 1:])

    for cell in sub.cells:
        gens_all = sorted(pid for pid in cell if pid != ORIGIN)
        grow([], [set() for _ in vt.blocks], gens_all)
    for gens in sorted(set(bad)):
        failures.append((gens, "boundary-relevant cone not unimodular"))
    return replace(mpcp_report, mpcs=mpcp_report.mpcp and not bad,
                   failures=tuple(failures))


@dataclass(frozen=True)
class LiftedCell:
    cell: tuple[str, ...]
    vertices: tuple[tuple[int, ...], ...]


def _barycentric_membership(vertices, x):
    """x in conv(vertices) for affinely independent vertices, exactly."""
    rows = [[v[i] for v in vertices] for i in range(len(x))]
    rows.append([1] * len(vertices))
    sol = solve_linear(rows, list(x) + [1])
    if sol is None:
        return False
    # underdetermined systems cannot occur: the vertices are affinely independent
    return all(t >= 0 for t in sol)


def lift_subdivision(sub: Subdivision, cfg: ProjectedConfig) -> tuple[LiftedCell, ...]:
    """Lift each cell to the degree-one slice and certify the lift.

    Certificates per cell, in this order: the pulled-back functional supports
    the lifted configuration exactly on the lifted vertex set; the vertex set
    is affinely independent; every degree-one lattice point projecting into
    the cell lies in the convex hull of the lifted vertices.  The first failed
    certificate raises CellLiftFailure (it falsifies the lifting lemma for
    this input, which for an MPCP subdivision means a bug).
    """
    vt = cfg.vt
    block_vectors = [vt.block_vector(j) for j in range(vt.r)]
    # (id, lifted point, height); the block vectors stand for the origin
    lifted_config = [(pid, cfg.lifts[pid], sub.weights[pid])
                     for pid in cfg.ids if pid != ORIGIN]
    lifted_config += [(ORIGIN, bv, 0) for bv in block_vectors]
    out = []
    for cell in sub.cells:
        coeff, const = cfg.pullback_functional(*sub.supports[cell])
        in_cell = set(cell)
        for pid, x, h in lifted_config:
            val = sum(ci * xi for ci, xi in zip(coeff, x)) + const
            if val > h or (val == h) != (pid in in_cell):
                raise CellLiftFailure(cell, "pulled-back functional does not "
                                            "support the lifted configuration")
        vertices = [cfg.lifts[pid] for pid in cell if pid != ORIGIN]
        if ORIGIN in in_cell:
            vertices.extend(block_vectors)
        if _affine_rank(vertices) != len(vertices) - 1:
            raise CellLiftFailure(cell, "lifted vertex set is affinely dependent")
        cell_pts = [cfg.coords[pid] for pid in cell]
        for xi_pt in vt.xi:
            if (_barycentric_membership(cell_pts, cfg.project(xi_pt))
                    and not _barycentric_membership(vertices, xi_pt)):
                raise CellLiftFailure(
                    cell, "a degree-one lattice point escapes the lifted hull")
        out.append(LiftedCell(cell=cell, vertices=tuple(vertices)))
    return tuple(out)


@dataclass(frozen=True)
class SingularityCertificate:
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
