import ast
import copy
import hashlib
import json
import math
import pathlib
import random
import subprocess
import sys
import types
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mirrorcone import fans
from mirrorcone.cli import main, parse_config
from mirrorcone.fans import (
    BlockZeroCheckFailed,
    CellLiftFailure,
    DegenerateConfig,
    MLatticeCheckFailed,
    ORIGIN,
    _lower_hull_cells,
    certify_isolated_singularity,
    check_mpcp,
    check_mpcs,
    lift_subdivision,
    project_config,
    regular_subdivision,
)
from mirrorcone.fixtures import fixture
from mirrorcone.intlat import hnf_canonicalize, solve_int
from mirrorcone.toricdata import IndexSetTooLarge, validate
from oracles import (
    _barycentric_membership,
    _facets_by_scan,
    _rank,
    _solve,
    mpcs_by_subsets,
    normalized_volume,
    subdivision_by_hyperplane_scan,
    subdivision_volume,
)
from tests_support import (
    MIXED_BLOCK_CONFIGS,
    analyze_fixture,
    cubic_block_input,
    generic_weights,
    quartic_mpcp_weights,
    reweighted,
)

TESTS = pathlib.Path(__file__).resolve().parent


def cells_as_index_sets(cfg, sub):
    ids = list(cfg.ids)
    pos = {pid: i for i, pid in enumerate(ids)}
    return {frozenset(pos[p] for p in cell) for cell in sub.cells}


def oracle_cells(cfg):
    points = [cfg.coords[pid] for pid in cfg.ids]
    return subdivision_by_hyperplane_scan(points, [0, *cfg.vt.heights])


def random_rational(rng):
    return Fraction(rng.randrange(1, 40), rng.randrange(1, 12))


def test_project_config_elliptic_triangle():
    vt = fixture("elliptic")
    cfg = project_config(vt)
    assert cfg.dim == 2
    pts = {cfg.coords[pid] for pid in cfg.ids if pid != ORIGIN}
    assert pts == {(3, 0), (0, 3), (-3, -3)}
    assert cfg.coords[ORIGIN] == (0, 0)


def test_project_config_quartic_count():
    cfg = project_config(fixture("quartic"))
    assert cfg.dim == 3
    assert len(cfg.ids) == 23  # origin plus the 22 distinguished points


def test_project_config_product_of_triangles():
    # two blocks of size three whose only distinguished points are 3*e_i:
    # the projected configuration is the vertex set of a product of triangles
    from mirrorcone.toricdata import LatticeSpec, ToricInput
    inp = ToricInput(
        blocks=((0, 1, 2), (3, 4, 5)),
        degrees=(3,) * 6,
        lattice=LatticeSpec(congruences=(
            ((1, 1, 1, 0, 0, 0), 3), ((0, 0, 0, 1, 1, 1), 3))),
    )
    vt = validate(inp)
    assert set(vt.xi0) == {tuple(3 if k == i else 0 for k in range(6))
                           for i in range(6)}
    cfg = project_config(vt)
    triangle = {(3, 0), (0, 3), (-3, -3)}
    block1 = {cfg.coords[pid][:2] for pid in cfg.ids
              if pid != ORIGIN and cfg.lifts[pid][0:3] != (0, 0, 0)}
    block2 = {cfg.coords[pid][2:] for pid in cfg.ids
              if pid != ORIGIN and cfg.lifts[pid][3:6] != (0, 0, 0)}
    assert block1 == triangle and block2 == triangle


def test_elliptic_any_weights_three_triangles():
    vt = fixture("elliptic")
    rng = random.Random(2024)
    for _ in range(5):
        weights = {p: random_rational(rng) for p in vt.xi0}
        sub = regular_subdivision(project_config(reweighted(vt, weights)))
        assert len(sub.cells) == 3
        assert all(ORIGIN in cell and len(cell) == 3 for cell in sub.cells)


def test_elliptic_matches_oracle_random_weights():
    vt = fixture("elliptic")
    rng = random.Random(7)
    for _ in range(10):
        cfg = project_config(reweighted(vt, {p: random_rational(rng) for p in vt.xi0}))
        sub = regular_subdivision(cfg)
        assert cells_as_index_sets(cfg, sub) == oracle_cells(cfg)


def test_quartic_uniform_matches_oracle():
    vt = fixture("quartic")
    cfg = project_config(vt)
    sub = regular_subdivision(cfg)
    # uniform weights give the coarse star over the four facets
    assert len(sub.cells) == 4
    assert all(ORIGIN in cell and len(cell) == 13 for cell in sub.cells)
    assert cells_as_index_sets(cfg, sub) == oracle_cells(cfg)
    report = check_mpcp(sub, cfg)
    assert not report.is_triangulation
    assert not report.mpcp
    assert report.rays_are_xi0 and report.refines_product_fan


def test_quartic_mpcp_weights_full_chain():
    vt = fixture("quartic")
    cfg = project_config(reweighted(vt, quartic_mpcp_weights(vt)))
    sub = regular_subdivision(cfg)
    assert len(sub.cells) == 40
    report = check_mpcp(sub, cfg)
    assert report.mpcp and report.is_triangulation
    full = check_mpcs(sub, cfg, report)
    assert full.mpcs == report.mpcp  # dim 3 <= 4
    lift_subdivision(sub, cfg)
    cert = certify_isolated_singularity(sub, cfg, report)
    assert cert.certified and cert.failing_link is None


def test_quartic_mpcp_weights_match_oracle():
    vt = fixture("quartic")
    cfg = project_config(reweighted(vt, quartic_mpcp_weights(vt)))
    sub = regular_subdivision(cfg)
    assert cells_as_index_sets(cfg, sub) == oracle_cells(cfg)


def test_volume_conservation():
    vt = fixture("quartic")
    cfg = project_config(vt)
    points = [cfg.coords[pid] for pid in cfg.ids]
    hull_volume = normalized_volume(points)
    for weights in (Fraction(1), quartic_mpcp_weights(vt)):
        sub = regular_subdivision(project_config(reweighted(vt, weights)))
        assert subdivision_volume(sub, cfg) == hull_volume


def test_scale_invariance():
    vt = fixture("quartic")
    weights = quartic_mpcp_weights(vt)
    scaled = {p: Fraction(7, 3) * w for p, w in weights.items()}
    sub1 = regular_subdivision(project_config(reweighted(vt, weights)))
    sub2 = regular_subdivision(project_config(reweighted(vt, scaled)))
    assert sub1.cells == sub2.cells


def test_degenerate_edge_weights_reported():
    vt = fixture("quartic")
    weights = quartic_mpcp_weights(vt)
    # tie the five collinear points of the edge p_3 = p_4 = 0
    for p in vt.xi0:
        if p[2] == 0 and p[3] == 0:
            weights[p] = Fraction(1)
    cfg = project_config(reweighted(vt, weights))
    sub = regular_subdivision(cfg)
    report = check_mpcp(sub, cfg)
    assert not report.is_triangulation
    assert any("not a simplex" in reason for _, reason in report.failures)
    cert = certify_isolated_singularity(sub, cfg, report)
    assert not cert.certified
    assert cert.failing_link == "mpcp"


def test_perturbation_refines_to_triangulation():
    vt = fixture("quartic")
    cfg = project_config(vt)
    sub = regular_subdivision(cfg, perturb_seed=11)
    assert sub.perturbed
    assert check_mpcp(sub, cfg).is_triangulation
    # the refinement still covers the hull
    points = [cfg.coords[pid] for pid in cfg.ids]
    assert subdivision_volume(sub, cfg) == normalized_volume(points)


def non_unimodular_cones(report):
    return [cone for cone, reason in report.failures
            if reason == "boundary-relevant cone not unimodular"]


def test_zmanifold_mpcs_equals_mpcp_uniform():
    for name, count in (("quartic", 132), ("cubic-fourfold", 72), ("z-manifold", 54)):
        cfg = project_config(fixture(name))
        sub = regular_subdivision(cfg)
        report = check_mpcs(sub, cfg, check_mpcp(sub, cfg))
        assert report.mpcs == report.mpcp
        assert len(non_unimodular_cones(report)) == count


@pytest.mark.parametrize("name,weights,perturb", [
    ("quartic", "uniform", None),
    ("cubic-fourfold", "uniform", None),
    ("quartic", 1, None),
    ("quartic", 2, None),
    ("cubic-fourfold", 1, None),
    ("cubic-fourfold", 2, None),
    ("quartic", "uniform", 5),
])
def test_mpcs_matches_the_subset_oracle(name, weights, perturb):
    vt = fixture(name)
    if weights != "uniform":
        vt = reweighted(vt, generic_weights(vt, weights))
    cfg = project_config(vt)
    sub = regular_subdivision(cfg, perturb_seed=perturb)
    report = check_mpcs(sub, cfg, check_mpcp(sub, cfg))
    expected = mpcs_by_subsets(sub.cells, ORIGIN, cfg.lifts, cfg.coords, vt.blocks,
                               fans.lattice_m_basis(cfg).basis)
    assert non_unimodular_cones(report) == expected
    assert report.mpcs == (report.mpcp and not expected)


def test_mpcs_solves_each_point_once(monkeypatch):
    cfg = project_config(fixture("quartic"))
    sub = regular_subdivision(cfg)
    mpcp = check_mpcp(sub, cfg)
    calls = []

    def counting_solve(basis, v):
        calls.append(v)
        return solve_int(basis, v)

    monkeypatch.setattr(fans, "solve_int", counting_solve)
    check_mpcs(sub, cfg, mpcp)
    assert len(calls) == len(cfg.vt.xi0)


@pytest.mark.parametrize("name,draws", [("quartic", 4), ("cubic-fourfold", 2)])
def test_mpcp_implies_lift_certificates_random_weights(name, draws):
    # conditional property: whenever a random weight vector is MPCP, every
    # lifted cell passes its three certificates; mpcs tracks mpcp (dim <= 4)
    vt = fixture(name)
    rng = random.Random(hash(name) % 10**6)
    for _ in range(draws):
        weights = {p: Fraction(rng.randrange(1, 50), rng.randrange(1, 16))
                   for p in vt.xi0}
        cfg = project_config(reweighted(vt, weights))
        sub = regular_subdivision(cfg)
        report = check_mpcp(sub, cfg)
        full = check_mpcs(sub, cfg, report)
        assert full.mpcs == (report.mpcp and full.mpcs)
        if report.mpcp:
            lift_subdivision(sub, cfg)
            assert full.mpcs == report.mpcp


def test_project_config_rejects_an_xi0_point_with_full_block_support():
    vt = fixture("quartic")
    tampered = copy.copy(vt)
    tampered.xi0 = vt.xi0 + ((1, 1, 1, 1),)
    with pytest.raises(BlockZeroCheckFailed,
                       match=r"^Xi_0 point \(1, 1, 1, 1\) without block zero$"):
        project_config(tampered)


def test_check_mpcs_rejects_a_projection_that_escapes_m():
    # M_bar replaced by 2 M_bar: the projection of 0,0,0,4 is not in its image
    cfg, sub = quartic_mpcp_chain()
    vt = copy.copy(cfg.vt)
    vt.m_bar = hnf_canonicalize([[2 * x for x in row] for row in vt.m_bar.basis], vt.n)
    tampered = cfg._replace(vt=vt)
    with pytest.raises(MLatticeCheckFailed, match=r"^Xi_0 projection 0,0,0,4 escaped M$"):
        check_mpcs(sub, tampered, check_mpcp(sub, tampered))


def test_lift_vertices_elliptic():
    cfg = project_config(reweighted(fixture("elliptic"), Fraction(2)))
    sub = regular_subdivision(cfg)
    for cell in lift_subdivision(sub, cfg):
        assert (1, 1, 1) in cell.vertices
        assert len(cell.vertices) == 3


def quartic_mpcp_chain():
    vt = fixture("quartic")
    cfg = project_config(reweighted(vt, quartic_mpcp_weights(vt)))
    return cfg, regular_subdivision(cfg)


def test_lift_rejects_a_functional_that_does_not_support():
    cfg, sub = quartic_mpcp_chain()
    cell = sub.cells[5]
    a, c, e = sub.supports[cell]
    tampered = sub._replace(supports={**sub.supports, cell: (a, c + e, e)})
    with pytest.raises(CellLiftFailure) as exc:
        lift_subdivision(tampered, cfg)
    assert exc.value.cell == cell
    assert exc.value.reason == ("pulled-back functional does not support "
                                "the lifted configuration")
    cert = certify_isolated_singularity(tampered, cfg, check_mpcp(tampered, cfg))
    assert cert.certified is False
    assert cert.failing_link == "lifted_triangulation"


def test_lift_rejects_the_coarse_quartic_star():
    cfg = project_config(fixture("quartic"))
    sub = regular_subdivision(cfg)
    with pytest.raises(CellLiftFailure) as exc:
        lift_subdivision(sub, cfg)
    assert len(exc.value.cell) == 13
    assert not sub.simplices
    assert exc.value.reason == "cell is not a simplex"


def cubic_fourfold_generic_chain():
    vt = fixture("cubic-fourfold")
    cfg = project_config(reweighted(vt, generic_weights(vt, 1)))
    return cfg, regular_subdivision(cfg)


def test_lift_rejects_a_point_outside_the_lifted_hull():
    # lambda >= 0: the first cell's W rows negated, so each of its vertices
    # reads lambda = -D e_v
    cfg, sub = quartic_mpcp_chain()
    cell = sub.cells[0]
    negated = {pid: tuple(-t for t in w) for pid, w in sub.simplices[cell].items()}
    tampered = sub._replace(simplices={**sub.simplices, cell: negated})
    with pytest.raises(CellLiftFailure) as exc:
        lift_subdivision(tampered, cfg)
    assert exc.value.cell == cell
    assert exc.value.reason == "a degree-one lattice point escapes the lifted hull"


def test_lift_rejects_a_point_off_the_lifted_hull_in_a_block_direction():
    # rho >= 0: a degree-one point with the projection of a vertex v, shifted
    # by e_{I_0} - e_{I_1}, reads lambda = D e_v >= 0 but rho_1 = -D; the
    # first cell holding v is the first whose envelope it meets
    cfg, sub = cubic_fourfold_generic_chain()
    v = cfg.ids[1]
    shift = [a - b for a, b in zip(cfg.vt.block_vector(0), cfg.vt.block_vector(1))]
    y = tuple(a + b for a, b in zip(cfg.lifts[v], shift))
    vt = copy.copy(cfg.vt)
    vt.xi = cfg.vt.xi + (y,)
    first = next(cell for cell in sub.cells if v in cell)
    x = (*cfg.project(y), 1)
    lam = {pid: sum(map(math.prod, zip(w, x))) for pid, w in sub.simplices[first].items()}
    assert lam[v] == sum(lam.values()) > 0 and min(lam.values()) == 0
    assert not fans._in_lifted_hull(cfg, sub.simplices[first], y)
    with pytest.raises(CellLiftFailure) as exc:
        lift_subdivision(sub, cfg._replace(vt=vt))
    assert exc.value.cell == first
    assert exc.value.reason == "a degree-one lattice point escapes the lifted hull"


def _projects_into(cfg, cell, xi_pt):
    # barycentric coordinates of the projection, by the oracle's own solve
    pts = [cfg.coords[pid] for pid in cell]
    rows = [[p[i] for p in pts] for i in range(cfg.dim)] + [[1] * len(pts)]
    sol = _solve(rows, list(cfg.project(xi_pt)) + [1])
    return sol is not None and all(t >= 0 for t in sol)


@pytest.mark.parametrize("name", ["quartic", "cubic-fourfold"])
def test_lift_tests_each_point_against_the_cells_it_projects_into(monkeypatch, name):
    # the envelope candidates lose no pair: the lifted-hull tests are exactly
    # the (cell, Xi point) pairs whose projection lies in the cell, each on
    # the degree-one point itself; a cell's W rows are keyed by its vertices
    vt = fixture(name)
    weights = quartic_mpcp_weights(vt) if name == "quartic" else generic_weights(vt, 1)
    cfg = project_config(reweighted(vt, weights))
    sub = regular_subdivision(cfg)
    in_hull = fans._in_lifted_hull
    tested = []

    def recording(config, rows, y):
        tested.append((tuple(sorted(rows)), y))
        return in_hull(config, rows, y)

    monkeypatch.setattr(fans, "_in_lifted_hull", recording)
    lift_subdivision(sub, cfg)
    expected = sorted((cell, x) for cell in sub.cells for x in vt.xi
                      if _projects_into(cfg, cell, x))
    assert len(tested) == len(set(tested))
    assert sorted(tested) == expected


def test_lift_factors_each_cell_once_and_solves_no_point(monkeypatch):
    # one barycentric factorization per simplex, by the pivot's facet
    # enumeration; the lift reads the table and factors and solves nothing
    vt = fixture("cubic-fourfold")
    cfg = project_config(reweighted(vt, generic_weights(vt, 1)))
    factor = fans.barycentric
    calls = []

    def counting(vertices):
        calls.append(vertices)
        return factor(vertices)

    def refused(*args):
        raise AssertionError("called by the lift")

    monkeypatch.setattr(fans, "barycentric", counting)
    sub = regular_subdivision(cfg)
    assert len(sub.cells) == len(sub.simplices) == len(calls) == 104
    monkeypatch.setattr(fans, "barycentric", refused)
    monkeypatch.setattr(fans, "kernel", refused)
    assert len(lift_subdivision(sub, cfg)) == 104


def _generic_input(name, seed):
    if name in MIXED_BLOCK_CONFIGS:
        vt = validate(parse_config(MIXED_BLOCK_CONFIGS[name]))
    elif name.startswith("cubic-blocks-"):
        vt = validate(cubic_block_input(int(name.rsplit("-", 1)[1])))
    else:
        vt = fixture(name)
    return reweighted(vt, generic_weights(vt, seed))


@pytest.mark.parametrize("name, seed", [("quartic", 1), ("quartic", 2),
                                        ("cubic-fourfold", 1), ("e33+k4", 1),
                                        ("cubic-blocks-3", 1)])
def test_factored_membership_matches_the_kernel_oracle(name, seed):
    # the lift's hull test on every (simplex, Xi point) pair, not only the
    # envelope candidates, against the oracle's kernel of the lifted vertices
    cfg = project_config(_generic_input(name, seed))
    sub = regular_subdivision(cfg)
    inside = 0
    for lc in lift_subdivision(sub, cfg):
        for x in cfg.vt.xi:
            member = fans._in_lifted_hull(cfg, sub.simplices[lc.cell], x)
            assert member == _barycentric_membership(lc.vertices, x)
            inside += member
    assert inside >= len(cfg.vt.xi)


def test_six_cubic_block_star_certifies_all_729_simplices():
    cfg = project_config(validate(cubic_block_input(6)))
    sub = regular_subdivision(cfg)
    cert = certify_isolated_singularity(sub, cfg, check_mpcp(sub, cfg))
    assert cert.certified
    assert ("lifted_triangulation", True, "729 simplices certified") in cert.links


@st.composite
def simplex_and_point(draw, kind):
    """Affinely independent integer vertices, scaled by the weight sum W, and
    the point sum w_i v_i: barycentric coordinates w / W when on the hull."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k, k + 2))
    coord = st.integers(-4, 4)
    vertices = draw(st.lists(st.tuples(*[coord] * n), min_size=k + 1, max_size=k + 1))
    dirs = [[x - y for x, y in zip(v, vertices[0])] for v in vertices[1:]]
    assume(_rank(dirs) == k)
    weights = [draw(st.integers(1, 4)) for _ in range(k + 1)]
    if kind == "face":
        weights[0] = 0
    elif kind == "outside":
        weights[0] = draw(st.integers(-4, -1))
        weights[-1] += max(0, 1 - sum(weights))
    total = sum(weights)
    point = [sum(w * v[c] for w, v in zip(weights, vertices)) for c in range(n)]
    if kind == "off":
        offset = draw(st.tuples(*[coord] * n))
        assume(_rank(dirs + [list(offset)]) == k + 1)
        point = [x + y for x, y in zip(point, offset)]
    return [tuple(total * x for x in v) for v in vertices], tuple(point)


@pytest.mark.parametrize("kind", ["inside", "face", "outside", "off"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_barycentric_membership_matches_oracle_solve(kind, data):
    vertices, x = data.draw(simplex_and_point(kind))
    rows = [[v[c] for v in vertices] for c in range(len(x))] + [[1] * len(vertices)]
    sol = _solve(rows, list(x) + [1])
    expected = sol is not None and all(t >= 0 for t in sol)
    assert expected == (kind in ("inside", "face"))
    # W(x, 1) reads D times the solve on the affine hull; a point is off that
    # hull exactly when it extends the vertices to an independent set
    assert (fans.barycentric([*vertices, x]) is None) == (sol is not None)
    if sol is not None:
        coords = [sum(a * b for a, b in zip(r, (*x, 1))) for r in fans.barycentric(vertices)]
        assert (min(coords) >= 0) == expected
        assert [Fraction(t, sum(coords)) for t in coords] == sol


def shift_facets_off_their_ridges(monkeypatch):
    facets = fans._facets

    def shifted(pts, dim):
        return {f: (g, g0 + 1) for f, (g, g0) in facets(pts, dim).items()}

    monkeypatch.setattr(fans, "_facets", shifted)


@pytest.mark.parametrize("name", ["quartic", "elliptic"])
def test_ridge_pivot_certificate_catches_a_shifted_facet(monkeypatch, name):
    # a pivot around a hyperplane one unit past the ridge cannot keep the ridge
    vt = fixture(name)
    cfg = project_config(reweighted(vt, quartic_mpcp_weights(vt)) if name == "quartic" else vt)
    shift_facets_off_their_ridges(monkeypatch)
    with pytest.raises(fans.PivotCheckFailed, match="neighbor functional lost the ridge"):
        regular_subdivision(cfg)


def uniform_elliptic_config(tmp_path):
    cfg = tmp_path / "elliptic.json"
    cfg.write_text(json.dumps({
        "blocks": [[1, 2, 3]], "d": [3, 3, 3], "lambda": "uniform:1",
        "lattice": {"congruences": [{"c": [1, 1, 1], "mod": 3}]}}))
    return str(cfg)


def test_shifted_facet_makes_analyze_exit_3(tmp_path, monkeypatch, capsys):
    cfg = uniform_elliptic_config(tmp_path)
    shift_facets_off_their_ridges(monkeypatch)
    assert main(["analyze", cfg, "--sections", "fans"]) == 3
    assert ("certificate failure [PivotCheckFailed]: neighbor functional lost the "
            "ridge") in capsys.readouterr().err


def test_unsupporting_rotation_makes_analyze_exit_3(tmp_path, monkeypatch, capsys):
    # a negated gcd flips the sign of every rotated functional and slack, so
    # the first rotation from the lowest point already leaves points below it
    cfg = uniform_elliptic_config(tmp_path)
    monkeypatch.setattr(fans, "gcd", lambda *xs: -math.gcd(*xs))
    assert main(["analyze", cfg, "--sections", "fans"]) == 3
    assert ("certificate failure [PivotCheckFailed]: rotated functional is not "
            "supporting") in capsys.readouterr().err


@pytest.mark.parametrize("name", ["quartic", "cubic-fourfold"])
def test_each_interior_ridge_is_rotated_across_once(monkeypatch, name):
    # rotate calls gcd once per supporting rotation.  The first cell takes at
    # most dim of them (each raises the contact set's affine rank), each
    # interior ridge one more; from a boundary ridge no point lies beyond
    vt = fixture(name)
    cfg = project_config(reweighted(vt, generic_weights(vt, 1)))
    rotations = []
    monkeypatch.setattr(fans, "gcd", lambda *xs: rotations.append(xs) or math.gcd(*xs))
    sub = regular_subdivision(cfg)
    monkeypatch.undo()
    owners = Counter()
    for cell in sub.cells:
        contacts = _facets_by_scan([cfg.coords[pid] for pid in cell], cfg.dim)
        owners.update(frozenset(cell[k] for k in contact) for contact in contacts)
    interior = sum(1 for count in owners.values() if count == 2)
    assert set(owners.values()) == {1, 2}
    assert interior <= len(rotations) <= cfg.dim + interior


def test_shifted_facet_is_caught_after_a_clean_run(monkeypatch):
    # nothing the clean run leaves behind may hide the shift
    vt = fixture("quartic")
    cfg = project_config(reweighted(vt, quartic_mpcp_weights(vt)))
    regular_subdivision(cfg)
    shift_facets_off_their_ridges(monkeypatch)
    with pytest.raises(fans.PivotCheckFailed, match="neighbor functional lost the ridge"):
        regular_subdivision(cfg)


def _fresh_process_cells(name):
    code = ("import sys; from mirrorcone import fans; "
            "from mirrorcone.fixtures import fixture; "
            "cfg = fans.project_config(fixture(sys.argv[1])); "
            "print([list(c) for c in fans.regular_subdivision(cfg).cells])")
    proc = subprocess.run([sys.executable, "-c", code, name], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return tuple(tuple(c) for c in ast.literal_eval(proc.stdout))


def test_configs_run_one_after_another_give_the_cells_of_fresh_runs():
    names = ("quartic", "cubic-fourfold")
    in_turn = [regular_subdivision(project_config(fixture(n))).cells
               for n in names]
    assert in_turn == [_fresh_process_cells(n) for n in names]


def test_each_point_set_is_enumerated_once_per_subdivision(monkeypatch):
    # the uniform z-manifold star: 27 cells of 15 points in dim 6, each hull a
    # 6-simplex, so each cell's facets come from one barycentric factorization
    # and the pivot never recurses into a projected lower hull
    cfg = project_config(fixture("z-manifold"))
    facets, lower_hull_cells = fans._facets, fans._lower_hull_cells
    seen, hulls = [], []

    def counting(pts, dim):
        seen.append((tuple(pts), dim))
        return facets(pts, dim)

    def counting_hulls(points, heights):
        hulls.append(len(points))
        return lower_hull_cells(points, heights)

    monkeypatch.setattr(fans, "_facets", counting)
    monkeypatch.setattr(fans, "_lower_hull_cells", counting_hulls)
    for _ in range(2):
        seen.clear()
        hulls.clear()
        sub = regular_subdivision(cfg)
        assert len(sub.cells) == 27
        assert len(seen) == len(set(seen)) == 27
        assert {frozenset(pts) for pts, _ in seen} == {
            frozenset(cfg.coords[pid] for pid in cell) for cell in sub.cells}
        assert hulls == [len(cfg.ids)]


# sha256 of `analyze --sections fans --perturb SEED` on the uniform fixtures,
# recorded when --perturb became one more pivot on h + eps*f + eps2*g
PERTURBED_FANS_SHA256 = {
    "elliptic": {
        1: "35c6ab51320fe10e04d9704190110a0c5a42e170527926896dfb4bd92f2640eb",
        3: "07a2fbaf40292fce4eb3907b08fea768e8f9d82372eb6c2ad6877fc7f021cacb",
        5: "b4cdd78f6f780c84cdb546568f097f27e1757fe52350ba622ad8454518e12762",
        11: "9c75eb7f459d286d33b69313400d0130a8f09ef0ff77e0d77289ee2e3252ad79",
    },
    "quartic": {
        1: "45009432a0a5ddcba252efafab2c948779df11076583d3606b659e24c750acea",
        3: "a54584fc7cac1ced9dcf086805f4ed91b85ed6a8029d5a66eadc6564c01f3222",
        5: "88e593a8c8b424555b8dd56beb34e5710e1d514a0578b87bbc138a1c0f21a95f",
        11: "52470de861b3585cb106da306791a17140f104be12d38c4fd311919ec1c0aaa5",
    },
    "cubic-fourfold": {
        1: "b79c6a2b14284a605c2f70dbf9dacca221b284c961b7e05a1be407d99930d731",
        3: "ea100a6e425af5f5f3ad8e75fd8de681312d5e43bb3aea6383018dca041a6381",
        5: "7c1331413c3817d07edbc2e8bb0af038e7b15a7a501760650a75a6829c0e2acf",
        11: "4a0a92ed88f2b7cb524be575352ad268fc67e563026e9376233a06709451f3b2",
    },
}


@pytest.mark.parametrize("name", sorted(PERTURBED_FANS_SHA256))
def test_perturbed_fans_report_keeps_its_digest(tmp_path, capsys, name):
    assert main(["examples", "show", name]) == 0
    cfg = tmp_path / "config.json"
    cfg.write_text(capsys.readouterr().out)
    out = tmp_path / "report.json"
    for seed, digest in PERTURBED_FANS_SHA256[name].items():
        assert main(["analyze", str(cfg), "--sections", "fans", "--perturb", str(seed),
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, seed


@pytest.mark.parametrize("name", ["quartic", "cubic-fourfold"])
def test_perturb_pivots_on_the_weights_then_on_the_refined_heights(monkeypatch, name):
    # exactly two outermost pivots, the weights' and then h''s; every other
    # pivot belongs to a facet enumeration
    enumerating, calls = [], []
    facets, lower_hull_cells = fans._facets, fans._lower_hull_cells

    def enumerating_facets(pts, dim):
        enumerating.append(pts)
        try:
            return facets(pts, dim)
        finally:
            enumerating.pop()

    def recording(points, heights):
        if not enumerating:
            calls.append((points, heights))
        return lower_hull_cells(points, heights)

    monkeypatch.setattr(fans, "_facets", enumerating_facets)
    monkeypatch.setattr(fans, "_lower_hull_cells", recording)
    cfg = project_config(fixture(name))
    sub = regular_subdivision(cfg, perturb_seed=1)
    points = [cfg.coords[pid] for pid in cfg.ids]
    assert calls == [(points, [0] + [1] * len(cfg.vt.xi0)),
                     (points, [sub.weights[pid] for pid in cfg.ids])]


def _point_set_subdivision(heights, seed):
    """``regular_subdivision`` of the points keyed in ``heights`` and the
    origin, pinned at 0; each point is its own lift."""
    dim = len(next(iter(heights)))
    lifts = {fans.point_id(p): p for p in heights}
    ids = sorted(lifts)
    vt = types.SimpleNamespace(heights=tuple(Fraction(heights[lifts[pid]]) for pid in ids))
    cfg = fans.ProjectedConfig(dim=dim, ids=(ORIGIN, *ids),
                               coords={ORIGIN: (0,) * dim, **lifts}, lifts=lifts,
                               nonzero={}, pairs=(), vt=vt)
    return regular_subdivision(cfg, perturb_seed=seed)


# (heights off the origin, {refined cell: parent}, the parent omitted where
# the refined cell is a cell of the heights): q lies inside the hull of the
# cell on the plane x + y (+ z) and becomes a vertex; the last point lies
# above that plane, beyond one facet of the cell, and forms the second cell
INTERIOR_POINT_CASES = {
    "2d": ({(3, 0): 3, (0, 3): 3, (1, 1): 2, (3, 3): 7}, {
        ("0,3", "1,1", "origin"): ("0,3", "1,1", "3,0", "origin"),
        ("1,1", "3,0", "origin"): ("0,3", "1,1", "3,0", "origin"),
        ("0,3", "1,1", "3,0"): ("0,3", "1,1", "3,0", "origin"),
        ("0,3", "3,0", "3,3"): None}),
    "3d": ({(4, 0, 0): 4, (0, 4, 0): 4, (0, 0, 4): 4, (1, 1, 1): 3, (2, 2, 2): 7}, {
        **dict.fromkeys(
            [("0,0,4", "0,4,0", "1,1,1", "origin"), ("0,0,4", "1,1,1", "4,0,0", "origin"),
             ("0,4,0", "1,1,1", "4,0,0", "origin"), ("0,0,4", "0,4,0", "1,1,1", "4,0,0")],
            ("0,0,4", "0,4,0", "1,1,1", "4,0,0", "origin")),
        ("0,0,4", "0,4,0", "2,2,2", "4,0,0"): None}),
}


@pytest.mark.parametrize("case", INTERIOR_POINT_CASES)
def test_a_point_inside_a_cell_becomes_a_vertex(case):
    heights, expected = INTERIOR_POINT_CASES[case]
    sub = _point_set_subdivision(heights, 1)
    assert sub.perturbed and set(sub.cells) == set(expected)
    assert sub.parents == {cell: p for cell, p in expected.items() if p is not None}


def test_a_single_cell_refines_with_unit_slack():
    # every point lies on the plane x + y, so no slack is positive and
    # s_min = 1: eps = 1 / (2 N max f) with N = 4 points and max f = 4
    heights = {(2, 0): 2, (0, 2): 2, (1, 0): 1}
    sub = _point_set_subdivision(heights, 7)
    cell = ("0,2", "1,0", "2,0", "origin")
    assert sub.cells == (("0,2", "1,0", "2,0"), ("0,2", "1,0", "origin"))
    assert sub.parents == dict.fromkeys(sub.cells, cell)
    eps = Fraction(1, 2 * 4 * 4)
    assert sub.weights[ORIGIN] == 0
    for p, h in heights.items():
        noise = sub.weights[fans.point_id(p)] - h - eps * sum(x * x for x in p)
        assert 0 < noise <= eps / 2


@st.composite
def refinable_point_sets(draw):
    dim = draw(st.integers(2, 3))
    pts = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim),
                        min_size=4, max_size=8, unique=True))
    heights = draw(st.lists(st.integers(0, 2), min_size=len(pts), max_size=len(pts))
                   | st.just([0] * len(pts)))
    return pts, heights, draw(st.integers(0, 2 ** 32))


@given(refinable_point_sets())
@settings(max_examples=120, deadline=None)
def test_refined_heights_give_the_hyperplane_scan_refinement(config):
    # the pivot on h' equals the scan at h', refines the cells of h and keeps
    # every point of them
    pts, heights, seed = config
    assume(_rank([[x - y for x, y in zip(p, pts[0])] for p in pts[1:]]) == len(pts[0]))
    coarse = _lower_hull_cells(pts, heights)
    refined = fans._refined_heights(pts, heights, coarse, seed)
    cells = {cell for cell, *_ in _lower_hull_cells(pts, refined)}
    assert cells == subdivision_by_hyperplane_scan(pts, refined)
    assert all(any(cell <= parent for parent, *_ in coarse) for cell in cells)
    assert set().union(*cells) == set().union(*(parent for parent, *_ in coarse))


def test_a_refined_cell_across_a_coarse_wall_makes_analyze_exit_3(tmp_path, capsys,
                                                                  monkeypatch):
    # eps and eps2 a million times larger: h' no longer refines h
    refined_heights = fans._refined_heights

    def scaled(points, heights, cells, seed):
        return [h + 10 ** 6 * (r - h)
                for h, r in zip(heights, refined_heights(points, heights, cells, seed))]

    monkeypatch.setattr(fans, "_refined_heights", scaled)
    code, err = analyze_fixture(tmp_path, capsys, "quartic", "--sections", "fans",
                                "--perturb", "1")
    assert code == 3
    assert err.startswith("certificate failure [RefinementCheckFailed]: refined cell (")
    assert err.rstrip().endswith("lies in no unperturbed cell")


def test_constant_noise_on_cospherical_points_makes_analyze_exit_1(tmp_path, capsys,
                                                                  monkeypatch):
    # g = 2**-32 off the origin: the quartic's cells keep cospherical points,
    # which |p|^2 lifts onto one hyperplane; a FanError is a domain error
    rng = types.SimpleNamespace(getrandbits=lambda bits: 0)
    monkeypatch.setattr(fans, "random", types.SimpleNamespace(Random=lambda seed: rng))
    code, err = analyze_fixture(tmp_path, capsys, "quartic", "--sections", "fans",
                                "--perturb", "1")
    assert code == 1
    assert err == "FanError: the refined heights did not reach a triangulation\n"


def test_uniform_cubic_fourfold_star_cells_match_the_subset_scan():
    cfg = project_config(fixture("cubic-fourfold"))
    sub = regular_subdivision(cfg)
    assert [len(cell) for cell in sub.cells] == [13] * 9
    for cell in sub.cells:
        pts = [cfg.coords[pid] for pid in cell]
        assert set(fans._facets(pts, cfg.dim)) == set(_facets_by_scan(pts, cfg.dim))


def test_perturbed_cubic_fourfold_keeps_the_star_volume():
    cfg = project_config(fixture("cubic-fourfold"))
    star = regular_subdivision(cfg)
    sub = regular_subdivision(cfg, perturb_seed=5)
    mpcp = check_mpcp(sub, cfg)
    assert len(sub.cells) == 108 and mpcp.is_triangulation
    assert check_mpcs(sub, cfg, mpcp).mpcs
    assert certify_isolated_singularity(sub, cfg, mpcp).certified
    assert subdivision_volume(sub, cfg) == subdivision_volume(star, cfg) == 729


def test_oracles_import_nothing_from_mirrorcone():
    tree = ast.parse((TESTS / "oracles.py").read_text())
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert imported and not [m for m in imported if m.split(".")[0] == "mirrorcone"]


def test_search_quartic_weights_script_runs():
    script = TESTS.parent / "scripts" / "search_quartic_weights.py"
    proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert ("random-seed-7: cells=40 mpcp=True mpcs=True certified=True"
            in proc.stdout.splitlines())


def test_lift_cell_without_origin():
    # a 1-d config where one cell avoids the lifted origin counterpart
    pts = [(0,), (1,), (2,)]
    heights = [Fraction(0), Fraction(1, 10), Fraction(1)]
    cells = {frozenset(c) for c, *_ in _lower_hull_cells(pts, heights)}
    assert cells == {frozenset({0, 1}), frozenset({1, 2})}


def test_single_segment_cell():
    pts = [(0,), (3,)]
    heights = [Fraction(0), Fraction(1)]
    cells = [c for c, *_ in _lower_hull_cells(pts, heights)]
    assert cells == [frozenset({0, 1})]


def test_degenerate_config_rejected():
    pts = [(0, 0), (1, 1), (2, 2)]
    with pytest.raises(DegenerateConfig):
        _lower_hull_cells(pts, [Fraction(0)] * 3)


@st.composite
def dilated_simplex(draw, dim):
    """The vertices of s * conv(verts), with lattice points of it added: a sum
    of s vertices lies inside or, when it leaves a vertex out, on a face; a
    few points are then repeated."""
    verts = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim),
                          min_size=dim + 1, max_size=dim + 1, unique=True))
    s = draw(st.integers(1, 3))
    sums = draw(st.lists(st.lists(st.integers(0, dim), min_size=s, max_size=s),
                         max_size=6))
    pts = [tuple(s * x for x in v) for v in verts]
    pts += [tuple(map(sum, zip(*(verts[i] for i in idx)))) for idx in sums]
    pts += draw(st.lists(st.sampled_from(pts), max_size=2))
    return draw(st.permutations(pts))


@st.composite
def facet_config(draw):
    dim = draw(st.integers(1, 4))
    if draw(st.booleans()):
        return draw(dilated_simplex(dim)), dim
    pts = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim),
                        min_size=dim + 1, max_size=dim + 4, unique=True))
    if dim > 1 and draw(st.booleans()):
        # add every point raised in its last coordinate: the hull gains a
        # vertical facet over each facet of its projection
        rise = draw(st.integers(1, 3))
        pts = sorted(set(pts) | {p[:-1] + (p[-1] + rise,) for p in pts})
    return pts, dim


# a uniform cubic-fourfold cell: a 4-simplex whose 13 points include ones on
# its edges, like the z-manifold's 6-simplex cells of 15 points
STAR_CELL = [(0, 0, -3, -3), (0, 0, 0, 3), (-1, -1, -2, -2), (-1, -1, 0, 2),
             (-2, -2, -1, -1), (-2, -2, 0, 1), (-3, -3, 0, 0), (0, 1, -2, -2),
             (0, 1, 0, 2), (0, 2, -1, -1), (0, 2, 0, 1), (0, 3, 0, 0), (0, 0, 0, 0)]
CUBE = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
# completion from the lex-max point (3,3): (0,0) at min e_1, then (2,1) off
# their line; (1,1) comes first and lies on an edge, so a completion started
# from the first point misses (0,0).  With (1,2) in place of (1,1), the hull
# is a quadrilateral and (2,1) gets a negative barycentric coordinate
COMPLETED = [(1, 1), (0, 0), (2, 1), (3, 3)]
KITE = [(0, 0), (1, 2), (2, 1), (3, 3)]


@given(facet_config())
@example(([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 1), (2, 0, 1), (0, 2, 1)], 3))
@example(([(0, 0), (1, 0), (3, 1), (0, 2), (1, 2)], 2))
@example((STAR_CELL, 4))
@example((CUBE, 3))
@example((COMPLETED, 2))
@example((KITE, 2))
# a simplex hull with its lex-max vertex repeated and a point on an edge
@example(([(2, 0), (0, 2), (1, 0), (2, 0), (0, 0)], 2))
# after (3,3) and (0,0), the completion takes the vertex (1,2) at max g
@example(([(0, 0), (1, 1), (1, 2), (3, 3)], 2))
@settings(max_examples=120, deadline=None)
def test_facets_match_the_subset_scan(config):
    pts, dim = config
    assume(_rank([[x - y for x, y in zip(p, pts[0])] for p in pts[1:]]) == dim)
    facets = fans._facets(pts, dim)
    assert set(facets) == set(_facets_by_scan(pts, dim))
    for contact, (g, g0) in facets.items():
        assert len(g) == dim and all(type(x) is int for x in (*g, g0))
        vals = [sum(gi * xi for gi, xi in zip(g, p)) for p in pts]
        assert all(v <= g0 for v in vals)
        assert {i for i, v in enumerate(vals) if v == g0} == contact


@pytest.mark.parametrize("pts, dim, simplex", [
    (STAR_CELL, 4, True),
    (CUBE, 3, False),
    (COMPLETED, 2, True),
    (KITE, 2, False),
], ids=["star-cell", "cube-misses-early", "completed", "kite-rejected-by-w"])
def test_simplex_branch_takes_exactly_the_simplex_hulls(monkeypatch, pts, dim, simplex):
    # more than dim + 1 points: one kernel, of no rows, starts the echelon
    # that completes the vertices, one barycentric factorization reads a
    # simplex, and only any other hull goes on to the pivot
    # ("cube-misses-early" names a split since removed)
    calls = []

    def counted(name):
        solve = getattr(fans, name)

        def counting(*args):
            calls.append(name)
            return solve(*args)
        return counting

    for name in ("kernel", "barycentric", "_lower_hull_cells"):
        monkeypatch.setattr(fans, name, counted(name))
    facets = fans._facets(pts, dim)
    assert calls[:2] == ["kernel", "barycentric"]
    assert calls[2:3] == ([] if simplex else ["_lower_hull_cells"])
    assert set(facets) == set(_facets_by_scan(pts, dim))
    if simplex:
        assert len(facets) == dim + 1


def test_vertex_completion_runs_one_echelon_per_cell(monkeypatch):
    # the uniform z-manifold's 27 cells are 6-simplex hulls of 15 points; each
    # completion extends the one echelon that a kernel of no rows starts,
    # where a fresh kernel per vertex took 6 (162 in all)
    kernels, per_cell = [], []
    kernel, facets = fans.kernel, fans._facets

    def counted_kernel(*args):
        kernels.append(args)
        return kernel(*args)

    def counted_facets(pts, dim):
        before = len(kernels)
        out = facets(pts, dim)
        if len(pts) > dim + 1:
            per_cell.append(len(kernels) - before)
        return out

    monkeypatch.setattr(fans, "kernel", counted_kernel)
    monkeypatch.setattr(fans, "_facets", counted_facets)
    sub = regular_subdivision(project_config(fixture("z-manifold")))
    assert len(sub.cells) == len(per_cell) == 27
    assert per_cell == [1] * 27


@pytest.mark.parametrize("limit, refused", [(278, True), (279, False)])
def test_mpcs_walk_stops_past_the_cone_limit(monkeypatch, limit, refused):
    # the uniform z-manifold's walk checks exactly 279 boundary-relevant cones
    vt = fixture("z-manifold")
    cfg = project_config(vt)
    sub = regular_subdivision(cfg)
    mpcp = check_mpcp(sub, cfg)
    full = check_mpcs(sub, cfg, mpcp)
    monkeypatch.setattr(fans, "MPCS_CONE_LIMIT", limit)
    if refused:
        with pytest.raises(IndexSetTooLarge, match="more than 278 boundary-relevant cones"):
            check_mpcs(sub, cfg, mpcp)
    else:
        assert check_mpcs(sub, cfg, mpcp) == full


def _perfbench_workloads():
    # read by path and executed here, so nothing is written next to it
    path = TESTS.parent / "perfbench" / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_generic_weights_match_the_benchmark_recipe():
    workloads = _perfbench_workloads()
    for name in ("quartic", "cubic-fourfold", "z-manifold"):
        vt = fixture(name)
        for seed in range(11):
            ours = [(",".join(map(str, p)), f"{w.numerator}/{w.denominator}")
                    for p, w in generic_weights(vt, seed).items()]
            assert ours == list(workloads.generic_weights(name, seed).items())


@st.composite
def small_config(draw):
    dim = draw(st.integers(1, 3))
    npts = draw(st.integers(dim + 1, 7))
    pts = draw(st.lists(
        st.tuples(*[st.integers(-4, 4) for _ in range(dim)]),
        min_size=npts, max_size=npts, unique=True))
    heights = draw(st.lists(st.fractions(min_value=0, max_value=5, max_denominator=8),
                            min_size=len(pts), max_size=len(pts)))
    return pts, heights


@given(small_config())
@settings(max_examples=60, deadline=None)
def test_lower_hull_matches_oracle_on_random_configs(config):
    pts, heights = config
    from oracles import _rank
    base = pts[0]
    dirs = [[x - y for x, y in zip(p, base)] for p in pts[1:]]
    if _rank(dirs) != len(pts[0]):
        return
    cells = {c for c, *_ in _lower_hull_cells(pts, heights)}
    assert cells == subdivision_by_hyperplane_scan(pts, heights)
