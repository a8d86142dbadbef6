import ast
import dataclasses
import json
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorcone import CertificateFailure, fans
from mirrorcone.cli import main
from mirrorcone.fans import (
    CellLiftFailure,
    DegenerateConfig,
    ORIGIN,
    _lower_hull_cells,
    certify_isolated_singularity,
    check_mpcp,
    check_mpcs,
    lift_subdivision,
    project_config,
    regular_subdivision,
)
from mirrorcone.fixtures import fixture, quartic_mpcp_weights
from oracles import (
    normalized_volume,
    subdivision_by_hyperplane_scan,
    subdivision_volume,
)

TESTS = pathlib.Path(__file__).resolve().parent


def cells_as_index_sets(cfg, sub):
    ids = list(cfg.ids)
    pos = {pid: i for i, pid in enumerate(ids)}
    return {frozenset(pos[p] for p in cell) for cell in sub.cells}


def oracle_cells(cfg, weights):
    from mirrorcone.fans import resolve_weights
    heights_by_id = resolve_weights(cfg, weights)
    points = [cfg.coords[pid] for pid in cfg.ids]
    heights = [heights_by_id[pid] for pid in cfg.ids]
    return subdivision_by_hyperplane_scan(points, heights)


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
    from mirrorcone.toricdata import LatticeSpec, ToricInput, validate
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
    cfg = project_config(vt)
    rng = random.Random(2024)
    for _ in range(5):
        weights = {p: random_rational(rng) for p in vt.xi0}
        sub = regular_subdivision(cfg, weights)
        assert len(sub.cells) == 3
        assert all(ORIGIN in cell and len(cell) == 3 for cell in sub.cells)


def test_elliptic_matches_oracle_random_weights():
    vt = fixture("elliptic")
    cfg = project_config(vt)
    rng = random.Random(7)
    for _ in range(10):
        weights = {p: random_rational(rng) for p in vt.xi0}
        sub = regular_subdivision(cfg, weights)
        assert cells_as_index_sets(cfg, sub) == oracle_cells(cfg, weights)


def test_quartic_uniform_matches_oracle():
    vt = fixture("quartic")
    cfg = project_config(vt)
    sub = regular_subdivision(cfg, Fraction(1))
    # uniform weights give the coarse star over the four facets
    assert len(sub.cells) == 4
    assert all(ORIGIN in cell and len(cell) == 13 for cell in sub.cells)
    assert cells_as_index_sets(cfg, sub) == oracle_cells(cfg, Fraction(1))
    report = check_mpcp(sub, cfg)
    assert not report.is_triangulation
    assert not report.mpcp
    assert report.rays_are_xi0 and report.refines_product_fan


def test_quartic_mpcp_weights_full_chain():
    vt = fixture("quartic")
    cfg = project_config(vt)
    weights = quartic_mpcp_weights(vt)
    sub = regular_subdivision(cfg, weights)
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
    cfg = project_config(vt)
    weights = quartic_mpcp_weights(vt)
    sub = regular_subdivision(cfg, weights)
    assert cells_as_index_sets(cfg, sub) == oracle_cells(cfg, weights)


def test_volume_conservation():
    vt = fixture("quartic")
    cfg = project_config(vt)
    points = [cfg.coords[pid] for pid in cfg.ids]
    hull_volume = normalized_volume(points)
    for weights in (Fraction(1), quartic_mpcp_weights(vt)):
        sub = regular_subdivision(cfg, weights)
        assert subdivision_volume(sub, cfg) == hull_volume


def test_scale_invariance():
    vt = fixture("quartic")
    cfg = project_config(vt)
    weights = quartic_mpcp_weights(vt)
    scaled = {p: Fraction(7, 3) * w for p, w in weights.items()}
    sub1 = regular_subdivision(cfg, weights)
    sub2 = regular_subdivision(cfg, scaled)
    assert sub1.cells == sub2.cells


def test_degenerate_edge_weights_reported():
    vt = fixture("quartic")
    cfg = project_config(vt)
    weights = quartic_mpcp_weights(vt)
    # tie the five collinear points of the edge p_3 = p_4 = 0
    for p in vt.xi0:
        if p[2] == 0 and p[3] == 0:
            weights[p] = Fraction(1)
    sub = regular_subdivision(cfg, weights)
    report = check_mpcp(sub, cfg)
    assert not report.is_triangulation
    assert any("not a simplex" in reason for _, reason in report.failures)
    cert = certify_isolated_singularity(sub, cfg, report)
    assert not cert.certified
    assert cert.failing_link == "mpcp"


def test_perturbation_refines_to_triangulation():
    vt = fixture("quartic")
    cfg = project_config(vt)
    sub = regular_subdivision(cfg, Fraction(1), perturb_seed=11)
    assert sub.perturbed
    assert sub.is_triangulation(cfg.dim)
    # the refinement still covers the hull
    points = [cfg.coords[pid] for pid in cfg.ids]
    assert subdivision_volume(sub, cfg) == normalized_volume(points)


def test_zmanifold_mpcs_equals_mpcp_uniform():
    # dim 6 case is too large here; the dim <= 4 fixtures cover the remark.
    vt = fixture("cubic-fourfold")
    cfg = project_config(vt)
    sub = regular_subdivision(cfg, Fraction(1))
    report = check_mpcs(sub, cfg)
    assert report.mpcs == report.mpcp


@pytest.mark.parametrize("name,draws", [("quartic", 4), ("cubic-fourfold", 2)])
def test_mpcp_implies_lift_certificates_random_weights(name, draws):
    # conditional property: whenever a random weight vector is MPCP, every
    # lifted cell passes its three certificates; mpcs tracks mpcp (dim <= 4)
    vt = fixture(name)
    cfg = project_config(vt)
    rng = random.Random(hash(name) % 10**6)
    for _ in range(draws):
        weights = {p: Fraction(rng.randrange(1, 50), rng.randrange(1, 16))
                   for p in vt.xi0}
        sub = regular_subdivision(cfg, weights)
        report = check_mpcp(sub, cfg)
        full = check_mpcs(sub, cfg, report)
        assert full.mpcs == (report.mpcp and full.mpcs)
        if report.mpcp:
            lift_subdivision(sub, cfg)
            assert full.mpcs == report.mpcp


def test_lift_vertices_elliptic():
    vt = fixture("elliptic")
    cfg = project_config(vt)
    sub = regular_subdivision(cfg, Fraction(2))
    for cell in lift_subdivision(sub, cfg):
        assert (1, 1, 1) in cell.vertices
        assert len(cell.vertices) == 3


def quartic_mpcp_chain():
    vt = fixture("quartic")
    cfg = project_config(vt)
    return cfg, regular_subdivision(cfg, quartic_mpcp_weights(vt))


def test_lift_rejects_a_functional_that_does_not_support():
    cfg, sub = quartic_mpcp_chain()
    cell = sub.cells[5]
    a, c = sub.supports[cell]
    tampered = dataclasses.replace(sub, supports={**sub.supports, cell: (a, c + 1)})
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
    sub = regular_subdivision(cfg, Fraction(1))
    with pytest.raises(CellLiftFailure) as exc:
        lift_subdivision(sub, cfg)
    assert len(exc.value.cell) == 13
    assert exc.value.reason == "lifted vertex set is affinely dependent"


def test_lift_rejects_a_point_outside_the_lifted_hull(monkeypatch):
    cfg, sub = quartic_mpcp_chain()
    inside = fans._barycentric_membership

    def projected_only(vertices, x):
        # membership holds downstairs, never in the lifted hull
        return len(x) == cfg.dim and inside(vertices, x)

    monkeypatch.setattr(fans, "_barycentric_membership", projected_only)
    with pytest.raises(CellLiftFailure) as exc:
        lift_subdivision(sub, cfg)
    assert exc.value.cell == sub.cells[0]
    assert exc.value.reason == "a degree-one lattice point escapes the lifted hull"


def shift_facets_off_their_ridges(monkeypatch):
    facets = fans._facets

    def shifted(pts, dim):
        return {f: (g, g0 + 1) for f, (g, g0) in facets(pts, dim).items()}

    monkeypatch.setattr(fans, "_facets", shifted)


@pytest.mark.parametrize("name", ["quartic", "elliptic"])
def test_ridge_pivot_certificate_catches_a_shifted_facet(monkeypatch, name):
    # a pivot around a hyperplane one unit past the ridge cannot keep the ridge
    vt = fixture(name)
    weights = quartic_mpcp_weights(vt) if name == "quartic" else Fraction(1)
    cfg = project_config(vt)
    shift_facets_off_their_ridges(monkeypatch)
    with pytest.raises(CertificateFailure, match="neighbor functional lost the ridge"):
        regular_subdivision(cfg, weights)


def test_shifted_facet_makes_analyze_exit_3(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "elliptic.json"
    cfg.write_text(json.dumps({
        "blocks": [[1, 2, 3]], "d": [3, 3, 3], "lambda": "uniform:1",
        "lattice": {"congruences": [{"c": [1, 1, 1], "mod": 3}]}}))
    shift_facets_off_their_ridges(monkeypatch)
    assert main(["analyze", str(cfg), "--sections", "fans"]) == 3
    assert "neighbor functional lost the ridge" in capsys.readouterr().err


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
    cells = {frozenset(c) for c, _ in _lower_hull_cells(pts, heights)}
    assert cells == {frozenset({0, 1}), frozenset({1, 2})}


def test_single_segment_cell():
    pts = [(0,), (3,)]
    heights = [Fraction(0), Fraction(1)]
    cells = [c for c, _ in _lower_hull_cells(pts, heights)]
    assert cells == [frozenset({0, 1})]


def test_degenerate_config_rejected():
    pts = [(0, 0), (1, 1), (2, 2)]
    with pytest.raises(DegenerateConfig):
        _lower_hull_cells(pts, [Fraction(0)] * 3)


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
    cells = {c for c, _ in _lower_hull_cells(pts, heights)}
    assert cells == subdivision_by_hyperplane_scan(pts, heights)
