"""Acceptance criteria, one test per criterion with its runtime budget.

Each test prints a single PASS line on success (visible with pytest -s or in
the captured output); a pytest failure of the corresponding test is the FAIL
signal.  Criterion 2's generic-weight requirements run on the verified
fine-triangulation weight vector for the quartic, since uniform weights
provably induce only the coarse facet star (which is asserted against the
brute-force oracle, with its negative certificate checked).
"""

import hashlib
import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

from mirrorcone.bside import build_koszul_mf, build_superpotential, check_wflips, dualize_mf
from mirrorcone.cli import main, parse_config
from mirrorcone.fans import (
    certify_isolated_singularity,
    check_mpcp,
    check_mpcs,
    lift_subdivision,
    project_config,
    regular_subdivision,
)
from mirrorcone.fixtures import FIXTURE_NAMES, fixture
from mirrorcone.grading import build_grading_data, check_commutative_square, coker_H
from mirrorcone.koszulalg import (
    degree_classes,
    enumerate_deformation_classes,
    koszul_cohomology_dims,
)
from mirrorcone.toricdata import (
    check_embeddedness,
    check_nef_partition,
    check_no_bc,
    symmetry_groups,
    validate,
)
from mirrorcone.report import input_echo, section_fans
from oracles import (
    _facets_by_scan,
    _koszul_image,
    batyrev_h21,
    box_scan_xi,
    koszul_class_dimension,
    normalized_volume,
    subdivision_by_hyperplane_scan,
    subdivision_volume,
)
from tests_support import (
    GREENE_PLESSER_DEGREES,
    MIXED_BLOCK_CONFIGS,
    cubic_block_input,
    generic_config,
    generic_weights,
    graded_pairs,
    greene_plesser_config,
    quartic_mpcp_weights,
    random_admissible_v,
    reweighted,
    single_block_config,
)


def _elapsed_guard(t0, budget, label):
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"{label} took {elapsed:.1f}s, budget {budget}s"
    return elapsed


def test_criterion_1_fixture_values():
    t0 = time.monotonic()

    vt = fixture("quartic")
    assert len(vt.xi0) == 22
    sg = symmetry_groups(vt)
    assert sg.g.invariant_factors == (4,)
    assert sg.gamma.invariant_factors == ()
    assert check_nef_partition(vt).holds
    assert check_embeddedness(vt).holds
    assert check_no_bc(vt).holds

    vt = fixture("cubic-fourfold")
    assert len(vt.xi0) == 24
    assert symmetry_groups(vt).gamma.invariant_factors == ()
    emb = check_embeddedness(vt)
    assert not emb.holds
    assert (0, 3, 4) in emb.witnesses  # {1,4,5} 1-based
    assert not check_nef_partition(vt).holds
    assert not check_no_bc(vt).holds

    vt = fixture("z-manifold")
    assert len(vt.xi0) == 36
    assert symmetry_groups(vt).gamma.invariant_factors == (3,)
    emb = check_embeddedness(vt)
    assert not emb.holds
    assert (0, 3, 6) in emb.witnesses  # {1,4,7} 1-based

    elapsed = _elapsed_guard(t0, 5.0, "criterion 1")
    print(f"\nACCEPTANCE 1 PASS fixture values exact ({elapsed:.2f}s < 5s)")


def _oracle_cells(cfg):
    points = [cfg.coords[pid] for pid in cfg.ids]
    pos = {pid: i for i, pid in enumerate(cfg.ids)}
    return subdivision_by_hyperplane_scan(points, [0, *cfg.vt.heights]), pos


def test_criterion_2_subdivision_suite():
    t0 = time.monotonic()

    # quartic with uniform weights: output equals the brute-force oracle
    vt = fixture("quartic")
    cfg = project_config(vt)
    sub = regular_subdivision(cfg)
    oracle, pos = _oracle_cells(cfg)
    assert {frozenset(pos[p] for p in cell) for cell in sub.cells} == oracle

    # the uniform quartic weights are the constructed degenerate case:
    # non-simplicial cells, negative certificate, failing link identified
    report = check_mpcp(sub, cfg)
    assert not report.is_triangulation
    cert = certify_isolated_singularity(sub, cfg, report)
    assert not cert.certified
    assert cert.failing_link == "mpcp"

    # elliptic fixture, 20 random positive rational weight vectors
    vt_e = fixture("elliptic")
    rng = random.Random(42)
    for _ in range(20):
        weights = {p: Fraction(rng.randrange(1, 60), rng.randrange(1, 16))
                   for p in vt_e.xi0}
        cfg_e = project_config(reweighted(vt_e, weights))
        sub_e = regular_subdivision(cfg_e)
        oracle_e, pos_e = _oracle_cells(cfg_e)
        assert {frozenset(pos_e[p] for p in c) for c in sub_e.cells} == oracle_e
        rep = check_mpcp(sub_e, cfg_e)
        assert rep.mpcp
        full = check_mpcs(sub_e, cfg_e, rep)
        assert full.mpcs == rep.mpcp  # dim <= 4 remark
        lift_subdivision(sub_e, cfg_e)
        assert certify_isolated_singularity(sub_e, cfg_e, rep).certified

    # quartic with generic (verified MPCP) weights: the full positive chain
    cfg = project_config(reweighted(vt, quartic_mpcp_weights(vt)))
    sub_q = regular_subdivision(cfg)
    rep_q = check_mpcp(sub_q, cfg)
    assert rep_q.mpcp
    full_q = check_mpcs(sub_q, cfg, rep_q)
    assert full_q.mpcs == rep_q.mpcp
    lift_subdivision(sub_q, cfg)
    assert certify_isolated_singularity(sub_q, cfg, rep_q).certified

    elapsed = _elapsed_guard(t0, 30.0, "criterion 2")
    print(f"\nACCEPTANCE 2 PASS subdivision suite ({elapsed:.2f}s < 30s)")


def _generic_chain(name, seed):
    """Subdivision, MPCP/MPCS report and singularity certificate of a generic chain."""
    vt = fixture(name)
    cfg = project_config(reweighted(vt, generic_weights(vt, seed)))
    sub = regular_subdivision(cfg)
    mpcp = check_mpcp(sub, cfg)
    cert = certify_isolated_singularity(sub, cfg, mpcp)
    # the certificate runs the lift: every lifted cell passed its three checks
    assert cert.links[1] == ("lifted_triangulation", True,
                             f"{len(sub.cells)} simplices certified")
    return cfg, sub, check_mpcs(sub, cfg, mpcp), cert


@pytest.fixture(scope="module")
def cubic_fourfold_generic():
    """The cubic-fourfold generic chain and the oracle's volume of its hull,
    built once for the two tests that read them.  The hull volume (a pulling
    triangulation of all 25 points) is most of the work; ``seconds`` is added
    to each test's elapsed time, so each budget still covers it."""
    t0 = time.monotonic()
    cfg, sub, full, cert = _generic_chain("cubic-fourfold", 1)
    hull_volume = normalized_volume([cfg.coords[pid] for pid in cfg.ids])
    return SimpleNamespace(cfg=cfg, sub=sub, full=full, cert=cert, hull_volume=hull_volume,
                           seconds=time.monotonic() - t0)


def test_criterion_2_cubic_fourfold_generic_chain(cubic_fourfold_generic):
    # the paper's K3-category case: the full chain on the benchmark's weights
    chain = cubic_fourfold_generic
    t0 = time.monotonic() - chain.seconds
    cfg, sub, full, cert = chain.cfg, chain.sub, chain.full, chain.cert
    assert len(sub.cells) == 104
    assert full.mpcp and full.mpcs and full.is_triangulation
    assert cert.certified and cert.failing_link is None
    # the cells tile the hull: volumes by the oracle's own pulling triangulation
    assert subdivision_volume(sub, cfg) == chain.hull_volume == 729
    elapsed = _elapsed_guard(t0, 30.0, "criterion 2, cubic fourfold")
    print(f"\nACCEPTANCE 2 PASS cubic-fourfold generic chain ({elapsed:.2f}s < 30s)")


def test_criterion_2_cubic_fourfold_generic_cells_pass_the_oracle_checks(cubic_fourfold_generic):
    # the printed cells and support functionals, checked by oracle code alone:
    # each functional supports its cell exactly, the cells fill the hull, and
    # every cell facet is shared by exactly two cells on opposite sides or
    # lies on the hull boundary
    t0 = time.monotonic() - cubic_fourfold_generic.seconds
    vt = fixture("cubic-fourfold")
    weights = generic_weights(vt, 1)
    fans = section_fans(reweighted(vt, weights))
    cfg = project_config(vt)
    heights = {pid: weights.get(cfg.lifts[pid], 0) for pid in cfg.ids}
    cells = [tuple(cell) for cell in fans["cells"]]
    assert len(cells) == 104
    for cell in cells:
        support = fans["supports"]["|".join(cell)]
        a, c = [Fraction(x) for x in support["a"]], Fraction(support["c"])
        for pid in cfg.ids:
            value = sum(x * y for x, y in zip(a, cfg.coords[pid])) + c
            assert value == heights[pid] if pid in cell else value < heights[pid]
    hull_volume = cubic_fourfold_generic.hull_volume
    assert subdivision_volume(SimpleNamespace(cells=cells), cfg) == hull_volume == 729

    def side(normal, base, pid):
        return sum(g * (x - y) for g, x, y in zip(normal, cfg.coords[pid], base))

    facets = {}
    for cell in cells:
        pts = [cfg.coords[pid] for pid in cell]
        for contact, normal in _facets_by_scan(pts, cfg.dim).items():
            facets.setdefault(frozenset(cell[k] for k in contact), []).append((cell, normal))
    for facet, owners in facets.items():
        base = cfg.coords[next(iter(facet))]
        if len(owners) == 1:
            (_, normal), = owners
            assert all(side(normal, base, pid) <= 0 for pid in cfg.ids)
        else:
            (cell1, normal1), (cell2, normal2) = owners
            for normal, other in ((normal1, cell2), (normal2, cell1)):
                values = [side(normal, base, pid) for pid in other]
                assert min(values) == 0 < max(values)
    elapsed = _elapsed_guard(t0, 10.0, "criterion 2, cubic-fourfold oracle checks")
    print(f"\nACCEPTANCE 2 PASS cubic-fourfold generic cells by oracle ({elapsed:.2f}s < 10s)")


def test_criterion_2_zmanifold_generic_chain():
    # the rigid CY3 case: 888 simplices in dimension 6
    t0 = time.monotonic()
    _, sub, full, cert = _generic_chain("z-manifold", 1)
    assert len(sub.cells) == 888
    assert full.mpcp and full.mpcs and full.is_triangulation
    assert cert.certified and cert.failing_link is None
    elapsed = _elapsed_guard(t0, 20.0, "criterion 2, z-manifold")
    print(f"\nACCEPTANCE 2 PASS z-manifold generic chain ({elapsed:.2f}s < 20s)")


def test_criterion_3_algebra_oracle_suite():
    t0 = time.monotonic()

    # the quotient-algebra dims agree class by class with the cohomology of
    # the oracle's independent Koszul complex
    for n in (3, 4, 5):
        blocks = (tuple(range(n)),)
        dims = dict(graded_pairs(koszul_cohomology_dims(n, n + 2)))
        for cls in degree_classes(blocks, n, n + 2):
            assert dims.get(cls, 0) == koszul_class_dimension(blocks, n, cls), \
                f"graded dims differ for n={n} at {cls}"

    # the oracle's differential squares to zero
    from itertools import combinations
    for n in (3, 4, 5):
        blocks = (tuple(range(n)),)
        for size in range(n + 1):
            for K in combinations(range(n), size):
                once = _koszul_image(blocks, sum(1 << i for i in K), (0,) * n)
                twice = {}
                for mono, c1 in once.items():
                    for m2, c2 in _koszul_image(blocks, *mono).items():
                        twice[m2] = twice.get(m2, 0) + c1 * c2
                assert all(v == 0 for v in twice.values())

    # deformation classes: exactly the first-order classes survive
    for name, count in (("quartic", 22), ("cubic-fourfold", 24), ("z-manifold", 36)):
        vt = fixture(name)
        cls = enumerate_deformation_classes(vt)
        assert cls.surviving == vt.xi0
        assert len(cls.surviving) == count
        # every |h| = 2 candidate was killed by the sign rule, none survived

    elapsed = _elapsed_guard(t0, 60.0, "criterion 3")
    print(f"\nACCEPTANCE 3 PASS algebra oracle suite ({elapsed:.2f}s < 60s)")


def test_criterion_4_identity_suite():
    t0 = time.monotonic()
    iso_expect = {"elliptic": -2, "quartic": -3, "cubic-fourfold": -4,
                  "z-manifold": -6}
    rng = random.Random(99)
    for name, iso in sorted(iso_expect.items()):
        vt = fixture(name)
        w = build_superpotential(vt)
        mf = build_koszul_mf(w)
        assert mf.verify_factorization()
        assert check_wflips(w)
        for _ in range(10):
            v = random_admissible_v(vt, rng)
            assert check_wflips(build_superpotential(
                validate(vt.input._replace(volume_orders=v))))
        gd = build_grading_data(vt)
        assert check_commutative_square(vt, gd)
        assert coker_H(vt, gd).invariant_factors == ()
        report = dualize_mf(mf)
        assert report.iso_degree == iso
        assert report.intertwines
    elapsed = _elapsed_guard(t0, 10.0, "criterion 4")
    print(f"\nACCEPTANCE 4 PASS identity suite ({elapsed:.2f}s < 10s)")


def test_criterion_5_determinism(tmp_path):
    cfg_path = tmp_path / "quartic.json"
    cfg_path.write_text(json.dumps({
        "blocks": [[1, 2, 3, 4]],
        "d": [4, 4, 4, 4],
        "lattice": {"congruences": [{"c": [1, 1, 1, 1], "mod": 4}]},
        "lambda": "uniform:1",
    }))

    def run(*python_flags):
        proc = subprocess.run(
            [sys.executable, *python_flags, "-m", "mirrorcone.cli", "analyze",
             str(cfg_path), "--algebra", "--cutoff", "5"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    outputs = [run(), run(), run("-O"), run("-O")]
    assert len(set(outputs)) == 1, "reports differ across runs or under python -O"
    print("\nACCEPTANCE 5 PASS determinism (byte-identical across runs and under python -O)")


# Counts known independently of this code.  |Xi_0| - dim counts the toric
# divisors of the mirror's MPCP resolution less its dimension: the polynomial
# deformations of the hypersurface.
POLYNOMIAL_DEFORMATIONS = {
    # h^{2,1} = 101 of the quintic threefold (Candelas-de la Ossa-Green-Parkes,
    # "A pair of Calabi-Yau manifolds as an exactly soluble superconformal
    # theory", 1991)
    "quintic": 101,
    # h^{2,1} = 103 of X_6(1,1,1,1,2) and 145 of X_10(1,1,1,2,5) (Klemm-Theisen,
    # "Considerations of one-modulus Calabi-Yau compactifications", 1993)
    "sextic": 103,
    "dectic": 145,
    # 83 of the h^{2,1} = 86 of X_8(1,1,2,2,2): the other 3 deformations are not
    # polynomial (Candelas-de la Ossa-Font-Katz-Morrison, "Mirror symmetry for
    # two-parameter models I", 1994)
    "octic": 83,
    # the rank 19 of the lattice polarizing the mirror family of the quartic K3
    # (Dolgachev, "Mirror symmetry for lattice polarized K3 surfaces", 1996)
    "quartic": 19,
}


@pytest.mark.parametrize("name", POLYNOMIAL_DEFORMATIONS)
def test_paper_counts_of_polynomial_deformations(name):
    config = (input_echo(fixture(name)) if name == "quartic"
              else greene_plesser_config(name))
    vt = validate(parse_config(config))
    congruences = [(c["c"], c["mod"]) for c in config["lattice"]["congruences"]]
    # Xi: the degree-d monomials in M_bar, counted by a box scan
    assert len(vt.xi) == len(box_scan_xi(config["d"], congruences))
    assert len(vt.xi0) - project_config(vt).dim == POLYNOMIAL_DEFORMATIONS[name]
    assert len(enumerate_deformation_classes(vt).surviving) == len(vt.xi0)


# h^{2,1} of the four Greene-Plesser threefolds, cited above: 101 for the
# quintic, 103 and 145 for the sextic and the dectic, 86 for the octic.  No
# fourfold or Fano number is pinned without a source that states it.
H21 = {"quintic": 101, "sextic": 103, "octic": 86, "dectic": 145}


@pytest.mark.parametrize("name", H21)
def test_batyrev_formula_accounts_for_the_polynomial_deformations(name):
    # the oracle computes from the degrees alone; its codimension-2 term is the
    # non-polynomial part, so |Xi_0| - dim from mirrorcone plus it is h^{2,1}
    h21, correction = batyrev_h21(GREENE_PLESSER_DEGREES[name])
    assert h21 == H21[name]
    assert correction == (3 if name == "octic" else 0)
    vt = validate(parse_config(greene_plesser_config(name)))
    assert len(vt.xi0) - project_config(vt).dim + correction == H21[name]


# sha256 of each Greene-Plesser hypersurface's report with every section but
# fans at cutoff 6, recorded from the degree-class scan of the algebra tables
GREENE_PLESSER_DIGESTS = {
    "quintic": "3d571c10efb5569c661bd7891e66e795674a532d1f9d0aafa52e7dd075b8d316",
    "sextic": "70dc4da295e2c51ed6e0beedfe4d09c0ccc2e55eac5c4a4d641a7ddd9fbed471",
    "octic": "b23ca4fd8beb21437995f00f031a247dca9fcb97df12726f9e3f43f6ef4d921f",
    "dectic": "8f9ea4a3495d3e5f69836cf7b060236383d9950789c301db28a2b6ceed9a94f8",
    "sextic-fourfold": "9082fc5937592b7c94401300fef9ee53a049c7c95d41729cd33e86aceeb03b1a",
}


@pytest.mark.parametrize("name", GREENE_PLESSER_DEGREES)
def test_greene_plesser_hypersurfaces_through_the_algebra_section(tmp_path, capsys, name):
    # the paper's own examples; with uniform weights their MPCS walk is refused
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(greene_plesser_config(name)))
    t0 = time.monotonic()
    code = main(["analyze", str(cfg), "--sections",
                 "validation,conditions,groups,grading,bside,algebra", "--cutoff", "6"])
    elapsed = _elapsed_guard(t0, 30.0, f"{name} through the algebra section")
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GREENE_PLESSER_DIGESTS[name]
    print(f"\nACCEPTANCE 6 PASS {name} through the algebra section ({elapsed:.2f}s < 30s)")


@pytest.mark.parametrize("n, args", [(8, ["--sections", "fans"]), (5, [])],
                         ids=["octic-in-p7-fans", "uniform-quintic-default"])
def test_uniform_single_blocks_refuse_the_mpcs_walk(tmp_path, capsys, n, args):
    # millions of boundary-relevant subsets in a few coarse cells (ROADMAP
    # item 3): the walk stops at the cone limit, with no recursion to overflow
    cfg = tmp_path / f"single-block-{n}.json"
    cfg.write_text(json.dumps(single_block_config(n)))
    t0 = time.monotonic()
    code = main(["analyze", str(cfg), *args])
    _elapsed_guard(t0, 30.0, f"the degree-{n} single block")
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("IndexSetTooLarge:")


def test_nine_index_block_refuses_the_algebra_table(tmp_path, capsys):
    # 1,915,705 exponents at cutoff 9: refused before any slice is ranked
    cfg = tmp_path / "single-block-9.json"
    cfg.write_text(json.dumps(single_block_config(9)))
    t0 = time.monotonic()
    code = main(["analyze", str(cfg), "--sections", "validation,algebra", "--cutoff", "9"])
    _elapsed_guard(t0, 10.0, "the degree-9 single block through the algebra section")
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == ("IndexSetTooLarge: 1915705 exponents of a block of size 9 "
                            "at cutoff 9 exceed the limit 1000000\n")


# Multi-block inputs whose graded dims would expand to more rows than the
# writer is let print: the z-manifold wrote 482 MB at cutoff 20 before the
# bound.  Six cubic blocks skip the fans section, which alone takes most of
# the budget.
GRADED_ROWS_REFUSALS = {
    "z-manifold": (lambda: input_echo(fixture("z-manifold")), ["--sections", "algebra"], 20,
                   "up to 3307949 graded rows of 3 blocks at cutoff 20"),
    "cubic-blocks-6": (lambda: input_echo(validate(cubic_block_input(6))),
                       ["--sections", "validation,algebra"], 3,
                       "up to 10779215329 graded rows of 6 blocks at cutoff 3"),
}


@pytest.mark.parametrize("name", GRADED_ROWS_REFUSALS)
def test_multi_block_graded_dims_refuse_the_row_bound(tmp_path, capsys, name):
    config, sections, cutoff, message = GRADED_ROWS_REFUSALS[name]
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(config()))
    t0 = time.monotonic()
    code = main(["analyze", str(cfg), *sections, "--cutoff", str(cutoff)])
    _elapsed_guard(t0, 10.0, f"{name} through the algebra section")
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    lines = captured.err.strip().splitlines()
    assert lines == [f"IndexSetTooLarge: {message} exceed the limit 1000000"]


# sha256 of the octic in P^7's report through the algebra section at cutoff 8
# (289,311 exponents, a 130 MB report), recorded while the sign-killed pairs
# were still ranked.  It runs in its own process and is hashed from its file
# in chunks; the timeout only stops a stall.
OCTIC_IN_P7_ALGEBRA_DIGEST = "8f066424a49d8ce817c4893cd19763c7a873b161afa325c9769783bc89c0c3a9"


def test_octic_in_p7_through_the_algebra_section(tmp_path):
    cfg, report = tmp_path / "single-block-8.json", tmp_path / "report.json"
    cfg.write_text(json.dumps(single_block_config(8)))
    proc = subprocess.run([sys.executable, "-m", "mirrorcone.cli", "analyze", str(cfg),
                           "--sections", "validation,algebra", "--cutoff", "8",
                           "--out", str(report)], capture_output=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == b""
    digest = hashlib.sha256()
    with report.open("rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    report.unlink()
    assert digest.hexdigest() == OCTIC_IN_P7_ALGEBRA_DIGEST


# sha256 of the default `analyze` report (every section but algebra, fans on
# a fine triangulation) of the Greene-Plesser threefolds and the mixed-block
# inputs with generic seed 1, recorded before the degree certificates moved
# from Fractions to (q, d).  The sextic fourfold waits on ROADMAP item 4.
GENERIC_SEED_1_DIGESTS = {
    "quintic": "666717c560690edd2c0fe1f7ae967289293a9e4b8845dbbce56a5935cacb4bc2",
    "sextic": "6dbba8a26beec9c0a303b9b5d9b0046ab7d8d87ce7455b4e25ea630f1d921c8c",
    "octic": "a8a61db499345678b547c3b5bd8aa1f00451f5c5c89ee4de955e622d5d4387b0",
    "dectic": "1493315d39e4d1afbf84e5235069119c70348bae45d0cf73c205e782568bc7d0",
    "e33+k4": "b5801c7464fa95f09ce454dc6ec0ad4d16784292bf9ba05dbf6aa01039f3df82",
    "e244+e33": "122fe2533854c9e0acc5b493f5b006f466af915b8d09ce696138c78522c3c388",
}


@pytest.mark.parametrize("name", GENERIC_SEED_1_DIGESTS)
def test_paper_examples_with_generic_weights_through_default_analyze(tmp_path, capsys, name):
    config = MIXED_BLOCK_CONFIGS.get(name) or greene_plesser_config(name)
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(generic_config(config, 1)))
    t0 = time.monotonic()
    code = main(["analyze", str(cfg)])
    elapsed = _elapsed_guard(t0, 30.0, f"{name} with generic seed 1")
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GENERIC_SEED_1_DIGESTS[name]
    print(f"\nACCEPTANCE 7 PASS {name} with generic seed 1 ({elapsed:.2f}s < 30s)")


# sha256 of the default `analyze` report of the largest certified
# triangulations: the sextic fourfold at generic seed 1 (7,228 simplices in
# dim 5) and five and six cubic blocks (243 and 729 simplices, r = 5 and 6).
# Each runs in its own process; the timeout only stops a stall.
LARGE_TRIANGULATION_DIGESTS = {
    "sextic-fourfold": "bd5c844c68faf59ee806c7872498813c057a44bb076a7c325af7dd227ee46af0",
    "cubic-blocks-5": "9edce2ce258b874e0a1461d30f62074924fa9280ec2d4a359bc71aebcfd0096e",
    "cubic-blocks-6": "f7ab3d160c8ee65eeec4aa79a1c0a6cf915cf2fc48f1218a143a63661dde42e6",
}


@pytest.mark.parametrize("name", LARGE_TRIANGULATION_DIGESTS)
def test_largest_triangulations_through_default_analyze(tmp_path, name):
    config = (generic_config(greene_plesser_config(name), 1) if name == "sextic-fourfold"
              else input_echo(validate(cubic_block_input(int(name.rsplit("-", 1)[1])))))
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(config))
    proc = subprocess.run([sys.executable, "-m", "mirrorcone.cli", "analyze", str(cfg)],
                          capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    fans = json.loads(proc.stdout)["sections"]["fans"]
    assert fans["conditions"]["mpcs"] and fans["isolated_singularity"]["certified"]
    assert hashlib.sha256(proc.stdout).hexdigest() == LARGE_TRIANGULATION_DIGESTS[name]


# sha256 of the default `analyze --perturb 1` report of the four fixtures, the
# Greene-Plesser threefolds and the mixed-block inputs, all with uniform
# weights, recorded when --perturb became one more pivot on h + eps*f + eps2*g
PERTURB_SEED_1_DIGESTS = {
    "elliptic": "4c07744a9f2646d34ae142b14b1e7657af7bb06215492bdfbce5653a8a89b220",
    "quartic": "958466bb1c57ba76c1ae662ff1ddee152fd8b1cfebf1a95d42dd790ec70ca378",
    "cubic-fourfold": "a1a12e7bae092263944fb805c2d8d552ff06835b394282527472cf74f4f3796a",
    "z-manifold": "234a1620e5e25ff87c62bed75321dd3200323f1ab8cb962ce16e8aebf8f608e5",
    "quintic": "fc2579951fb54b235f826efdd045a187360a3c6cf8185bbb695538fa59d735fd",
    "sextic": "e3765d28835371d292831efa14dbf9060bc0403929ce4c00a94bf79cc979dd9f",
    "octic": "6043a86b7b9d78964be9e18da6a94b5efb57eed2536e51559a314e3937596169",
    "dectic": "89eeae71df840f214b97e34bc633dea46cc93b36f115925ba49e5889e7b69022",
    "e33+k4": "4282d899c191d491bcd15d019f11ac4b0be572ee2d9a2d32450e6abc1d9743b7",
    "e244+e33": "2e37f306915aa96652d2f9991f3bcf21c6f755b75d3bbe0e461960bdf40dee71",
}


@pytest.mark.parametrize("name", PERTURB_SEED_1_DIGESTS)
def test_paper_examples_refine_to_certified_triangulations(tmp_path, capsys, name):
    config = (input_echo(fixture(name)) if name in FIXTURE_NAMES
              else MIXED_BLOCK_CONFIGS.get(name) or greene_plesser_config(name))
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(config))
    t0 = time.monotonic()
    code = main(["analyze", str(cfg), "--perturb", "1"])
    elapsed = _elapsed_guard(t0, 30.0, f"{name} with --perturb 1")
    out = capsys.readouterr().out
    assert code == 0
    fans = json.loads(out)["sections"]["fans"]
    assert fans["perturbed"] and fans["conditions"]["mpcp"] and fans["conditions"]["mpcs"]
    assert fans["isolated_singularity"]["certified"]
    # each refined cell lies in its parent, a cell of the unperturbed star
    vt = validate(parse_config(config))
    star = {"|".join(cell) for cell in regular_subdivision(project_config(vt)).cells}
    for cell, entry in fans["supports"].items():
        parent = entry.get("parent", cell)
        assert parent in star and set(cell.split("|")) <= set(parent.split("|"))
    assert hashlib.sha256(out.encode()).hexdigest() == PERTURB_SEED_1_DIGESTS[name]
    print(f"\nACCEPTANCE 8 PASS {name} with --perturb 1 ({elapsed:.2f}s < 30s)")
