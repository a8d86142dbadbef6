import json
import subprocess
import sys

import pytest

from mirrorcone.cli import main, parse_config, ConfigError

QUARTIC_CFG = {
    "blocks": [[1, 2, 3, 4]],
    "d": [4, 4, 4, 4],
    "lattice": {"congruences": [{"c": [1, 1, 1, 1], "mod": 4}]},
    "lambda": "uniform:1",
}


def write_cfg(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run_cli(args, env=None):
    import os
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "mirrorcone.cli", *args],
                         capture_output=True, text=True, env=full_env)


def test_examples_list():
    proc = run_cli(["examples", "list"])
    assert proc.returncode == 0
    assert proc.stdout.split() == ["elliptic", "quartic", "cubic-fourfold", "z-manifold"]


def test_examples_show_quartic():
    proc = run_cli(["examples", "show", "quartic"])
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["blocks"] == [[1, 2, 3, 4]]
    assert data["d"] == [4, 4, 4, 4]
    assert data["lattice"]["congruences"] == [{"c": [1, 1, 1, 1], "mod": 4}]


def test_examples_show_unknown():
    proc = run_cli(["examples", "show", "nonsense"])
    assert proc.returncode == 2


def test_validate_ok(tmp_path):
    cfg = write_cfg(tmp_path, QUARTIC_CFG)
    proc = run_cli(["validate", cfg])
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["xi0_count"] == 22


def test_validate_block_too_small(tmp_path):
    cfg = write_cfg(tmp_path, {
        "blocks": [[1, 2]], "d": [2, 2],
        "lattice": {"congruences": [{"c": [1, 1], "mod": 2}]}})
    proc = run_cli(["validate", cfg])
    assert proc.returncode == 1
    assert "BlockTooSmall" in proc.stderr


def test_validate_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    proc = run_cli(["validate", str(path)])
    assert proc.returncode == 2


def test_analyze_quartic_report(tmp_path):
    cfg = write_cfg(tmp_path, QUARTIC_CFG)
    proc = run_cli(["analyze", cfg])
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    sections = report["sections"]
    assert sections["validation"]["xi0_count"] == 22
    assert sections["groups"]["G"] == [4]
    assert sections["groups"]["Gamma"] == []
    assert sections["conditions"]["nef_partition"]["holds"] is True
    assert sections["conditions"]["embeddedness"]["holds"] is True
    assert sections["conditions"]["no_bc"]["holds"] is True
    # uniform weights: the coarse star, honestly not a triangulation
    assert sections["fans"]["cell_count"] == 4
    assert sections["fans"]["conditions"]["mpcp"] is False
    assert sections["bside"]["term_count"] == 23
    assert sections["bside"]["dual_iso_degree"] == -3


def test_analyze_zmanifold_sections_filter(tmp_path):
    proc = run_cli(["examples", "show", "z-manifold"])
    cfg = write_cfg(tmp_path, json.loads(proc.stdout))
    proc = run_cli(["analyze", cfg, "--sections", "conditions,groups"])
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert sorted(report["sections"]) == ["conditions", "groups"]
    assert report["sections"]["groups"]["Gamma"] == [3]
    emb = report["sections"]["conditions"]["embeddedness"]
    assert emb["holds"] is False
    assert emb["witnesses"][0] == [1, 4, 7]


def test_analyze_unknown_section(tmp_path):
    cfg = write_cfg(tmp_path, QUARTIC_CFG)
    proc = run_cli(["analyze", cfg, "--sections", "nonsense"])
    assert proc.returncode == 2


def test_analyze_algebra_requires_cutoff(tmp_path):
    cfg = write_cfg(tmp_path, QUARTIC_CFG)
    proc = run_cli(["analyze", cfg, "--algebra"])
    assert proc.returncode == 2


def test_analyze_perturb_triangulates(tmp_path):
    cfg = write_cfg(tmp_path, QUARTIC_CFG)
    proc = run_cli(["analyze", cfg, "--sections", "fans", "--perturb", "5"])
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    fans = report["sections"]["fans"]
    assert fans["perturbed"] is True
    assert all(len(c) == 4 for c in fans["cells"])


def test_analyze_perturb_certifies_the_printed_cells(tmp_path):
    cfg = write_cfg(tmp_path, QUARTIC_CFG)
    proc = run_cli(["analyze", cfg, "--sections", "fans", "--perturb", "3"])
    assert proc.returncode == 0
    fans = json.loads(proc.stdout)["sections"]["fans"]
    name, _, detail = fans["isolated_singularity"]["links"][0]
    assert name == "mpcp"
    assert fans["cell_count"] == 26
    assert detail.startswith(f"{fans['cell_count']} cells")


def _quartic_with(**changes):
    cfg = json.loads(json.dumps(QUARTIC_CFG))
    cfg.update(changes)
    return cfg


@pytest.mark.parametrize("cfg, code", [
    (_quartic_with(lattice={"congruences": [{"mod": 4}]}), 2),
    (_quartic_with(lattice={"congruences": [{"c": [1, 1, 1], "mod": 4}]}), 2),
    (_quartic_with(lattice={"generators": [[4, 0, 0, 0], [1, 1, 1]]}), 2),
    (_quartic_with(v=[1, 1, 1]), 2),
    (_quartic_with(b_valuations=["1/2"]), 2),
    (_quartic_with(d=[4, 4, 4, 0]), 1),
], ids=["congruence-without-c", "short-c", "short-generator", "short-v",
        "b-valuations-list", "zero-degree"])
def test_malformed_config_exits_cleanly(tmp_path, cfg, code):
    proc = run_cli(["analyze", write_cfg(tmp_path, cfg)])
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    if code == 1:
        assert "degrees must be positive" in proc.stderr


def test_analyze_out_file(tmp_path):
    cfg = write_cfg(tmp_path, QUARTIC_CFG)
    out = tmp_path / "report.json"
    proc = run_cli(["analyze", cfg, "--out", str(out)])
    assert proc.returncode == 0
    assert json.loads(out.read_text())["tool"]["name"] == "mirrorcone"


def test_determinism_across_runs_and_threads(tmp_path):
    cfg = write_cfg(tmp_path, QUARTIC_CFG)
    args = ["analyze", cfg, "--algebra", "--cutoff", "4"]
    outputs = [
        run_cli(args).stdout,
        run_cli(args).stdout,
        run_cli(args, env={"MIRRORCONE_THREADS": "1"}).stdout,
        run_cli(args, env={"MIRRORCONE_THREADS": "4"}).stdout,
    ]
    assert len(set(outputs)) == 1


def test_parse_config_errors():
    with pytest.raises(ConfigError):
        parse_config([])
    with pytest.raises(ConfigError):
        parse_config({"blocks": [[1, 2, 3]], "d": [3, 3, 3]})
    with pytest.raises(ConfigError):
        parse_config({"blocks": [[1, 2, 3]], "d": [3, 3, 3],
                      "lattice": {"congruences": [{"c": [1, 1, 1], "mod": 3}]},
                      "lambda": "weird"})


def test_main_entry_point(tmp_path):
    cfg = write_cfg(tmp_path, QUARTIC_CFG)
    assert main(["validate", cfg]) == 0
