import io
import json
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mirrorcone import toricdata
from mirrorcone.cli import load_config, main, parse_config, ConfigError
from mirrorcone.fixtures import FIXTURE_NAMES, fixture
from mirrorcone.intlat import FiniteAbelianGroup
from mirrorcone.report import ALL_SECTIONS, build_report, input_echo, write_json
from oracles import graded_rows_as_dicts
from tests_support import generic_weights, graded_pairs, random_admissible_v

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "mirrorcone"

QUARTIC_CFG = {
    "blocks": [[1, 2, 3, 4]],
    "d": [4, 4, 4, 4],
    "lattice": {"congruences": [{"c": [1, 1, 1, 1], "mod": 4}]},
    "lambda": "uniform:1",
}


def write_cfg(tmp_path, data, name="cfg.json"):
    """Write data as JSON; a string is written as it is."""
    path = tmp_path / name
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    return str(path)


def run_cli(args, python_flags=()):
    return subprocess.run([sys.executable, *python_flags, "-m", "mirrorcone.cli", *args],
                          capture_output=True, text=True, timeout=120)


# Runs cli.main on its arguments in a fresh interpreter (pytest itself loads
# dataclasses) and prints the loaded module names as its last stdout line.
FOOTPRINT = """
import json, sys
from mirrorcone import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


def loaded_modules(args):
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT, *args],
                          capture_output=True, text=True, timeout=120)
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    return set(modules)


# What argparse loads: gettext on import, locale on its first message lookup.
# main parses argv from its own table, so no command loads any of them.
ARGPARSE_MODULES = {"argparse", "gettext", "locale"}


def test_validate_loads_only_cli_toricdata_and_intlat(tmp_path):
    modules = loaded_modules(["validate", write_cfg(tmp_path, QUARTIC_CFG)])
    assert {m for m in modules if m.startswith("mirrorcone")} == {
        "mirrorcone", "mirrorcone.cli", "mirrorcone.toricdata", "mirrorcone.intlat"}
    assert not ARGPARSE_MODULES & modules


def test_sections_load_only_the_modules_they_call(tmp_path):
    # fans serves only the fans section and koszulalg only the algebra section
    cfg, out = write_cfg(tmp_path, QUARTIC_CFG), str(tmp_path / "report.json")
    bside_algebra = loaded_modules(["analyze", cfg, "--out", out, "--sections",
                                    "validation,conditions,groups,grading,bside,algebra",
                                    "--cutoff", "6"])
    assert "mirrorcone.koszulalg" in bside_algebra
    assert "mirrorcone.fans" not in bside_algebra
    default = loaded_modules(["analyze", cfg, "--out", out])
    assert "mirrorcone.fans" in default
    assert "mirrorcone.koszulalg" not in default
    everything = loaded_modules(["analyze", cfg, "--out", out, "--algebra", "--cutoff", "4"])
    assert {"mirrorcone.fans", "mirrorcone.koszulalg"} <= everything
    shown = loaded_modules(["examples", "show", "quartic"])
    assert {m for m in shown if m.startswith("mirrorcone")} == {
        "mirrorcone", "mirrorcone.cli", "mirrorcone.fixtures", "mirrorcone.toricdata",
        "mirrorcone.intlat"}
    for modules in (bside_algebra, default, everything, shown):
        assert not ARGPARSE_MODULES & modules


def test_analyze_loads_neither_dataclasses_nor_inspect(tmp_path):
    vt = fixture("quartic")
    cfg = input_echo(toricdata.validate(vt.input._replace(weights=generic_weights(vt, 1))))
    modules = loaded_modules(["analyze", write_cfg(tmp_path, cfg),
                              "--out", str(tmp_path / "report.json")])
    assert "mirrorcone.fans" in modules
    assert not {"dataclasses", "inspect"} & modules


# The command line contract (README, CLI section), argv through main with CFG
# standing for the quartic config.  Each accepted argv: its exit code and the
# report sections it prints (None when it prints no report).
ACCEPTED_ARGV = {
    "validate": (["validate", "CFG"], 0, None),
    "option-after-config": (["analyze", "CFG", "--sections", "groups"], 0, ["groups"]),
    "option-before-config": (["analyze", "--sections", "groups", "CFG"], 0, ["groups"]),
    "option-equals-value": (["analyze", "--sections=groups,validation", "CFG"], 0,
                            ["groups", "validation"]),
    "last-repeat-wins": (["analyze", "CFG", "--sections", "validation", "--sections", "groups"],
                         0, ["groups"]),
    "last-int-repeat-wins": (["analyze", "CFG", "--sections", "algebra", "--cutoff", "3",
                              "--cutoff", "4"], 0, ["algebra"]),
    "flag-and-ints-anywhere": (["analyze", "--algebra", "CFG", "--cutoff", "4", "--perturb", "2",
                                "--sections", "validation"], 0, ["validation"]),
    # a negative integer is a value, which cmd_analyze then refuses
    "negative-cutoff": (["analyze", "CFG", "--sections", "algebra", "--cutoff", "-1"], 2, None),
    "negative-cutoff-equals": (["analyze", "CFG", "--sections", "algebra", "--cutoff=-1"], 2,
                               None),
    "examples-list": (["examples", "list"], 0, None),
    "examples-show": (["examples", "show", "quartic"], 0, None),
}
REFUSED_ARGV = {
    "no-command": [],
    "unknown-command": ["bogus", "CFG"],
    "examples-without-action": ["examples"],
    "unknown-examples-action": ["examples", "bogus"],
    "unknown-option": ["analyze", "CFG", "--bogus"],
    "single-dash-option": ["analyze", "CFG", "-s", "groups"],
    "abbreviated-option": ["analyze", "CFG", "--sect", "groups"],
    "option-of-another-command": ["validate", "CFG", "--cutoff", "4"],
    "missing-value": ["analyze", "CFG", "--cutoff"],
    "option-as-value": ["analyze", "CFG", "--out", "--algebra"],
    "non-integer-value": ["analyze", "CFG", "--cutoff", "four"],
    "fractional-value": ["analyze", "CFG", "--perturb=1.5"],
    "flag-with-value": ["analyze", "CFG", "--algebra=yes"],
    "missing-config": ["analyze", "--sections", "groups"],
    "extra-positional": ["validate", "CFG", "CFG"],
    "examples-show-without-name": ["examples", "show"],
    "examples-list-with-name": ["examples", "list", "quartic"],
}


def _with_config(tmp_path, argv):
    cfg = write_cfg(tmp_path, QUARTIC_CFG)
    return [cfg if word == "CFG" else word for word in argv]


@pytest.mark.parametrize("argv, code, sections", ACCEPTED_ARGV.values(), ids=ACCEPTED_ARGV)
def test_accepted_command_lines(tmp_path, capsys, argv, code, sections):
    assert main(_with_config(tmp_path, argv)) == code
    captured = capsys.readouterr()
    if code == 2:
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error: --algebra requires --cutoff")
    else:
        assert captured.err == ""
    if sections is not None:
        assert sorted(json.loads(captured.out)["sections"]) == sections


@pytest.mark.parametrize("argv", REFUSED_ARGV.values(), ids=REFUSED_ARGV)
def test_malformed_command_lines_print_the_usage_and_exit_2(tmp_path, capsys, argv):
    assert main(_with_config(tmp_path, argv)) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == ""
    assert lines[0].startswith("usage: mirrorcone")
    assert lines[-1].startswith("mirrorcone: error: ")
    assert sum(line.startswith("mirrorcone: error:") for line in lines) == 1


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["analyze", "CFG", "--help"],
                                  ["examples", "show", "-h"], ["analyze", "--cutoff", "x", "-h"]],
                         ids=["short", "long", "analyze", "examples-show", "before-an-error"])
def test_help_anywhere_prints_the_usage_and_exits_0(tmp_path, capsys, argv):
    assert main(_with_config(tmp_path, argv)) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: mirrorcone") and captured.err == ""


@pytest.mark.parametrize("args", [["--help"], ["analyze", "-h"]], ids=["top", "analyze"])
def test_help_names_every_command_and_option(args):
    proc = run_cli(args)
    assert proc.returncode == 0 and proc.stderr == ""
    for word in ("validate CONFIG", "analyze CONFIG", "examples list", "examples show NAME",
                 "--sections SECTIONS", "--algebra", "--cutoff N", "--perturb SEED",
                 "--out FILE", "--opt=VALUE"):
        assert word in proc.stdout, word


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


@pytest.mark.parametrize("name,cutoff", (
    ("quartic", "2"), ("quartic", "-1"), ("cubic-fourfold", "2")))
def test_analyze_cutoff_below_the_largest_block_is_an_input_error(
        tmp_path, capsys, name, cutoff):
    assert main(["examples", "show", name]) == 0
    cfg = write_cfg(tmp_path, capsys.readouterr().out)
    assert main(["analyze", cfg, "--sections", "algebra", "--cutoff", cutoff]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("input error: --algebra requires --cutoff")


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
    assert fans["cell_count"] == 40
    assert detail.startswith(f"{fans['cell_count']} cells")
    assert fans["conditions"]["mpcp"] and fans["conditions"]["mpcs"]
    assert fans["isolated_singularity"]["certified"]


def test_analyze_perturb_names_the_parent_of_each_refined_cell(tmp_path):
    cfg = write_cfg(tmp_path, QUARTIC_CFG)
    runs = [run_cli(["analyze", cfg, "--sections", "fans", *extra])
            for extra in ((), ("--perturb", "5"))]
    assert [proc.returncode for proc in runs] == [0, 0]
    star, perturbed = (json.loads(proc.stdout)["sections"]["fans"] for proc in runs)
    # the lift checks each printed support against the printed cells
    assert perturbed["isolated_singularity"]["certified"]
    star, perturbed = star["supports"], perturbed["supports"]
    assert not any("parent" in entry for entry in star.values())
    for cell, entry in perturbed.items():
        parent = entry.pop("parent", cell)
        assert parent in star
        assert set(cell.split("|")) <= set(parent.split("|"))
    assert len(star) < len(perturbed)


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
    (_quartic_with(lattice={"congruences": [{"c": [1, 1, 1, 1], "mod": 0}]}), 2),
    (_quartic_with(lattice={"congruences": [{"c": [1, 1, 1, 1], "mod": -3}]}), 2),
    (_quartic_with(lattice={"congruences": 5}), 2),
    (_quartic_with(lattice={"generators": 5}), 2),
    (_quartic_with(d="4444"), 2),
    (_quartic_with(blocks=["1234"]), 2),
    (_quartic_with(lattice={"congruences": [{"c": "1111", "mod": 4}]}), 2),
    (_quartic_with(v="1110"), 2),
    (_quartic_with(d=[4.9, 4, 4, 4]), 2),
    (_quartic_with(lattice={"congruences": [{"c": [1, 1, 1, 1], "mod": 4.2}]}), 2),
    (_quartic_with(lattice={"congruences": [{"c": [True, 1, 1, 1], "mod": 4}]}), 2),
    (_quartic_with(lattice={
        "congruences": [{"c": [1, 1, 1, 1], "mod": 4}],
        "generators": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}), 2),
    (_quartic_with(**{"lambda": "uniform:1e999999999"}), 2),
    (_quartic_with(b_valuations={"0,0,0,4": "1e-999999999"}), 2),
    (_quartic_with(**{"lambda": {"0,0,0,4": 0.5}}), 2),
    (_quartic_with(**{"lambda": {" 0,0,0,4": "1/2"}}), 2),
    (_quartic_with(**{"lambda": {"0_0,0,0,4": "1/2"}}), 2),
    (_quartic_with(**{"lambda": {"\u0660,0,0,\u0664": "1/2"}}), 2),
    (_quartic_with(**{"lambda": {"00,0,0,4": "1/2", "0,0,0,4": "3"}}), 2),
    (_quartic_with(b_valuations={"0,0,0,4": "1/2", "0,0,0,+4": "3"}), 2),
    (_quartic_with(b_valuations={"0,0,0,4": "1/2", "0,0,0,04": "3"}), 2),
    # a dict cannot repeat a key, so these two are written out as JSON text
    (json.dumps(_quartic_with(**{"lambda": {"0,0,0,4": "1/2"}}))
     .replace('"0,0,0,4": "1/2"', '"0,0,0,4": "1/2", "0,0,0,4": "3"'), 2),
    (json.dumps(QUARTIC_CFG)[:-1] + ', "d": [4, 4, 4, 4]}', 2),
    ("[" * 100_000 + "]" * 100_000, 2),
    ({("lamda" if k == "lambda" else k): v for k, v in QUARTIC_CFG.items()}, 2),
    (_quartic_with(extra=5), 2),
], ids=["congruence-without-c", "short-c", "short-generator", "short-v",
        "b-valuations-list", "zero-degree", "mod-zero", "mod-negative",
        "congruences-int", "generators-int", "d-string", "block-string",
        "c-string", "v-string", "d-float", "mod-float", "c-bool", "lattice-both",
        "lambda-exponent", "b-valuation-negative-exponent", "lambda-float",
        "lambda-key-space", "lambda-key-underscore", "lambda-key-arabic-indic-digits",
        "lambda-key-twice", "b-valuation-key-plus", "b-valuation-key-twice",
        "lambda-json-key-repeated", "top-level-key-repeated", "json-nested-too-deep",
        "top-level-key-lamda", "top-level-key-extra"])
def test_malformed_config_exits_cleanly(tmp_path, cfg, code, request):
    proc = run_cli(["analyze", write_cfg(tmp_path, cfg)])
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    if code == 1:
        assert "degrees must be positive" in proc.stderr
    if code == 2:
        assert proc.stderr.startswith("input error:")
    if request.node.callspec.id == "lattice-both":
        assert "lattice needs exactly one of congruences or generators" in proc.stderr
    if request.node.callspec.id.endswith("-twice"):
        assert "repeats (0, 0, 0, 4)" in proc.stderr
    if request.node.callspec.id == "lambda-json-key-repeated":
        assert "key '0,0,0,4' repeats" in proc.stderr
    if request.node.callspec.id == "top-level-key-repeated":
        assert "key 'd' repeats" in proc.stderr
    if request.node.callspec.id == "top-level-key-lamda":
        assert "unknown keys ['lamda']" in proc.stderr
    if request.node.callspec.id == "top-level-key-extra":
        assert "unknown keys ['extra']" in proc.stderr


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_every_echoed_config_loads_again(tmp_path, capsys, name):
    # what `examples show` prints and what a report echoes, with v and
    # b_valuations set so that every top-level key is written out
    assert main(["examples", "show", name]) == 0
    shown = json.loads(capsys.readouterr().out)
    vt = toricdata.validate(load_config(write_cfg(tmp_path, shown)))
    assert input_echo(vt) == shown
    full = dict(shown, v=list(random_admissible_v(vt, random.Random(7))),
                b_valuations={",".join(map(str, vt.xi0[0])): "3/2"})
    vt = toricdata.validate(load_config(write_cfg(tmp_path, full)))
    echo = input_echo(vt)
    assert sorted(echo) == sorted(["blocks", "d", "lattice", "lambda", "v", "b_valuations"])
    assert input_echo(toricdata.validate(load_config(write_cfg(tmp_path, echo)))) == echo


def test_too_many_xi_candidates_exit_1(tmp_path):
    # one block of 12 variables of degree 12: C(23, 11) = 1,352,078 candidates
    cfg = write_cfg(tmp_path, {
        "blocks": [list(range(1, 13))], "d": [12] * 12,
        "lattice": {"congruences": [{"c": [1] * 12, "mod": 12}]}})
    proc = run_cli(["analyze", cfg])
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("IndexSetTooLarge: 1352078 candidates")


@pytest.mark.parametrize("command", [["validate"], ["analyze", "--sections", "validation"]],
                         ids=["validate", "analyze-validation"])
@pytest.mark.parametrize("lam, message", [
    ("uniform:0", "ToricDataError: weights must be positive"),
    ({"0,0,0,4": "1"}, "UnknownMonomial: no weight for (0, 0, 1, 3)"),
], ids=["zero", "missing-points"])
def test_validate_resolves_lambda_on_every_xi0_point(tmp_path, capsys, command, lam, message):
    # a lambda that no fans section reads is refused as soon as it is loaded
    code = main([command[0], write_cfg(tmp_path, _quartic_with(**{"lambda": lam})),
                 *command[1:]])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0] == message


def test_empty_index_set_exits_1(tmp_path):
    cfg = write_cfg(tmp_path, {"blocks": [], "d": [], "lattice": {"congruences": []},
                               "lambda": "uniform:1"})
    proc = run_cli(["analyze", cfg])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


def test_unwritable_out_file_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, QUARTIC_CFG)
    proc = run_cli(["analyze", cfg, "--out", str(tmp_path / "missing" / "r.json")])
    assert proc.returncode == 2
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error:")


def test_config_that_is_not_utf8_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b"\xff\xfe")
    proc = run_cli(["analyze", str(cfg)])
    assert proc.returncode == 2
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error:")


_JUNK = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 6), st.text(max_size=3),
              st.sampled_from(["1/2", "uniform:1", "0/0", "1,0,0,3"])),
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.dictionaries(st.sampled_from(["c", "mod", "1,0,0,3", "x"]), kids, max_size=3)),
    max_leaves=10)
_FIELDS = ["blocks", "d", "lattice", "lambda", "v", "b_valuations",
           "congruences", "generators", "c", "mod"]


@st.composite
def _mangled_configs(draw):
    """The quartic config with one to three fields replaced by junk."""
    cfg = _quartic_with()
    for field in draw(st.lists(st.sampled_from(_FIELDS), min_size=1, max_size=3)):
        junk = draw(_JUNK)
        if field in ("congruences", "generators"):
            cfg["lattice"] = {field: junk}
        elif field in ("c", "mod"):
            cfg["lattice"] = {"congruences": [{"c": [1, 1, 1, 1], "mod": 4, field: junk}]}
        else:
            cfg[field] = junk
    return cfg


@settings(max_examples=300, deadline=None, suppress_health_check=list(HealthCheck))
@given(_mangled_configs())
def test_fuzzed_config_fails_only_with_input_or_domain_errors(cfg):
    # _load_validated maps exactly these two to exit 2 and exit 1
    try:
        toricdata.validate(parse_config(cfg))
    except (ConfigError, toricdata.ToricDataError):
        pass


def test_analyze_out_file(tmp_path):
    cfg = write_cfg(tmp_path, QUARTIC_CFG)
    out = tmp_path / "report.json"
    proc = run_cli(["analyze", cfg, "--out", str(out)])
    assert proc.returncode == 0
    assert json.loads(out.read_text())["tool"]["name"] == "mirrorcone"


def test_determinism_across_runs_and_under_python_O(tmp_path):
    # python -O strips asserts, so no certificate may be one
    cfg = write_cfg(tmp_path, QUARTIC_CFG)
    args = ["analyze", cfg, "--algebra", "--cutoff", "4"]
    procs = [run_cli(args), run_cli(args),
             run_cli(args, python_flags=("-O",)), run_cli(args, python_flags=("-O",))]
    assert all(proc.returncode == 0 for proc in procs), [p.stderr for p in procs]
    assert len({proc.stdout for proc in procs}) == 1


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


def test_analyze_writes_the_same_bytes_to_stdout_and_out_file(tmp_path):
    proc = run_cli(["examples", "show", "elliptic"])
    cfg = write_cfg(tmp_path, json.loads(proc.stdout))
    args = ["analyze", cfg, "--sections", ",".join(ALL_SECTIONS), "--cutoff", "4"]
    out = tmp_path / "report.json"
    stdout = run_cli(args)
    to_file = run_cli([*args, "--out", str(out)])
    assert stdout.returncode == to_file.returncode == 0
    report = build_report(toricdata.validate(load_config(cfg)), ALL_SECTIONS,
                          algebra_cutoff=4)
    algebra = report["sections"]["algebra"]
    algebra["graded_dims"] = graded_rows_as_dicts(graded_pairs(algebra["graded_dims"]))
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert stdout.stdout == text
    assert out.read_text() == text
    assert to_file.stdout == ""


def test_run_fixtures_script_writes_the_reports_build_report_makes(tmp_path):
    script = SRC.parents[1] / "scripts" / "run_fixtures.py"
    proc = subprocess.run([sys.executable, str(script), "--out-dir", str(tmp_path),
                           "--cutoff", "4"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{name}.json" for name in FIXTURE_NAMES)
    sections = ("validation", "conditions", "groups", "grading", "bside", "algebra", "fans")
    expected = io.StringIO()
    write_json(build_report(fixture("elliptic"), sections, algebra_cutoff=4), expected)
    assert (tmp_path / "elliptic.json").read_text() == expected.getvalue()
    zmanifold = json.loads((tmp_path / "z-manifold.json").read_text())
    assert "fans" in zmanifold["sections"]


def test_failed_certificate_exits_3(tmp_path, monkeypatch, capsys):
    # a Gamma of the wrong order falsifies the group-order identity
    monkeypatch.setattr(toricdata, "lattice_quotient",
                        lambda sup, sub: FiniteAbelianGroup((7,)))
    cfg = write_cfg(tmp_path, QUARTIC_CFG)
    assert main(["analyze", cfg, "--sections", "groups"]) == 3
    err = capsys.readouterr().err
    assert "certificate failure [GroupOrderCheckFailed]: |Gamma| * d = 28, not |G| = 4" in err, err
    assert "Traceback" not in err
