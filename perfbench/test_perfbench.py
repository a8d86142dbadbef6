"""Tests of the benchmark itself: run with `python3 -m pytest perfbench -q`."""

import argparse
import hashlib
import json
import time
from pathlib import Path

import pytest

import check
import run
from workloads import WORKLOADS, batch, enumerate_xi, generic_weights

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    def configs(seed):
        return [(i.key, i.config, i.args) for i in batch(workload, seed)]

    assert configs(7) == configs(7)
    if workload == "fans-generic":
        assert configs(7) != configs(8)
        assert len({key for key, _, _ in configs(7)}) == 3
    else:
        assert sorted(configs(7)) == sorted(configs(8))


def test_generic_weight_recipe_is_frozen():
    # A later fixtures.generic_weights(vt, seed) must reproduce these bytes.
    text = json.dumps(generic_weights("quartic", 1), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "1d16228c6c75ac4373c5488c45a76a9017bf20d758bd1abe93b6b392b2ef7bc2")
    assert generic_weights("quartic", 1)["0,0,0,4"] == "81920035223/65536000000"


def test_xi0_counts():
    assert {name: len(enumerate_xi(name)[1]) for name in
            ("elliptic", "quartic", "cubic-fourfold", "z-manifold")} == {
        "elliptic": 3, "quartic": 22, "cubic-fourfold": 24, "z-manifold": 36}


def test_metric_names_match_benchmark_json():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_failed_calls_never_read_as_a_gain():
    calls = {"a": [(False, 0.1), (True, 2.0), (True, 3.0)], "b": [(False, 0.5), (False, 0.7)]}
    assert run.median_passing(calls) == {"a": 2.5, "b": 0.7}


def test_smoke_pass_on_elliptic():
    """Both kinds of run on elliptic alone: every metric named, nothing failed."""
    args = argparse.Namespace(workload="fixtures-uniform", seed=1, seconds=0,
                              trace=0, record=False)
    bench = run.Bench(args)
    inp = next(i for i in bench.write_inputs() if i.fixture == "elliptic")
    start = time.monotonic()
    e2e = bench.end_to_end([inp])
    layers = bench.per_layer([inp])
    assert time.monotonic() - start < 30
    assert bench.failures == []
    assert set(e2e) == set(run.END_TO_END) and all(v > 0 for v in e2e.values())
    assert set(layers) == set(run.PER_LAYER)
    assert layers["fans.subdivision_calls"] == 2 and layers["fans.lift_s"] > 0
    assert layers["cli.report_bytes"] == bench.report_bytes["elliptic"]
    assert not hasattr(run.import_cli().load_config, "__wrapped__")  # wrappers removed


def test_check_flags_a_falsified_report():
    inp = next(i for i in batch("bside-algebra", 1) if i.fixture == "elliptic")
    bench = run.Bench(argparse.Namespace(workload="bside-algebra", seed=1, seconds=1,
                                         trace=0, record=False))
    inp.path = bench.dir / "elliptic.json"
    inp.path.write_text(json.dumps(inp.config))
    data = bench.run_child(["analyze", str(inp.path), *inp.args]).stdout
    assert check.check_report(inp, data, {inp.key: check.digest(data)}) == []
    bad = data.replace(b'"delta_squared_is_w": true', b'"delta_squared_is_w": false')
    problems = check.check_report(inp, bad, {inp.key: check.digest(data)})
    assert len(problems) == 2  # the invariant and the digest
    assert check.check_report(inp, b"{}", {}) != []


def test_record_stores_only_passing_digests(tmp_path, monkeypatch):
    """--record adds the digest of a passing report and keeps a failing one's."""
    recorded = json.loads(run.DIGESTS.read_text())
    elliptic, quartic = "fixtures-uniform:elliptic", "fixtures-uniform:quartic"
    start = {key: value for key, value in recorded.items() if key != elliptic}
    start[quartic] = "0" * 64  # quartic's reports mismatch this and fail
    path = tmp_path / "digests.json"
    path.write_text(json.dumps(start))
    monkeypatch.setattr(run, "DIGESTS", path)
    monkeypatch.setattr(run, "batch", lambda workload, seed: [
        i for i in batch(workload, seed) if i.fixture in ("elliptic", "quartic")])
    assert run.main(["--workload", "fixtures-uniform", "--seed", "1",
                     "--seconds", "0", "--record"]) == 0
    assert json.loads(path.read_text()) == dict(start, **{elliptic: recorded[elliptic]})
