"""One run of build_report builds each shared stage once, the config's
volume orders reach every sign check, and the benchmark's tracer hooks
(``perfbench/tracing.py``, loaded by path) still find what they wrap."""

import dataclasses
import importlib
import importlib.util
import pathlib
import sys
from collections import Counter

from mirrorcone import cli, fans, grading, koszulalg, report
from mirrorcone.bside import build_superpotential
from mirrorcone.fixtures import fixture
from mirrorcone.toricdata import validate

TRACING_PY = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
STAGES = ("project_config", "regular_subdivision", "check_mpcp", "build_grading_data")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def counting(fn, name, calls):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_each_stage_runs_once_per_report(monkeypatch):
    calls = Counter()
    for name in STAGES:
        for module in (report, fans, grading):
            if hasattr(module, name):
                original = getattr(module, name)
                monkeypatch.setattr(module, name, counting(original, name, calls))
    body = report.build_report(fixture("elliptic"), report.ALL_SECTIONS,
                               algebra_cutoff=3)
    assert sorted(body["sections"]) == sorted(report.ALL_SECTIONS)
    assert len(report.ALL_SECTIONS) == 7
    assert calls == {name: 1 for name in STAGES}


def test_config_volume_orders_reach_both_sign_checks(monkeypatch):
    v = (0, 1, 1, 1)
    vt = validate(dataclasses.replace(fixture("quartic").input, volume_orders=v))
    calls = {"bside": [], "algebra": []}
    running = []
    sign_action = koszulalg.sign_action

    def recording_sign_action(a_vec, h_size, orders):
        calls[running[-1]].append((tuple(a_vec), h_size, tuple(orders)))
        return sign_action(a_vec, h_size, orders)

    def marking(name, section):
        def run(*args):
            running.append(name)
            return section(*args)
        return run

    monkeypatch.setattr(koszulalg, "sign_action", recording_sign_action)
    for name in calls:
        section = getattr(report, f"section_{name}")
        monkeypatch.setattr(report, f"section_{name}", marking(name, section))
    report.build_report(vt, ("bside", "algebra"), algebra_cutoff=4)

    assert {seen for recorded in calls.values() for _, _, seen in recorded} == {v}
    terms = {t.exponent for t in build_superpotential(vt).terms}
    assert {a for a, h, _ in calls["bside"] if h == 0} == terms
    assert {a for a, h, _ in calls["algebra"] if h == 0} >= set(vt.xi)


def test_tracer_hooks_resolve_and_record_each_section():
    tracing = load_tracing()
    for mod_name, attr, _, _ in tracing.HOOKS:
        owner = importlib.import_module(f"mirrorcone.{mod_name}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (mod_name, attr)

    sections = ("validation", "grading", "bside", "fans", "algebra")
    tracer = tracing.Tracer()
    tracer.begin_input("elliptic")
    with tracer.patched():
        report.build_report(fixture("elliptic"), sections, algebra_cutoff=3)
    names = Counter(name for _, name, _, _, _ in tracer.spans)
    assert {n: c for n, c in names.items() if n.startswith("report.")} == {
        f"report.{s}": 1 for s in sections}
    # the r = 1 graded dims pass through the hooked koszul_cohomology_dims
    assert names["koszulalg.dims"] == 1
    assert tracer.counts["elliptic"]["fans.subdivision_calls"] == 1
    assert tracer.counts["elliptic"]["grading.build_calls"] == 1


def test_tracer_patches_every_hook_and_cli_json_and_restores_them():
    # the serialize span wraps cli.json.dumps; a hook whose name is gone
    # would make patched() raise
    tracing = load_tracing()
    assert callable(cli.json.dumps)
    targets = []
    for mod_name, attr, _, _ in tracing.HOOKS:
        owner = importlib.import_module(f"mirrorcone.{mod_name}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        targets.append((owner, leaf, getattr(owner, leaf)))
    json_module = cli.json
    with tracing.Tracer().patched():
        assert all(getattr(owner, leaf) is not fn for owner, leaf, fn in targets)
        assert cli.json is not json_module
    assert all(getattr(owner, leaf) is fn for owner, leaf, fn in targets)
    assert cli.json is json_module
