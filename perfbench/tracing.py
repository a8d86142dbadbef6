"""Spans and counters recorded from outside the program, around calls into each layer.

`Tracer.patched()` replaces the public functions of each mirrorcone module
with timing wrappers for the duration of a `with` block and restores them on
exit; the program's source is not touched.  A wrapper records one span per
call (name, parent span, start, end, input label) and the work counters of
its layer.  A call into a layer that is already active on the span stack
(for example `check_mpcs` calling `check_mpcp`) records no second span, so a
layer's time is never counted twice.  Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import contextlib
import cProfile
import functools
import importlib
import json
import os
import pstats
import time
import types
from collections import Counter


def _count_validate(c, args, vt):
    c["toricdata.xi_points"] += len(vt.xi)


def _count_grading_build(c, args, gd):
    c["grading.build_calls"] += 1


def _count_terms(c, args, w):
    c["bside.terms"] += len(w.terms)


def _count_basis(c, args, _):
    c["bside.basis_elements"] += 2 ** args[0].n


def _count_degree_classes(c, args, classes):
    c["koszulalg.degree_classes"] += len(classes)


def _count_subdivision(c, args, sub):
    dim = args[0].dim
    c["fans.subdivision_calls"] += 1
    c["fans.cells"] += len(sub.cells)
    c["fans.nonsimplicial_cells"] += sum(1 for cell in sub.cells if len(cell) != dim + 1)


def _count_lift(c, args, _):
    sub, cfg = args[0], args[1]
    c["fans.lift_tests"] += len(sub.cells) * len(cfg.vt.xi)


SECTIONS = ("validation", "conditions", "groups", "grading", "bside", "fans", "algebra")

# (module, attribute, span name or None, counter).  A function imported by
# name into another module is patched where it is looked up.
HOOKS = (
    ("cli", "load_config", "cli.load", None),
    ("cli", "validate", "toricdata.validate", _count_validate),
    ("report", "check_nef_partition", "toricdata.conditions", None),
    ("report", "check_embeddedness", "toricdata.conditions", None),
    ("report", "check_no_bc", "toricdata.conditions", None),
    ("report", "symmetry_groups", "toricdata.groups", None),
    ("report", "build_grading_data", "grading.build", _count_grading_build),
    ("report", "check_commutative_square", "grading.checks", None),
    ("report", "coker_H", "grading.checks", None),
    ("report", "p_injective_mod_z", "grading.checks", None),
    ("grading", "GradingMorphism.is_well_defined", "grading.checks", None),
    ("report", "build_superpotential", "bside.build", _count_terms),
    ("report", "build_koszul_mf", "bside.build", None),
    ("report", "check_wflips", "bside.verify", None),
    ("bside", "KoszulMF.verify_factorization", "bside.verify", _count_basis),
    ("bside", "KoszulMF.delta_degree_check", "bside.verify", None),
    ("report", "dualize_mf", "bside.dual", None),
    ("report", "koszul_cohomology_dims", "koszulalg.dims", None),
    ("report", "tensor_j_dims", "koszulalg.dims", None),
    ("report", "enumerate_deformation_classes", "koszulalg.classes", None),
    ("report", "enumerate_curvature_candidates", "koszulalg.classes", None),
    ("koszulalg", "degree_classes", None, _count_degree_classes),
    ("report", "project_config", "fans.project", None),
    ("fans", "project_config", "fans.project", None),
    ("report", "regular_subdivision", "fans.subdivision", _count_subdivision),
    ("fans", "regular_subdivision", "fans.subdivision", _count_subdivision),
    ("report", "check_mpcp", "fans.conditions", None),
    ("report", "check_mpcs", "fans.conditions", None),
    ("fans", "check_mpcp", "fans.conditions", None),
    ("fans", "lift_subdivision", "fans.lift", _count_lift),
    ("report", "certify_isolated_singularity", "fans.certify", None),
) + tuple(("report", f"section_{s}", f"report.{s}", None) for s in SECTIONS)

SPAN_METRICS = (
    "cli.load", "cli.serialize", "toricdata.validate", "toricdata.conditions",
    "toricdata.groups", "grading.build", "grading.checks", "bside.build",
    "bside.verify", "bside.dual", "koszulalg.dims", "koszulalg.classes",
    "fans.project", "fans.subdivision", "fans.conditions", "fans.lift",
    "fans.certify",
) + tuple(f"report.{s}" for s in SECTIONS)
COUNT_METRICS = (
    "cli.report_bytes", "toricdata.xi_points", "grading.build_calls",
    "bside.terms", "bside.basis_elements", "koszulalg.degree_classes",
    "fans.subdivision_calls", "fans.cells", "fans.nonsimplicial_cells",
    "fans.lift_tests",
)


class Tracer:
    """Per-run registry of spans and counters, grouped by input label."""

    def __init__(self):
        self.spans = []  # [label, name, parent index or None, start, end]
        self.counts = {}  # label -> Counter
        self.label = None
        self._stack = []

    def begin_input(self, label):
        self.label = label
        self.counts.setdefault(label, Counter())

    def _wrap(self, fn, name, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name is None or any(tracer.spans[i][1] == name for i in tracer._stack):
                result = fn(*args, **kwargs)
            else:
                parent = tracer._stack[-1] if tracer._stack else None
                span = [tracer.label, name, parent, time.perf_counter(), None]
                tracer.spans.append(span)
                tracer._stack.append(len(tracer.spans) - 1)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._stack.pop()
                    span[4] = time.perf_counter()
            if count is not None:
                count(tracer.counts[tracer.label], args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers for the duration of a `with` block, then restore the originals."""
        saved = []
        try:
            for mod_name, attr, name, count in HOOKS:
                owner = importlib.import_module(f"mirrorcone.{mod_name}")
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf] if path else getattr(owner, leaf)
                saved.append((owner, leaf, original))
                setattr(owner, leaf, self._wrap(original, name, count))
            cli = importlib.import_module("mirrorcone.cli")
            proxy = types.SimpleNamespace(**vars(cli.json))
            proxy.dumps = self._wrap(cli.json.dumps, "cli.serialize", None)
            saved.append((cli, "json", cli.json))
            cli.json = proxy
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)


def layer_metrics(tracer, labels):
    """Per-layer totals over the given inputs: span seconds, counts and glue."""
    wanted = set(labels)
    out = {f"{m}_s": 0.0 for m in SPAN_METRICS}
    out["report.glue_s"] = 0.0
    child_time = Counter()
    for label, name, parent, start, end in tracer.spans:
        if label not in wanted:
            continue
        out[f"{name}_s"] += end - start
        if parent is not None:
            child_time[parent] += end - start
    for idx, (label, name, _, start, end) in enumerate(tracer.spans):
        if label in wanted and name.startswith("report."):
            out["report.glue_s"] += (end - start) - child_time[idx]
    for m in COUNT_METRICS:
        out[m] = sum(tracer.counts.get(label, Counter())[m] for label in labels)
    return out


def write_spans(tracer, path):
    with open(path, "w") as fh:
        json.dump({"spans": tracer.spans,
                   "counts": {k: dict(v) for k, v in tracer.counts.items()}}, fh)


def profile_metrics(prof: cProfile.Profile):
    """Self time and calls in `mirrorcone.intlat`, and self time in `fractions`."""
    intlat_s = fractions_s = 0.0
    intlat_calls = 0
    intlat_suffix = os.path.join("mirrorcone", "intlat.py")
    for (filename, _, _), (_, ncalls, tottime, _, _) in pstats.Stats(prof).stats.items():
        if filename.endswith(intlat_suffix):
            intlat_s += tottime
            intlat_calls += ncalls
        elif os.path.basename(filename) == "fractions.py":
            fractions_s += tottime
    return {"intlat.self_s": intlat_s, "intlat.calls": intlat_calls,
            "fractions.self_s": fractions_s}
