"""Deterministic report assembly and the report writer.

Every collection is sorted and every rational exact, so re-running on
identical input yields byte-identical JSON (no timestamps, no floats, fixed
version string).  ``write_json`` streams a report as exactly the text of
``json.dumps(report, sort_keys=True, indent=2)`` plus a newline, in joined
batches, so the report's text is never all in memory at once.  The algebra
section holds its ``GradedDims``, whose factor tables the writer expands
into row text one run of rows per (j, prefix).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from json.encoder import encode_basestring_ascii

from . import ALL_SECTIONS, __version__
from .bside import build_koszul_mf, build_superpotential, check_wflips, dualize_mf
from .fans import (
    certify_isolated_singularity,
    check_mpcp,
    check_mpcs,
    project_config,
    regular_subdivision,
)
from .grading import (
    build_grading_data,
    check_commutative_square,
    coker_H,
    p_injective_mod_z,
)
from .koszulalg import (
    GradedDims,
    enumerate_curvature_candidates,
    enumerate_deformation_classes,
    koszul_cohomology_dims,
    runs_by_j,
    tensor_j_dims,
)
from .toricdata import (
    ValidatedToricData,
    check_embeddedness,
    check_nef_partition,
    check_no_bc,
    symmetry_groups,
)


def frac_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def _one_based(subset):
    return [i + 1 for i in subset]


def input_echo(vt: ValidatedToricData):
    inp = vt.input
    lattice = {}
    if inp.lattice.congruences is not None:
        lattice["congruences"] = [
            {"c": list(c), "mod": m} for c, m in inp.lattice.congruences]
    else:
        lattice["generators"] = [list(g) for g in inp.lattice.generators]
    weights = None
    if isinstance(inp.weights, dict):
        weights = {",".join(str(x) for x in k): frac_str(v)
                   for k, v in sorted(inp.weights.items())}
    elif inp.weights is not None:
        weights = "uniform:" + frac_str(inp.weights)
    echo = {
        "blocks": [sorted(_one_based(b)) for b in inp.blocks],
        "d": list(inp.degrees),
        "lattice": lattice,
        "lambda": weights,
    }
    if inp.volume_orders is not None:
        echo["v"] = list(inp.volume_orders)
    if inp.b_valuations is not None:
        echo["b_valuations"] = {",".join(str(x) for x in k): frac_str(v)
                                for k, v in sorted(inp.b_valuations.items())}
    return echo


def section_validation(vt):
    return {
        "valid": True,
        "d": vt.d,
        "q": list(vt.q),
        "n_sigma": [frac_str(x) for x in vt.n_sigma],
        "xi_count": len(vt.xi),
        "xi0_count": len(vt.xi0),
        "xi": [list(p) for p in vt.xi],
        "xi0": [list(p) for p in vt.xi0],
    }


def section_conditions(vt):
    nef = check_nef_partition(vt)
    emb = check_embeddedness(vt)
    nobc = check_no_bc(vt)
    nef_out = {"holds": nef.holds}
    if not nef.holds:
        j, m, pairing = nef.witnesses[0]
        nef_out["witness"] = {"block": j + 1, "m": list(m), "pairing": frac_str(pairing)}
    return {
        "nef_partition": nef_out,
        "embeddedness": {
            "holds": emb.holds,
            "witnesses": [_one_based(K) for K in emb.witnesses],
        },
        "no_bc": {
            "holds": nobc.holds,
            "witnesses": [_one_based(K) for K in nobc.witnesses],
        },
    }


def section_groups(vt):
    sg = symmetry_groups(vt)
    return {
        "G": list(sg.g.invariant_factors),
        "G_star": list(sg.g.invariant_factors),
        "Gamma": list(sg.gamma.invariant_factors),
    }


def section_grading(vt, gd):
    return {
        "volume_orders": list(vt.volume_orders),
        # build_grading_data already raised GradingError on a failing morphism
        "morphisms_well_defined": {name: True for name in sorted(gd.morphisms())},
        "commutative_square": check_commutative_square(vt, gd),
        "coker_H": list(coker_H(vt, gd).invariant_factors),
        "p_injective_mod_z": p_injective_mod_z(vt, gd),
    }


def section_bside(vt, gd):
    w = build_superpotential(vt)
    mf = build_koszul_mf(w)
    mf.verify_factorization()
    dual = dualize_mf(mf)
    return {
        "terms": [t.to_json() for t in w.terms],
        "term_count": len(w.terms),
        "weighted_homogeneous": True,
        "monomials_in_m_bar": True,
        "wflips": check_wflips(w),
        "w_split_convention": "smallest-index variable with positive exponent",
        "delta_squared_is_w": True,
        "delta_degree_one": mf.delta_degree_check(gd),
        "dual_iso_degree": dual.iso_degree,
        "dual_intertwines": dual.intertwines,
    }


def section_fans(vt, perturb_seed=None):
    cfg = project_config(vt)
    sub = regular_subdivision(cfg, vt.input.weights, perturb_seed=perturb_seed)
    mpcp = check_mpcp(sub, cfg)
    mpcs = check_mpcs(sub, cfg, mpcp)
    cert = certify_isolated_singularity(sub, cfg, mpcp)
    return {
        "dim": cfg.dim,
        "cell_count": len(sub.cells),
        "cells": [list(c) for c in sub.cells],
        "supports": {
            "|".join(cell): {"a": [frac_str(x) for x in sub.supports[cell][0]],
                             "c": frac_str(sub.supports[cell][1]),
                             **({"parent": "|".join(sub.parents[cell])}
                                if cell in sub.parents else {})}
            for cell in sub.cells},
        "perturbed": sub.perturbed,
        "conditions": mpcs.to_json(),
        "isolated_singularity": cert.to_json(),
    }


def section_algebra(vt, cutoff):
    classes = enumerate_deformation_classes(vt)
    curvature = enumerate_curvature_candidates(vt)
    dims = koszul_cohomology_dims(vt.n, cutoff) if vt.r == 1 else tensor_j_dims(vt, cutoff)
    return {
        "cutoff": cutoff,
        "graded_dims": dims,
        "deformation_classes": {
            "surviving": [list(b) for b in classes.surviving],
            "killed_in_ideal": [list(b) for b in classes.killed_in_ideal],
            "sign_killed_count": len(classes.sign_killed),
            "counts": classes.counts(),
        },
        "curvature_candidates": [_one_based(K) for K in curvature],
    }


class _Run:
    """The inputs of one report run and the data its sections share."""

    def __init__(self, vt: ValidatedToricData, algebra_cutoff: int | None,
                 perturb_seed: int | None):
        self.vt, self.algebra_cutoff, self.perturb_seed = vt, algebra_cutoff, perturb_seed

    @cached_property
    def grading(self):
        return build_grading_data(self.vt)


# Section name (ALL_SECTIONS, in report order) -> how to call it.  The section
# functions are looked up by name at call time, so a wrapper installed on this
# module sees every call.
SECTIONS = dict(zip(ALL_SECTIONS, (
    lambda run: section_validation(run.vt),
    lambda run: section_conditions(run.vt),
    lambda run: section_groups(run.vt),
    lambda run: section_grading(run.vt, run.grading),
    lambda run: section_bside(run.vt, run.grading),
    lambda run: section_fans(run.vt, run.perturb_seed),
    lambda run: section_algebra(run.vt, run.algebra_cutoff),
), strict=True))


def build_report(vt: ValidatedToricData, sections, algebra_cutoff=None,
                 perturb_seed=None):
    run = _Run(vt, algebra_cutoff, perturb_seed)
    return {
        "tool": {"name": "mirrorcone", "version": __version__},
        "input": input_echo(vt),
        "sections": {name: call(run) for name, call in SECTIONS.items()
                     if name in sections},
    }


# Chunks collected before the writer hands the stream one joined batch.
_BATCH_CHUNKS = 1 << 16


def write_json(obj, fh):
    """Write ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"`` to ``fh``.

    Takes the value types a report holds: dict with str keys, list, tuple,
    str, int, bool, None and GradedDims, whose rows are written as the dicts
    ``{"deg": {"j": j, "m": m}, "dim": dim}``: each run of ``runs_by_j`` is
    one join of its shared row texts behind head(j) + prefix text; any other
    type, a record (a NamedTuple) included, raises TypeError.  The tree is
    walked once, a list of plain ints is joined in one step, and the text goes
    to ``fh.write`` in batches of about _BATCH_CHUNKS chunks (or lines of rows).
    """
    chunks = []
    append = chunks.append

    def emit(o, nl):
        # nl is the newline and indent of the line that holds o
        if len(chunks) >= _BATCH_CHUNKS:
            fh.write("".join(chunks))
            chunks.clear()
        if isinstance(o, str):
            append(encode_basestring_ascii(o))
        elif o is None:
            append("null")
        elif o is True:
            append("true")
        elif o is False:
            append("false")
        elif isinstance(o, int):
            append(int.__repr__(o))
        elif type(o) is list or type(o) is tuple:
            inner = nl + "  "
            if not o:
                append("[]")
            elif all(type(x) is int for x in o):
                append("[" + inner + ("," + inner).join(map(str, o)) + nl + "]")
            else:
                sep = "[" + inner
                for x in o:
                    append(sep)
                    sep = "," + inner
                    emit(x, inner)
                append(nl + "]")
        elif isinstance(o, dict):
            inner = nl + "  "
            sep = "{" + inner
            for key in sorted(o):
                if not isinstance(key, str):
                    raise TypeError(f"report keys must be str, not {type(key).__name__}")
                head = sep + encode_basestring_ascii(key) + ": "
                sep = "," + inner
                value = o[key]
                if type(value) is int:
                    append(head + str(value))
                else:
                    append(head)
                    emit(value, inner)
            append(nl + "}" if o else "{}")
        elif isinstance(o, GradedDims):
            # a row (n + 8 lines) is head(j) + prefix text + last entry's text + dim
            inner, i1, i2, i3 = (nl + "  " * k for k in range(1, 5))
            sep, tail = "," + i3, i2 + "]" + i1 + "}," + i1 + '"dim": '
            runs = runs_by_j([[((sep if k else i3) + sep.join(map(str, m)), poly)
                               for m, poly in table] for k, table in enumerate(o.tables())],
                             lambda text, d: text + tail + str(d), "")
            step = _BATCH_CHUNKS // (sum(map(len, o.blocks)) + 8)
            room, lead = 0, "["
            for j in sorted(runs):
                head = inner + "{" + i1 + '"deg": {' + i2 + f'"j": {j},' + i2 + '"m": ['
                for prefix, rows in runs[j]:
                    for k in range(0, len(rows), step):
                        part = rows[k:k + step]
                        if len(part) > room:  # at most step rows per write
                            fh.write("".join(chunks))
                            chunks.clear()
                            room = step
                        room -= len(part)
                        append(lead + head + prefix + (inner + "}," + head + prefix).join(part))
                        lead = inner + "},"
            append(inner + "}" + nl + "]" if runs else "[]")
        else:
            raise TypeError(f"cannot write {type(o).__name__} into a report")

    emit(obj, "\n")
    append("\n")
    fh.write("".join(chunks))
