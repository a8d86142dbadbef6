"""Deterministic report assembly and the report writer.

Every collection is sorted and every rational exact, so re-running on
identical input yields byte-identical JSON (no timestamps, no floats, fixed
version string).  ``write_json`` streams a report as exactly the text of
``json.dumps(report, sort_keys=True, indent=2)`` plus a newline, one
``write`` per batch of at most _BATCH_BYTES (64 KiB) characters, so the
report's text is never all in memory at once.  The budget sits below glibc's
128 KiB mmap threshold: each batch string and the text layer's encode of it
reuse heap memory rather than being mapped, faulted in and unmapped.  The
algebra section holds its ``GradedDims``, whose factor tables the writer
expands into row text one run of rows per (j, prefix).  ``fans`` and
``koszulalg`` serve one section each, so a run imports them only on that
section's first call or on a lookup of one of their names (``_LAZY``) here.
"""

from __future__ import annotations

from functools import cached_property
from json.encoder import encode_basestring_ascii

from . import ALL_SECTIONS, __version__
from .bside import build_koszul_mf, build_superpotential, check_wflips, dualize_mf
from .grading import build_grading_data, check_commutative_square, coker_H, p_injective_mod_z
from .toricdata import (
    ValidatedToricData,
    _one_based,
    check_embeddedness,
    check_nef_partition,
    check_no_bc,
    frac_str,
    input_echo,
    symmetry_groups,
)

_LAZY = {"fans": ("certify_isolated_singularity", "check_mpcp", "check_mpcs",
                  "project_config", "regular_subdivision"),
         "koszulalg": ("enumerate_curvature_candidates", "enumerate_deformation_classes",
                       "koszul_cohomology_dims", "tensor_j_dims")}


def _bind(module):
    """Import a section module and bind its names here, keeping any name already
    bound: a wrapper installed on this module sees every call.  ``__import__``
    is an import statement's path, which ``-X importtime`` reports."""
    loaded = getattr(__import__(f"{__package__}.{module}"), module)
    for name in _LAZY[module]:
        globals().setdefault(name, getattr(loaded, name))


def _lazy_name(name):
    """The module ``__getattr__`` (PEP 562): binds a section module on first lookup."""
    for module in (m for m, names in _LAZY.items() if name in names):
        _bind(module)
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__getattr__ = _lazy_name


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
        # build_grading_data already raised MorphismCheckFailed on a failing morphism
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
    _bind("fans")
    cfg = project_config(vt)
    sub = regular_subdivision(cfg, perturb_seed=perturb_seed)
    mpcp = check_mpcp(sub, cfg)
    mpcs = check_mpcs(sub, cfg, mpcp)
    cert = certify_isolated_singularity(sub, cfg, mpcp)
    return {
        "dim": cfg.dim,
        "cell_count": len(sub.cells),
        "cells": [list(c) for c in sub.cells],
        "supports": {
            "|".join(cell): {"a": [frac_str(x, e) for x in a], "c": frac_str(c, e),
                             **({"parent": "|".join(sub.parents[cell])}
                                if cell in sub.parents else {})}
            for cell, (a, c, e) in sub.supports.items()},
        "perturbed": sub.perturbed,
        "conditions": mpcs.to_json(),
        "isolated_singularity": cert.to_json(),
    }


def section_algebra(vt, cutoff):
    _bind("koszulalg")
    # dims first: their work bounds refuse before the 2^n subset scan of the
    # curvature candidates runs
    dims = koszul_cohomology_dims(vt.n, cutoff) if vt.r == 1 else tensor_j_dims(vt, cutoff)
    classes = enumerate_deformation_classes(vt)
    curvature = enumerate_curvature_candidates(vt)
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


# Characters per fh.write.  Below glibc's 128 KiB mmap threshold, so a batch,
# its join and the text layer's encode of it reuse heap memory and are not
# mapped, faulted in and unmapped again one by one.
_BATCH_BYTES = 1 << 16


def write_json(obj, fh):
    """Write ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"`` to ``fh``.

    Takes the value types a report holds: dict with str keys, list, tuple,
    str, int, bool, None and GradedDims, whose rows are written as the dicts
    ``{"deg": {"j": j, "m": m}, "dim": dim}``; any other type, a record (a
    NamedTuple) included, raises TypeError.  The tree is walked once and a
    list of plain ints is joined in one step.  The text goes to ``fh`` in
    batches of at most _BATCH_BYTES characters, each one ``fh.write`` of one
    join; a single value or row longer than that is written alone.  Each
    table's m parts go to ``runs_by_j`` as text, so a run is its lead and one
    join of its shared row texts; a run over the budget goes row by row.
    """
    chunks = []
    append = chunks.append
    size = 0  # characters in chunks

    def flush():
        nonlocal size
        fh.write("".join(chunks))
        chunks.clear()
        size = 0

    def put(text):
        nonlocal size
        if size + len(text) > _BATCH_BYTES and chunks:
            flush()
        append(text)
        size += len(text)

    def emit(o, nl):
        # nl is the newline and indent of the line that holds o
        nonlocal size
        if isinstance(o, str):
            put(encode_basestring_ascii(o))
        elif o is None:
            put("null")
        elif o is True:
            put("true")
        elif o is False:
            put("false")
        elif isinstance(o, int):
            put(int.__repr__(o))
        elif type(o) is list or type(o) is tuple:
            inner = nl + "  "
            if not o:
                put("[]")
            elif all(type(x) is int for x in o):
                put("[" + inner + ("," + inner).join(map(str, o)) + nl + "]")
            else:
                sep = "[" + inner
                for x in o:
                    put(sep)
                    sep = "," + inner
                    emit(x, inner)
                put(nl + "]")
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
                    put(head + str(value))
                else:
                    put(head)
                    emit(value, inner)
            put(nl + "}" if o else "{}")
        else:
            from .koszulalg import GradedDims, runs_by_j  # loaded by section_algebra already
            if not isinstance(o, GradedDims):
                raise TypeError(f"cannot write {type(o).__name__} into a report")
            # a row (n + 8 lines) is head(j) + prefix text + the last table's
            # text, which ends in the row tail, + dim
            inner, i1, i2, i3 = (nl + "  " * k for k in range(1, 5))
            sep, tail = "," + i3, i2 + "]" + i1 + "}," + i1 + '"dim": '
            tables = o.tables()
            last = len(tables) - 1
            runs = runs_by_j([[((sep if k else i3) + sep.join(map(str, m))
                                + (tail if k == last else ""), poly) for m, poly in table]
                              for k, table in enumerate(tables)])
            opening = "["
            for j in sorted(runs):
                head = inner + "{" + i1 + '"deg": {' + i2 + f'"j": {j},' + i2 + '"m": ['
                close_head = inner + "}," + head
                for prefix, rows in runs[j]:
                    first = between = close_head + prefix
                    if opening:
                        first, opening = opening + head + prefix, ""
                    joined = between.join(rows)
                    width = len(first) + len(joined)
                    if width > _BATCH_BYTES:
                        # row by row: put writes a row over the budget alone
                        put(first + rows[0])
                        for row in rows[1:]:
                            put(between + row)
                        continue
                    if size + width > _BATCH_BYTES:
                        flush()
                    append(first)
                    append(joined)
                    size += width
            put(inner + "}" + nl + "]" if runs else "[]")

    emit(obj, "\n")
    put("\n")
    flush()
