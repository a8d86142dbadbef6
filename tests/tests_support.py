"""Shared helpers for the test modules."""


def random_admissible_v(vt, rng):
    """A random integer pole-order vector with the forced block sums."""
    out = [0] * vt.n
    for blk in vt.blocks:
        idx = sorted(blk)
        entries = [rng.randrange(-3, 4) for _ in idx[:-1]]
        entries.append(len(blk) - 1 - sum(entries))
        for i, val in zip(idx, entries):
            out[i] = val
    return tuple(out)


def cubic_block_input(k):
    """k cubic blocks: blocks {0,1,2}, {3,4,5}, ..., d = 3 everywhere, one
    congruence e_{I_b} = 0 mod 3 per block and uniform weights 1."""
    from fractions import Fraction

    from mirrorcone.toricdata import LatticeSpec, ToricInput

    n = 3 * k
    return ToricInput(
        blocks=tuple(tuple(range(3 * b, 3 * b + 3)) for b in range(k)),
        degrees=(3,) * n,
        lattice=LatticeSpec(congruences=tuple(
            (tuple(int(3 * b <= i < 3 * b + 3) for i in range(n)), 3)
            for b in range(k))),
        weights=Fraction(1),
    )


# The block layouts of the interleaved-block convolution tests: in all but
# the third, the blocks interleave in index order.
INTERLEAVED_BLOCKS = [
    ((0, 4, 2), (1, 3, 5)),
    ((5, 0, 3), (4, 1, 2)),
    ((0, 1, 2), (3, 4, 5, 6)),
    ((3, 6, 0, 5), (1, 4, 2)),
]


def convolution_by_oracle(vt, cutoff):
    """The oracle's convolution of the per-block tables ``tensor_j_dims``
    starts from, as sorted ((j, m), dim) pairs."""
    from mirrorcone.koszulalg import koszul_cohomology_dims
    from oracles import convolve_block_tables

    tables = {nb: dict(koszul_cohomology_dims(nb, cutoff + nb + 1).dims)
              for nb in {len(blk) for blk in vt.blocks}}
    return convolve_block_tables(vt.blocks, vt.n, [tables[len(blk)] for blk in vt.blocks])


def multiblock_j_dims(blocks, n, cutoff):
    """The direct multi-block computation: ((j, m), dim) over the nonzero
    classes of ``degree_classes``, one ``j_algebra_dim_for_class`` each."""
    from mirrorcone.koszulalg import degree_classes, j_algebra_dim_for_class

    dims = ((cls, j_algebra_dim_for_class(blocks, n, cls))
            for cls in degree_classes(blocks, n, cutoff))
    return [(cls, d) for cls, d in dims if d]


def analyze_fixture(tmp_path, capsys, name, *args):
    """``mirrorcone analyze`` on the named fixture's config through ``main``,
    with the extra arguments: (exit code, standard error)."""
    import json

    from mirrorcone.cli import fixture_config_json, main

    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(fixture_config_json(name)))
    code = main(["analyze", str(cfg), *args])
    return code, capsys.readouterr().err


def patch_during(monkeypatch, owner, step, target, name, replace):
    """Run ``owner.step`` with ``target.name`` set to ``replace(original)``
    while, and only while, it runs: the tamper misses the config's validation."""
    run, original = getattr(owner, step), getattr(target, name)

    def tampered(*args):
        with monkeypatch.context() as mp:
            mp.setattr(target, name, replace(original))
            return run(*args)

    monkeypatch.setattr(owner, step, tampered)


# The Greene-Plesser hypersurfaces of ROADMAP's input list: one block, the
# degrees d, one congruence <q, m> = 0 mod lcm(d) with q_i = lcm(d) / d_i,
# and uniform weights.  They are not `mirrorcone examples`.
GREENE_PLESSER_DEGREES = {
    "quintic": (5, 5, 5, 5, 5),
    "sextic": (6, 6, 6, 6, 3),
    "octic": (8, 8, 4, 4, 4),
    "dectic": (10, 10, 10, 5, 2),
    "sextic-fourfold": (6, 6, 6, 6, 6, 6),
}


def greene_plesser_config(name):
    """The config JSON object of the Greene-Plesser hypersurface ``name``."""
    from math import lcm

    degrees = GREENE_PLESSER_DEGREES[name]
    mod = lcm(*degrees)
    return {
        "blocks": [list(range(1, len(degrees) + 1))],
        "d": list(degrees),
        "lattice": {"congruences": [{"c": [mod // d for d in degrees], "mod": mod}]},
        "lambda": "uniform:1",
    }
