"""Shared helpers for the test modules, among them the ones built on src that
the CLI never runs, kept out of the package: the quartic MPCP weights, the
seeded generic weights, ``iota_of_block``, ``j_algebra_dim_for_class`` and
``graded_pairs``."""


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


def iota_of_block(vt, j):
    """iota(e_I_j), the vector with entries 1/d_i on block j and 0 elsewhere,
    as Fractions: the nef-partition condition pairs it with M_bar, and over
    the blocks it sums to n_sigma."""
    from fractions import Fraction

    blk = vt.blocks[j]
    return tuple(Fraction(1, vt.degrees[i]) if i in blk else Fraction(0)
                 for i in range(vt.n))


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

    tables = {nb: dict(graded_pairs(koszul_cohomology_dims(nb, cutoff + nb + 1)))
              for nb in {len(blk) for blk in vt.blocks}}
    return convolve_block_tables(vt.blocks, vt.n, [tables[len(blk)] for blk in vt.blocks])


def graded_pairs(dims):
    """The sorted ((j, m), dim) pairs of a GradedDims, read back from the rows
    ``report.write_json`` writes (through ``runs_by_j``, as the CLI does)."""
    import io
    import json

    from mirrorcone.report import write_json

    out = io.StringIO()
    write_json({"g": dims}, out)
    return tuple(((row["deg"]["j"], tuple(row["deg"]["m"])), row["dim"])
                 for row in json.loads(out.getvalue())["g"])


def j_algebra_dim_for_class(blocks, n, cls):
    """dim J at the class (j, m).  By the slice lemma it sits at the class's
    one exponent that can have two zeros in every block, a_i = max_b m - m_i
    for i in block b: the sum of size - rank over that exponent's slices,
    the wedge distributions of total w = j + 2|m| - 2 sum_b max_b m."""
    from mirrorcone.koszulalg import _j_slice
    from oracles import _wedge_distributions

    j, m = cls
    w, zeros = j + 2 * sum(m), 0
    for blk in blocks:
        top = max(m[i] for i in blk)
        w -= 2 * top
        zeros |= sum(1 << i for i in blk if m[i] == top)
    dists = _wedge_distributions(blocks, w)
    return sum(size - rank for size, _, _, rank in (_j_slice(blocks, d, zeros) for d in dists))


def multiblock_j_dims(blocks, n, cutoff):
    """The direct multi-block computation: ((j, m), dim) over the nonzero
    classes of ``degree_classes``, one ``j_algebra_dim_for_class`` each."""
    from mirrorcone.koszulalg import degree_classes

    dims = ((cls, j_algebra_dim_for_class(blocks, n, cls))
            for cls in degree_classes(blocks, n, cutoff))
    return [(cls, d) for cls, d in dims if d]


def analyze_fixture(tmp_path, capsys, name, *args):
    """``mirrorcone analyze`` on the named fixture's config through ``main``,
    with the extra arguments: (exit code, standard error)."""
    import json

    from mirrorcone.cli import main
    from mirrorcone.fixtures import fixture
    from mirrorcone.toricdata import input_echo

    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(input_echo(fixture(name))))
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


def single_block_config(n):
    """The config JSON object of the degree-n hypersurface in P^(n-1): one
    block of n indices, d = n at each, one congruence (1, ..., 1) mod n and
    uniform weights.  n = 5 is the quintic, n = 8 the octic in P^7."""
    return {
        "blocks": [list(range(1, n + 1))],
        "d": [n] * n,
        "lattice": {"congruences": [{"c": [1] * n, "mod": n}]},
        "lambda": "uniform:1",
    }


# The mixed-block inputs of ROADMAP's input list (Borisov-type complete
# intersections, blocks of sizes 3 and 4 or mixed degrees) with uniform
# weights.  They are not `mirrorcone examples`.
MIXED_BLOCK_CONFIGS = {
    "e33+k4": {
        "blocks": [[1, 2, 3], [4, 5, 6, 7]],
        "d": [3, 3, 3, 4, 4, 4, 4],
        "lattice": {"congruences": [{"c": [4, 4, 4, 3, 3, 3, 3], "mod": 12}]},
        "lambda": "uniform:1",
    },
    "e244+e33": {
        "blocks": [[1, 2, 3], [4, 5, 6]],
        "d": [2, 4, 4, 3, 3, 3],
        "lattice": {"congruences": [{"c": [6, 3, 3, 4, 4, 4], "mod": 12}]},
        "lambda": "uniform:1",
    },
}


def generic_config(config, seed):
    """The config JSON object ``config`` with ``generic_weights(vt, seed)``
    written as its ``lambda`` map."""
    from mirrorcone.cli import parse_config
    from mirrorcone.report import input_echo
    from mirrorcone.toricdata import validate

    vt = validate(parse_config(config))
    return input_echo(reweighted(vt, generic_weights(vt, seed)))


def reweighted(vt, weights):
    """``vt``'s input validated again with lambda = ``weights``: its heights
    are what ``regular_subdivision`` of its projected configuration reads."""
    from mirrorcone.toricdata import validate

    return validate(vt.input._replace(weights=weights))


def quartic_mpcp_weights(vt):
    """Weights for the quartic making the subdivision a fine triangulation.

    1 + eps * sum(p_i^2) pushes every point onto the lower hull (paraboloid
    heights make each lifted point a vertex) while keeping the subdivision a
    refinement of the coarse facet star; the squared-index term breaks the
    cospherical ties of the symmetric configuration (a linear index term is
    itself affinely consistent on some tied quadruples and does not).
    Verified exactly by the test suite: 40 simplicial cells, MPCP and MPCS
    hold, every lifted cell passes its certificates.  It came out of
    ``scripts/search_quartic_weights.py``.
    """
    from fractions import Fraction

    weights = {}
    for idx, p in enumerate(vt.xi0):
        para = sum(x * x for x in p)
        weights[p] = 1 + Fraction(para, 64) + Fraction((idx + 1) ** 2, 4096 * 64)
    return weights


def generic_weights(vt, seed):
    """1 + |p|^2/64 + randrange(1, 10**6)/(4096*64*10**6) per Xi_0 point p, lex
    order: the seeded generic weights the benchmark's fans-generic workload draws."""
    import random
    from fractions import Fraction

    rng = random.Random(seed)
    return {p: 1 + Fraction(sum(x * x for x in p), 64)
            + Fraction(rng.randrange(1, 10 ** 6), 4096 * 64 * 10 ** 6)
            for p in vt.xi0}
