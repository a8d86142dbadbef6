"""Workload generator: the config JSON each `analyze` call reads, made from a seed.

Everything here is independent of the program under test.  The four builtin
fixtures are written out as the JSON configs `mirrorcone examples show`
prints, and their lattice point sets Xi and Xi_0 are enumerated here from the
definitions (all m >= 0 with <q, m> = lcm(d) satisfying the congruences;
Xi_0 keeps the points with at least two zero coordinates in every block),
so that the report checks can compare against them.

The generic-weight recipe is frozen here:

    lambda(p) = 1 + |p|^2 / 64 + randrange(1, 10**6) / (4096 * 64 * 10**6)

with one draw per point of Xi_0, in lexicographic order, from a fresh
``random.Random(input_seed)`` per fixture.  A later
``mirrorcone.fixtures.generic_weights(vt, seed)`` must reproduce
``generic_weights(name, seed)`` byte for byte, so that the benchmark and the
tests share one workload.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

# 0-based blocks, degrees and congruences (c, mod) of the builtin fixtures.
FIXTURES = {
    "elliptic": (((0, 1, 2),), (3, 3, 3), (((1, 1, 1), 3),)),
    "quartic": (((0, 1, 2, 3),), (4, 4, 4, 4), (((1, 1, 1, 1), 4),)),
    "cubic-fourfold": (((0, 1, 2), (3, 4, 5)), (3,) * 6,
                       (((1, 1, 1, 1, 1, 1), 3),)),
    "z-manifold": (((0, 1, 2), (3, 4, 5), (6, 7, 8)), (3,) * 9,
                   (((1, 1, 1, -1, -1, -1, 0, 0, 0), 3),
                    ((0, 0, 0, 1, 1, 1, -1, -1, -1), 3))),
}
FIXTURE_NAMES = tuple(FIXTURES)

BSIDE_SECTIONS = "validation,conditions,groups,grading,bside,algebra"
DEFAULT_SECTIONS = "validation,conditions,groups,grading,bside,fans"

# A fans-generic run draws quartic weights from the input seeds run_seed and
# run_seed + SEED_STRIDE, and cubic-fourfold weights from run_seed alone: the
# cubic-fourfold call is four times the quartic one, and one per pass leaves
# room for more passes in a run.
SEED_STRIDE = 1000


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _key(p) -> str:
    return ",".join(str(x) for x in p)


def enumerate_xi(name):
    """(Xi, Xi_0) of a fixture, each sorted lexicographically."""
    blocks, degrees, congruences = FIXTURES[name]
    n = len(degrees)
    total = lcm(*degrees)
    q = [total // d for d in degrees]
    out = []
    current = [0] * n

    def rec(i, remaining):
        if i == n:
            if remaining == 0 and all(
                    sum(c * m for c, m in zip(cv, current)) % mod == 0
                    for cv, mod in congruences):
                out.append(tuple(current))
            return
        for val in range(remaining // q[i] + 1):
            current[i] = val
            rec(i + 1, remaining - val * q[i])
        current[i] = 0

    rec(0, total)
    out.sort()
    xi0 = [p for p in out
           if all(sum(1 for i in blk if p[i] == 0) >= 2 for blk in blocks)]
    return out, xi0


def generic_weights(name, input_seed):
    """The frozen generic-weight vector of a fixture, keyed by exponent string."""
    rng = random.Random(input_seed)
    weights = {}
    for p in enumerate_xi(name)[1]:
        lam = (1 + Fraction(sum(x * x for x in p), 64)
               + Fraction(rng.randrange(1, 10 ** 6), 4096 * 64 * 10 ** 6))
        weights[_key(p)] = _frac(lam)
    return weights


def fixture_config(name, weights=None):
    """The config JSON (as a dict) of a fixture; uniform weight 1 by default."""
    blocks, degrees, congruences = FIXTURES[name]
    return {
        "blocks": [[i + 1 for i in blk] for blk in blocks],
        "d": list(degrees),
        "lattice": {"congruences": [{"c": list(c), "mod": m}
                                    for c, m in congruences]},
        "lambda": "uniform:1/1" if weights is None else weights,
    }


class Input:
    """One `analyze` call: a label, the fixture, its config and CLI flags."""

    def __init__(self, workload, label, fixture, config, args, sections):
        self.label = label
        self.fixture = fixture
        self.config = config
        self.args = tuple(args)
        self.sections = sections  # the report sections these flags select
        self.key = f"{workload}:{label}"  # digests are recorded under this key


def _fans_generic(run_seed):
    return [Input("fans-generic", f"{name}/g{g}", name,
                  fixture_config(name, generic_weights(name, g)), (),
                  DEFAULT_SECTIONS)
            for name, g in (("quartic", run_seed), ("cubic-fourfold", run_seed),
                            ("quartic", run_seed + SEED_STRIDE))]


def _shuffled(names, run_seed):
    names = list(names)
    random.Random(run_seed).shuffle(names)
    return names


def _fixtures_uniform(run_seed):
    return [Input("fixtures-uniform", name, name, fixture_config(name),
                  ("--algebra", "--cutoff", "5"), DEFAULT_SECTIONS + ",algebra")
            for name in _shuffled(FIXTURE_NAMES, run_seed)]


def _bside_algebra(run_seed):
    return [Input("bside-algebra", name, name, fixture_config(name),
                  ("--sections", BSIDE_SECTIONS, "--cutoff", "6"), BSIDE_SECTIONS)
            for name in _shuffled(FIXTURE_NAMES, run_seed)]


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "fans-generic": _fans_generic,
    "fixtures-uniform": _fixtures_uniform,
    "bside-algebra": _bside_algebra,
}


def batch(workload, run_seed):
    """The inputs of one run: the same workload and seed give the same inputs."""
    return WORKLOADS[workload](run_seed)
