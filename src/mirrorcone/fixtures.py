"""The four named input configurations used throughout the tests and CLI.

``elliptic`` is the desk-scale cubic-curve case; ``quartic`` the mirror
quartic; ``cubic-fourfold`` and ``z-manifold`` the two multi-block cases.
Weights default to the uniform vector 1; ``quartic_mpcp_weights`` supplies a
verified weight vector whose induced subdivision is a fine triangulation
(uniform weights only give the coarse star over the facets), and
``generic_weights`` the seeded generic vectors the benchmark also draws.
"""

from __future__ import annotations

from fractions import Fraction
import random

from .toricdata import LatticeSpec, ToricInput, validate

FIXTURE_NAMES = ("elliptic", "quartic", "cubic-fourfold", "z-manifold")


def fixture_input(name, weights=Fraction(1)):
    if name == "elliptic":
        return ToricInput(
            blocks=((0, 1, 2),),
            degrees=(3, 3, 3),
            lattice=LatticeSpec(congruences=(((1, 1, 1), 3),)),
            weights=weights,
        )
    if name == "quartic":
        return ToricInput(
            blocks=((0, 1, 2, 3),),
            degrees=(4, 4, 4, 4),
            lattice=LatticeSpec(congruences=(((1, 1, 1, 1), 4),)),
            weights=weights,
        )
    if name == "cubic-fourfold":
        return ToricInput(
            blocks=((0, 1, 2), (3, 4, 5)),
            degrees=(3, 3, 3, 3, 3, 3),
            lattice=LatticeSpec(congruences=(((1, 1, 1, 1, 1, 1), 3),)),
            weights=weights,
        )
    if name == "z-manifold":
        return ToricInput(
            blocks=((0, 1, 2), (3, 4, 5), (6, 7, 8)),
            degrees=(3,) * 9,
            lattice=LatticeSpec(congruences=(
                ((1, 1, 1, -1, -1, -1, 0, 0, 0), 3),
                ((0, 0, 0, 1, 1, 1, -1, -1, -1), 3),
            )),
            weights=weights,
        )
    raise KeyError(f"unknown fixture {name!r}; choose from {FIXTURE_NAMES}")


def fixture(name, weights=Fraction(1)):
    return validate(fixture_input(name, weights))


def quartic_mpcp_weights(vt):
    """Weights for the quartic making the subdivision a fine triangulation.

    1 + eps * sum(p_i^2) pushes every point onto the lower hull (paraboloid
    heights make each lifted point a vertex) while keeping the subdivision a
    refinement of the coarse facet star; the squared-index term breaks the
    cospherical ties of the symmetric configuration (a linear index term is
    itself affinely consistent on some tied quadruples and does not).
    Verified exactly by the test suite: 40 simplicial cells, MPCP and MPCS
    hold, every lifted cell passes its certificates.
    """
    weights = {}
    for idx, p in enumerate(vt.xi0):
        para = sum(x * x for x in p)
        weights[p] = 1 + Fraction(para, 64) + Fraction((idx + 1) ** 2, 4096 * 64)
    return weights


def generic_weights(vt, seed):
    """1 + |p|^2/64 + randrange(1, 10**6)/(4096*64*10**6) per Xi_0 point p, lex order."""
    rng = random.Random(seed)
    return {p: 1 + Fraction(sum(x * x for x in p), 64)
            + Fraction(rng.randrange(1, 10 ** 6), 4096 * 64 * 10 ** 6)
            for p in vt.xi0}
