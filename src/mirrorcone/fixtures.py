"""The four named input configurations used throughout the tests and CLI.

``elliptic`` is the desk-scale cubic-curve case; ``quartic`` the mirror
quartic; ``cubic-fourfold`` and ``z-manifold`` the two multi-block cases.
Weights default to the uniform vector 1, whose induced subdivision is the
coarse star over the facets.
"""

from __future__ import annotations

from fractions import Fraction

from .toricdata import LatticeSpec, ToricInput, validate

# 0-based blocks, degrees and congruences (c, mod) of each fixture.
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


def fixture_input(name, weights=Fraction(1)):
    if name not in FIXTURES:
        raise KeyError(f"unknown fixture {name!r}; choose from {FIXTURE_NAMES}")
    blocks, degrees, congruences = FIXTURES[name]
    return ToricInput(blocks=blocks, degrees=degrees,
                      lattice=LatticeSpec(congruences=congruences), weights=weights)


def fixture(name, weights=Fraction(1)):
    return validate(fixture_input(name, weights))
