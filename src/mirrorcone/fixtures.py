"""The four named input configurations used throughout the tests and CLI.

``elliptic`` is the desk-scale cubic-curve case; ``quartic`` the mirror
quartic; ``cubic-fourfold`` and ``z-manifold`` the two multi-block cases.
Weights default to the uniform vector 1, whose induced subdivision is the
coarse star over the facets.
"""

from __future__ import annotations

from fractions import Fraction

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
