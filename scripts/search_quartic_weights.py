#!/usr/bin/env python3
"""Search for quartic weight vectors whose subdivision satisfies MPCP.

Paraboloid heights put every point on the lower hull; the tie-break term must
be generic enough to break the cospherical quadruples of the symmetric
configuration (a linear index term is affinely consistent on some of them and
fails).  The frozen choice in mirrorcone.fixtures came out of this search.
"""

import pathlib
import random
import sys
from fractions import Fraction

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from mirrorcone.fans import (
    certify_isolated_singularity,
    check_mpcp,
    check_mpcs,
    project_config,
    regular_subdivision,
)
from mirrorcone.fixtures import fixture

UNIT = Fraction(1, 4096 * 64)


def candidates(vt):
    yield "linear-index", lambda i: (i + 1) * UNIT
    yield "squared-index", lambda i: (i + 1) ** 2 * UNIT
    rng = random.Random(7)
    draws = [rng.randrange(1, 10 ** 6) for _ in vt.xi0]
    yield "random-seed-7", lambda i: draws[i] * UNIT / 10 ** 6


def main():
    vt = fixture("quartic")
    cfg = project_config(vt)
    for label, tiebreak in candidates(vt):
        weights = {}
        for idx, p in enumerate(vt.xi0):
            weights[p] = 1 + Fraction(sum(x * x for x in p), 64) + tiebreak(idx)
        sub = regular_subdivision(cfg, weights)
        report = check_mpcp(sub, cfg)
        line = f"{label}: cells={len(sub.cells)} mpcp={report.mpcp}"
        if report.mpcp:
            full = check_mpcs(sub, cfg, report)
            cert = certify_isolated_singularity(sub, cfg, report)
            line += f" mpcs={full.mpcs} certified={cert.certified}"
        print(line)


if __name__ == "__main__":
    main()
