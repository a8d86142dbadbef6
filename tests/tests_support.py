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
