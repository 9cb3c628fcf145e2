"""GF(2) basis extraction by plain elimination: the tests measure subspace
dimensions and draw invertible matrices with it."""


def gf2_basis(vectors) -> tuple[int, ...]:
    """Extract a GF(2) basis from a set of integers by bit elimination.

    Each vector is reduced by the basis vector with its top bit until it
    vanishes or brings a new top bit, which makes it a basis vector.
    """
    pivots: dict[int, int] = {}  # top bit -> basis vector
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return tuple(pivots.values())
