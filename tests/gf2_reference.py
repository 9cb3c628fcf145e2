"""GF(2) references by plain elimination: the tests measure subspace
dimensions and draw invertible matrices with gf2_basis, and check the
development rank against derivative_rank."""


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


def derivative_rank(anf_bits: int, n: int) -> int:
    """GF(2) rank of the development matrix of the n-variable function
    whose ANF is anf_bits (bit I = coefficient of monomial I), computed as
    dim span{∂_S anf : S ⊆ {0..n-1}}.

    The rows of the development matrix are the translates f(x ⊕ a), whose
    span is spanned by the derivatives D_S f, and the ANF of D_i f is the
    multilinear partial ∂/∂x_i: keep the monomials that hold x_i, then
    drop x_i, a mask and a shift by 2^i. A walk from (anf, 0) takes each
    ∂_S once, with S's members in increasing order, and reduces it into
    pivots keyed by top bit; the number of pivots is the rank.
    """
    size = 1 << n
    high = [sum(1 << k for k in range(size) if k >> i & 1) for i in range(n)]
    pivots: dict[int, int] = {}  # top bit -> reduced vector
    stack = [(anf_bits, 0)]
    while stack:
        v, lo = stack.pop()
        for i in range(lo, n):
            d = (v & high[i]) >> (1 << i)
            if d:
                stack.append((d, i + 1))
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)
