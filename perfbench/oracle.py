"""Independent reference for window-1 partial-spread functions.

Nothing here imports spreadbent: the field, the kernels, the truth table
and the rank are all recomputed from first principles, so a rewrite of the
program's rank code cannot pass the build-wide check by agreeing with
itself.

For a linear a + X over GF(2^l) the kernel of the 1 x 2 recurrence matrix
[a, 1] is the graph {(x, a*x)}, flattened as x | (a*x) << l. A function on
n = 2l variables is held as one Python int H whose bit N-1-y is f(y)
(N = 2^n), which is exactly the integer value of the program's tt_hex.

The rank of the development matrix f(x XOR y) is the dimension of the span
of the translates of f. Translation by a unit vector e_i swaps the bit
blocks of H at distance 2^i, and the unit translations generate the whole
group, so the span is the smallest subspace that contains f and is closed
under those n swaps.
"""

from __future__ import annotations

from functools import lru_cache


def _mod2_remainder(f: int, g: int) -> int:
    while f.bit_length() >= g.bit_length():
        f ^= g << (f.bit_length() - g.bit_length())
    return f


@lru_cache(maxsize=None)
def least_irreducible(l: int) -> int:
    """Smallest degree-l polynomial over GF(2), as an int, with no factor
    of degree 1..l/2 (the program's documented modulus rule)."""
    for f in range(1 << l, 1 << (l + 1)):
        if not f & 1:
            continue
        if all(
            _mod2_remainder(f, g)
            for d in range(1, l // 2 + 1)
            for g in range(1 << d, 1 << (d + 1))
        ):
            return f
    raise ValueError(f"no irreducible of degree {l}")


def field_mul(x: int, y: int, l: int) -> int:
    mod = least_irreducible(l)
    out = 0
    while y:
        if y & 1:
            out ^= x
        y >>= 1
        x <<= 1
        if x >> l & 1:
            x ^= mod
    return out


def window1_table(l: int, coeffs, plus_type: bool) -> int:
    """Indicator of the union of the kernels of a + X for a in coeffs, with
    zero removed (negative type) or kept (positive type), as the int H."""
    support = {x | field_mul(a, x, l) << l for a in coeffs for x in range(1 << l)}
    if not plus_type:
        support.discard(0)
    top = (1 << 2 * l) - 1
    h = 0
    for v in support:
        h |= 1 << (top - v)
    return h


@lru_cache(maxsize=None)
def _swap_masks(n: int) -> tuple[tuple[int, int], ...]:
    """(2^i, mask of bit positions p with bit i of p clear) for each i."""
    out = []
    for i in range(n):
        block = 1 << i
        unit = (1 << block) - 1  # `block` ones followed by `block` zeros, repeated
        mask = 0
        for start in range(0, 1 << n, 2 * block):
            mask |= unit << start
        out.append((block, mask))
    return tuple(out)


def translate_rank(h: int, n: int) -> int:
    """Dimension of the span of all translates f(x XOR a) of f."""
    pivots: dict[int, int] = {}
    todo = [h]
    while todo:
        v = todo.pop()
        r = v
        while r:
            b = pivots.get(r.bit_length() - 1)
            if b is None:
                break
            r ^= b
        if not r:
            continue
        pivots[r.bit_length() - 1] = r
        todo.extend(((v & m) << s) | ((v >> s) & m) for s, m in _swap_masks(n))
    return len(pivots)
