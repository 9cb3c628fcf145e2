"""Linear recurring sequence maps, their kernels, and partial spreads.

A feedback polynomial f of degree at most b acts on F_q^(2b) through the
banded b x 2b matrix whose row i carries the length-(b+1) coefficient window
of f starting at column i. A polynomial of degree e < b is embedded as the
window (c_0, ..., c_e, 0, ..., 0), so the constant 1 pins the first b
coordinates to zero and X^b pins the last b, two complementary coordinate
subspaces.

The kernel of the map has exactly q^b elements. Flattening sends a vector
over F_q to an n-bit integer with coordinate 0 in the LOW bits: bit i*l + j
of the integer is the alpha^j coefficient of coordinate i. Printed as an
n-character bit string (index 0 last, i.e. the string is read coordinate 0
rightmost), the kernel of X^2 over GF(2) at b=2 is {0000, 0001, 0010, 0011},
the canonical ground truth this convention is locked to.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    BothZero,
    DegenerateMap,
    DimensionMismatch,
    NotCoprime,
    UnsupportedParameters,
)
from .gf2e import FieldSpec, fe_inv, fe_mul
from .poly import Poly, one, pairwise_coprime, poly_gcd


@dataclass(frozen=True)
class LrsMap:
    """The banded recurrence matrix of a feedback polynomial."""

    poly: Poly
    b: int
    rows: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Subspace:
    """An m-dimensional GF(2) subspace of F_2^n, fully enumerated.

    vectors holds all 2^m flattened elements, sorted; basis is one choice of
    m independent vectors spanning them.
    """

    n: int
    m: int
    basis: tuple[int, ...]
    vectors: tuple[int, ...]


def window(f: Poly, b: int) -> tuple[int, ...]:
    """Length-(b+1) coefficient window of f, zero-padded above its degree."""
    return tuple(f.coeffs[j] if j < len(f.coeffs) else 0 for j in range(b + 1))


def build_matrix(f: Poly, b: int | None = None) -> LrsMap:
    """Banded b x 2b matrix; row i applies the recurrence window at offset i."""
    if f.is_zero:
        raise DegenerateMap("the zero polynomial defines no recurrence")
    if b is None:
        b = max(int(f.degree), 1)
    if f.degree > b:
        raise UnsupportedParameters(f"degree {f.degree} exceeds window size b={b}")
    w = window(f, b)
    rows = []
    for i in range(b):
        row = [0] * (2 * b)
        for j, c in enumerate(w):
            row[i + j] = c
        rows.append(tuple(row))
    return LrsMap(f, b, tuple(rows))


def flatten(vec, spec: FieldSpec) -> int:
    """Pack a vector over F_q into one integer, coordinate 0 in the low bits."""
    out = 0
    for i, v in enumerate(vec):
        out |= v << (i * spec.l)
    return out


def unflatten(x: int, spec: FieldSpec, length: int) -> tuple[int, ...]:
    mask = spec.q - 1
    return tuple((x >> (i * spec.l)) & mask for i in range(length))


def gf2_basis(vectors) -> tuple[int, ...]:
    """Extract a GF(2) basis from a set of integers by bit elimination."""
    basis: list[int] = []
    pivots: list[int] = []
    for v in vectors:
        for b, p in zip(basis, pivots):
            if (v >> p) & 1:
                v ^= b
        if v:
            basis.append(v)
            pivots.append(v.bit_length() - 1)
    return tuple(basis)


def _rref(spec: FieldSpec, rows: list[list[int]]) -> list[int]:
    """In-place reduced row echelon form over F_q; returns pivot columns."""
    ncols = len(rows[0])
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = fe_inv(spec, rows[r][col])
        rows[r] = [fe_mul(spec, inv, v) for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                c = rows[i][col]
                rows[i] = [a ^ fe_mul(spec, c, v) for a, v in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return pivots


def kernel(m: LrsMap) -> Subspace:
    """All q^b solutions of the banded system, flattened and sorted.

    Solves only for the l*b GF(2) generators (each free coordinate set in
    turn to alpha^j, the others to zero) and spans the rest by XOR.
    """
    spec = m.poly.spec
    rows = [list(r) for r in m.rows]
    pivots = _rref(spec, rows)
    if len(pivots) < m.b:
        raise DegenerateMap(f"recurrence matrix has rank {len(pivots)} < {m.b}")
    ncols = 2 * m.b
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for c in free:
        for j in range(spec.l):
            x = [0] * ncols
            x[c] = 1 << j
            for row, pc in zip(rows, pivots):
                x[pc] = fe_mul(spec, row[c], x[c])  # char 2: -v == v
            basis.append(flatten(x, spec))
    vectors = [0]
    for v in basis:
        vectors += [w ^ v for w in vectors]
    vectors.sort()
    n = 2 * spec.l * m.b
    dim = spec.l * m.b
    return Subspace(n=n, m=dim, basis=tuple(basis), vectors=tuple(vectors))


def sylvester_resultant_nonzero(f: Poly, g: Poly, b: int | None = None) -> bool:
    """Invertibility of the 2b x 2b superposition of the two banded matrices.

    Stacks the b-row window matrix of f on top of that of g and eliminates
    over F_q. Full rank is equivalent to gcd(f, g) = 1 whenever at most one
    of the two windows is degree-deficient.
    """
    if f.is_zero and g.is_zero:
        raise BothZero("resultant of two zero polynomials")
    if b is None:
        b = max(int(max(f.degree, g.degree, 1)), 1)
    if max(f.degree, g.degree) > b:
        raise UnsupportedParameters(f"degrees exceed window size b={b}")
    rows = []
    for h in (f, g):
        w = window(h, b)
        for i in range(b):
            row = [0] * (2 * b)
            for j, c in enumerate(w):
                row[i + j] = c
            rows.append(row)
    return len(_rref(f.spec, rows)) == 2 * b


def trivial_intersection(a: Subspace, b: Subspace) -> bool:
    """True iff the two subspaces share only the zero vector."""
    if a.n != b.n:
        raise DimensionMismatch(f"ambient dimensions differ: {a.n} vs {b.n}")
    return set(a.vectors) & set(b.vectors) == {0}


def build_partial_spread(family: list[Poly], b: int | None = None) -> list[Subspace]:
    """Kernels of all family members, checked pairwise for trivial overlap.

    This is the from-scratch path for ad-hoc families: the pairwise gcd test
    rejects shared factors, and the set-intersection re-check stays on
    because coprimality is only a faithful proxy when at most one member has
    degree below the window size (two short windows can share solutions
    despite coprime polynomials). Catalog families skip both: the catalog's
    gcd pass over its pool settles coprimality once per pair, and
    from_spread's union-size check covers the overlap.
    """
    if not family:
        raise ValueError("empty family")
    if b is None:
        b = max(int(max(f.degree for f in family)), 1)
    unit = one(family[0].spec)
    for f, g in itertools.combinations(family, 2):
        if poly_gcd(f, g) != unit:
            raise NotCoprime(f"gcd != 1 for {f.coeffs} and {g.coeffs}")
    spread = [kernel(build_matrix(f, b)) for f in family]
    for (i, f), (j, g) in itertools.combinations(enumerate(family), 2):
        if not trivial_intersection(spread[i], spread[j]):
            raise NotCoprime(
                f"kernels of {f.coeffs} and {g.coeffs} overlap at window size b={b}"
            )
    return spread
