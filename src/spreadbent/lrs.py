"""Linear recurring sequence maps, their kernels, and partial spreads.

A feedback polynomial f of degree at most b acts on F_q^(2b) through the
banded b x 2b matrix over F_q whose row i carries the length-(b+1)
coefficient window of f starting at column i. A polynomial of degree e < b
is embedded as the window (c_0, ..., c_e, 0, ..., 0), so the constant 1
pins the first b coordinates to zero and X^b pins the last b, two
complementary coordinate subspaces.

The kernel of the map has exactly q^b elements, spanned by the l*b
generators that kernel returns as a Subspace. Flattening sends a vector
over F_q to an n-bit integer with coordinate 0 in the LOW bits: bit i*l + j
of the integer is the alpha^j coefficient of coordinate i. Printed as an
n-character bit string (index 0 last, i.e. the string is read coordinate 0
rightmost), the kernel of X^2 over GF(2) at b=2 is {0000, 0001, 0010, 0011},
the canonical ground truth this convention is locked to.

The band is defined over F_q, but only its GF(2) rows are held: the
linear algebra runs over GF(2) on the flattened vectors. Multiplying
by a field element c is GF(2)-linear on the l bits of an element, so each
band row becomes l int rows, one per output bit. An F_q-linear map has the
same kernel as its flattened GF(2) image and is invertible exactly when
that image is: kernels and a Subspace's basis test share one XOR reduction
of int rows, _absorb, and the Sylvester check reads two band row spaces'
masks; none multiplies field elements.

build_partial_spread only solves a family's kernels; boolfun.from_spread
alone checks that they meet pairwise only in zero. A shared factor always
makes two kernels overlap, and coprime polynomials can too when both
windows are deficient (1 and X at b=2), so a gcd test adds nothing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .errors import ConstructionRejected, SpreadbentError, check_int
from .gf2e import FieldSpec, fe_mul
from .poly import Poly, same_spec


@dataclass(frozen=True)
class Subspace:
    """An (n/2)-dimensional GF(2) subspace of F_2^n, built from a basis of
    n/2 independent ints in [0, 2^n), or SpreadbentError: the one
    definition of a spread member. n is read off the basis, 2*len(basis),
    as kernel reads it off its rows. vectors, the sorted span, comes from
    the basis by XOR doubling, and equality and hash read it, not bases.
    mask is the same set as one int, bit v set for each member v, built on
    first use, so unions and intersections are single OR and AND operations.
    Its bits are set in a bytearray and converted once, in time linear in
    2^n / 8 + 2^(n/2), where OR-ing in 1 << v would copy the int each time.
    """

    basis: tuple[int, ...] = field(compare=False)
    vectors: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        _pivots(self.basis)
        vectors = [0]
        for v in self.basis:
            vectors += [w ^ v for w in vectors]
        object.__setattr__(self, "vectors", tuple(sorted(vectors)))

    @property
    def n(self) -> int:
        return 2 * len(self.basis)

    @functools.cached_property
    def mask(self) -> int:
        raw = bytearray(max(1 << self.n >> 3, 1))
        for v in self.vectors:
            raw[v >> 3] |= 1 << (v & 7)
        return int.from_bytes(raw, "little")


def window(f: Poly, b: int) -> tuple[int, ...]:
    """Length-(b+1) coefficient window of f, zero-padded above its degree."""
    return tuple(f.coeffs[j] if j < len(f.coeffs) else 0 for j in range(b + 1))


def build_matrix(f: Poly, b: int) -> tuple[int, ...]:
    """The b x 2b band of f over F_q, whose row i applies the window of f
    at offset i, held only as its b*l GF(2) rows (see _gf2_rows)."""
    check_int("window size b", b, 1)
    if f.is_zero:
        raise ConstructionRejected("the zero polynomial defines no recurrence")
    if f.degree > b:
        raise SpreadbentError(f"degree {f.degree} exceeds window size b={b}")
    return _gf2_rows(f.spec, f.coeffs, b)


@functools.lru_cache(maxsize=16)
def _mul_bits(spec: FieldSpec) -> tuple[tuple[int, ...], ...]:
    # entry [c][j'] is the mask of input bits j for which bit j' of
    # c*alpha^j is set: row j' of the GF(2) matrix of x -> c*x
    images = [[fe_mul(spec, c, 1 << j) for j in range(spec.l)] for c in range(spec.q)]
    return tuple(
        tuple(sum(1 << j for j, y in enumerate(ys) if y >> jp & 1) for jp in range(spec.l))
        for ys in images
    )


@functools.lru_cache(maxsize=4096)
def _gf2_rows(spec: FieldSpec, coeffs: tuple[int, ...], b: int) -> tuple[int, ...]:
    """The b x 2b band matrix of the polynomial with these coefficients over
    spec, as b*l GF(2) rows over flattened vectors.

    Band row i splits into l rows, one per output bit j': bit i'*l + j of
    the GF(2) row is bit j' of c*alpha^j, where c is the entry in column i'.
    Band row 0 is the window of f, and band row i is row 0 moved i
    coordinates up, so its GF(2) rows are those of row 0 shifted by i*l bits.
    """
    l, table = spec.l, _mul_bits(spec)
    low = [
        sum(table[c][jp] << (k * l) for k, c in enumerate(coeffs) if c)
        for jp in range(l)
    ]
    return tuple(row << (i * l) for i in range(b) for row in low)


def _absorb(pivots: dict[int, int], rows: tuple[int, ...]) -> bool:
    """Reduce each row against the pivots (top bit -> reduced row) and add
    it as a new pivot; False as soon as one row reduces to zero."""
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
        else:
            return False
    return True


def _pivots(rows) -> dict[int, int]:
    """The echelon form of rows (top bit -> reduced row); SpreadbentError
    unless rows are a non-empty tuple of k ints (not bools, as in
    check_int) in [0, 2^(2k)) that _absorb finds independent: the basis
    test of Subspace and kernel, at n = 2k."""
    if not (isinstance(rows, tuple) and rows):
        raise SpreadbentError(f"expected a non-empty tuple of ints, got {rows!r}")
    k, pivots = len(rows), {}
    if not (all(type(v) is int and 0 <= v < 1 << 2 * k for v in rows)
            and _absorb(pivots, rows)):
        raise SpreadbentError(f"expected {k} independent ints in [0, 2^{2 * k}), got {rows!r}")
    return pivots


def kernel(rows: tuple[int, ...]) -> Subspace:
    """The q^b solutions of the banded system, as a Subspace of l*b generators.

    rows are build_matrix's b*l GF(2) rows of the F_q band, which has the
    same kernel as its flattened GF(2) image; like a Subspace basis they
    must be independent ints of n = 2*len(rows) bits. Each free column c of
    their echelon form gives a generator v = 1 << c. Then, pivot top t by
    top t in increasing order, bit t of v becomes the parity of row t & v,
    so v is orthogonal to that row, which holds no bit above t.
    """
    pivots = _pivots(rows)
    n = 2 * len(rows)
    generators = [1 << c for c in range(n) if c not in pivots]
    for t in sorted(pivots):
        generators = [v | ((pivots[t] & v).bit_count() & 1) << t for v in generators]
    return Subspace(tuple(generators))


def sylvester_resultant_nonzero(f: Poly, g: Poly, b: int) -> bool:
    """Invertibility of the 2b x 2b superposition of the two banded matrices.

    An F_q-linear map is invertible exactly when its flattened GF(2) image
    is, and the stack of f's b*l GF(2) band rows on g's has full rank
    2*b*l exactly when the two row spaces meet only in zero: the same mask
    test from_spread applies to kernels. A nonzero polynomial's band rows
    are independent, so each spans a Subspace; a zero polynomial has a zero
    band, so the stack is singular. Full rank is equivalent to
    gcd(f, g) = 1 whenever at most one of the two windows is
    degree-deficient. Each call spans two spaces of 2^(b*l) vectors, the
    same cost as kernel of the band. f and g must share one field, as in
    poly_gcd.
    """
    same_spec(f, g)
    check_int("window size b", b, 1)
    fc, gc = f.coeffs, g.coeffs
    if not fc and not gc:
        raise ConstructionRejected("resultant of two zero polynomials")
    if max(len(fc), len(gc)) > b + 1:
        raise SpreadbentError(f"degrees exceed window size b={b}")
    if not fc or not gc:
        return False
    rf, rg = _gf2_rows(f.spec, fc, b), _gf2_rows(g.spec, gc, b)
    return Subspace(rf).mask & Subspace(rg).mask == 1


def build_partial_spread(family: list[Poly], b: int) -> list[Subspace]:
    """The kernels of the family's members at window size b, in family
    order, unchecked: from_spread is the partial-spread check."""
    return [kernel(build_matrix(f, b)) for f in family]
