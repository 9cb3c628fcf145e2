"""Linear recurring sequence maps, their kernels, and partial spreads.

A feedback polynomial f of degree at most b acts on F_q^(2b) through the
banded b x 2b matrix over F_q whose row i carries the length-(b+1)
coefficient window of f starting at column i. A polynomial of degree e < b
is embedded as the window (c_0, ..., c_e, 0, ..., 0), so the constant 1
pins the first b coordinates to zero and X^b pins the last b, two
complementary coordinate subspaces.

The kernel of the map has exactly q^b elements. Flattening sends a vector
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
that image is, so kernels and the Sylvester check eliminate int rows by
XOR, with no field multiplication.

build_partial_spread only solves a family's kernels; boolfun.from_spread
alone checks that they meet pairwise only in zero. A shared factor always
makes two kernels overlap, and coprime polynomials can too when both
windows are deficient (1 and X at b=2), so a gcd test adds nothing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import ConstructionRejected, SpreadbentError
from .gf2e import FieldSpec, fe_mul
from .poly import Poly


@dataclass(frozen=True)
class Subspace:
    """An (n/2)-dimensional GF(2) subspace of F_2^n, fully enumerated.

    vectors holds all 2^(n/2) flattened elements, sorted. mask is the same set
    as one int with bit v set for each member v, built on first use: unions
    and intersections of subspaces are then single OR and AND operations,
    and a truth table is the OR of its members' masks. The bits are set in
    a bytearray and converted once, in time linear in 2^n / 8 + 2^(n/2);
    OR-ing 1 << v into an int copies the whole int at every step.
    """

    n: int
    vectors: tuple[int, ...]

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
    if f.is_zero:
        raise ConstructionRejected("the zero polynomial defines no recurrence")
    if f.degree > b:
        raise SpreadbentError(f"degree {f.degree} exceeds window size b={b}")
    return _gf2_rows(f.spec.modulus, f.coeffs, b)


@functools.lru_cache(maxsize=16)
def _mul_bits(modulus: int) -> tuple[tuple[int, ...], ...]:
    # entry [c][j'] is the mask of input bits j for which bit j' of
    # c*alpha^j is set: row j' of the GF(2) matrix of x -> c*x
    spec = FieldSpec(modulus.bit_length() - 1, modulus)
    images = [[fe_mul(spec, c, 1 << j) for j in range(spec.l)] for c in range(spec.q)]
    return tuple(
        tuple(sum(1 << j for j, y in enumerate(ys) if y >> jp & 1) for jp in range(spec.l))
        for ys in images
    )


@functools.lru_cache(maxsize=4096)
def _gf2_rows(modulus: int, coeffs: tuple[int, ...], b: int) -> tuple[int, ...]:
    """The b x 2b band matrix of the polynomial with these coefficients over
    GF(2)[X]/(modulus), as b*l GF(2) rows over flattened vectors.

    Band row i splits into l rows, one per output bit j': bit i'*l + j of
    the GF(2) row is bit j' of c*alpha^j, where c is the entry in column i'.
    Band row 0 is the window of f, and band row i is row 0 moved i
    coordinates up, so its GF(2) rows are those of row 0 shifted by i*l bits.
    The memo is keyed by ints, not by the Poly: hashing a Poly rehashes its
    FieldSpec, and the modulus alone tells two fields of one degree apart.
    """
    l, table = modulus.bit_length() - 1, _mul_bits(modulus)
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


@functools.lru_cache(maxsize=4096)
def _echelon(modulus: int, coeffs: tuple[int, ...], b: int) -> dict[int, int] | None:
    """The band rows of one polynomial in echelon form, or None when they
    are dependent (only the zero polynomial's are). The memo hands out one
    dict per key, so callers copy it before adding rows."""
    pivots: dict[int, int] = {}
    return pivots if _absorb(pivots, _gf2_rows(modulus, coeffs, b)) else None


def kernel(rows: tuple[int, ...]) -> Subspace:
    """All q^b solutions of the banded system, flattened and sorted.

    rows are build_matrix's b*l GF(2) rows of the F_q band, which has the
    same kernel as its flattened GF(2) image. They are brought to reduced
    echelon form as ints. Each free column c gives one of the l*b
    generators: bit c, plus the pivot bit of every row that has bit c set.
    XOR spans the rest.
    """
    dim = len(rows)
    n = 2 * dim
    pivots: dict[int, int] = {}  # pivot column -> its reduced row
    for row in rows:
        for c, p in pivots.items():
            if row >> c & 1:
                row ^= p
        if row:
            c = (row & -row).bit_length() - 1
            for pc, p in list(pivots.items()):
                if p >> c & 1:
                    pivots[pc] = p ^ row
            pivots[c] = row
    if len(pivots) < dim:
        raise ConstructionRejected(f"recurrence matrix has GF(2) rank {len(pivots)} < {dim}")
    basis = [
        1 << c | sum(1 << pc for pc, p in pivots.items() if p >> c & 1)
        for c in range(n)
        if c not in pivots
    ]
    vectors = [0]
    for v in basis:
        vectors += [w ^ v for w in vectors]
    vectors.sort()
    return Subspace(n=n, vectors=tuple(vectors))


def sylvester_resultant_nonzero(f: Poly, g: Poly, b: int) -> bool:
    """Invertibility of the 2b x 2b superposition of the two banded matrices.

    Stacks the b*l GF(2) rows of f's band matrix on those of g's and tests
    for rank 2*b*l by int-row elimination: an F_q-linear map is invertible
    exactly when its flattened GF(2) image is. A zero polynomial has a zero
    band, so the stack is singular. Full rank is equivalent to
    gcd(f, g) = 1 whenever at most one of the two windows is
    degree-deficient.

    f's rows are brought to echelon form once per (field, polynomial, b)
    in a memo; each call copies those pivots and reduces only g's rows
    against them. The stack has 2*b*l rows of 2*b*l bits, so it is
    singular as soon as one row reduces to zero against the pivots of the
    rows before it.
    """
    fc, gc = f.coeffs, g.coeffs
    if not fc and not gc:
        raise ConstructionRejected("resultant of two zero polynomials")
    if max(len(fc), len(gc)) > b + 1:
        raise SpreadbentError(f"degrees exceed window size b={b}")
    pivots = _echelon(f.spec.modulus, fc, b)
    return pivots is not None and _absorb(pivots.copy(), _gf2_rows(g.spec.modulus, gc, b))


def build_partial_spread(family: list[Poly], b: int) -> list[Subspace]:
    """The kernels of the family's members at window size b, in family
    order, unchecked: from_spread is the partial-spread check."""
    return [kernel(build_matrix(f, b)) for f in family]
