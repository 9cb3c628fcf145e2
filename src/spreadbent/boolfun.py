"""Boolean functions as truth tables, with the classic analytics.

A function of n variables is one Python int of 2^n bits, bit k = f(k), and
so is its algebraic normal form, bit I = the coefficient of monomial I.
Index k IS the flattened input vector: the variables x_1 ... x_n are the
bits of k from most to least significant. The hex form lists f(0) first,
as the top bit, in ceil(2^n / 4) digits: the 16-bit table
(0,0,0,0,0,1,1,0,0,0,1,1,0,1,0,1) prints as "0635".

The union of spread members, the weight, the ANF (the subset-sum transform
over GF(2), its own inverse) and the degree are int operations. Only the
Walsh transform (two float64 matrix products) and rank2's development
matrix unpack the table to numpy. No build runs the transform: Dillon's
theorem makes every table from_spread returns bent, and is_bent checks
that with a transform in the tests and in verify.
"""

from __future__ import annotations

import functools
import itertools
import string
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionRejected, SpreadbentError, check_int
from .lrs import Subspace


@dataclass(frozen=True)
class _Bits:
    n: int
    bits: int

    def __post_init__(self):
        check_int("arity n", self.n, 0)
        if not isinstance(self.bits, int) or self.bits < 0 or self.bits.bit_length() > 1 << self.n:
            raise SpreadbentError(f"expected an int of {1 << self.n} bits for n={self.n}")


@dataclass(frozen=True)
class TruthTable(_Bits):
    """Truth table: bit k is f(k)."""

    @classmethod
    def from_support(cls, n: int, support) -> "TruthTable":
        support = set(support)
        if support and min(support) < 0:
            raise SpreadbentError(f"expected a support of indices >= 0, got {min(support)}")
        return cls(n, sum(1 << k for k in support))

    @classmethod
    def from_hex(cls, n: int, text: str) -> "TruthTable":
        check_int("arity n", n, 0)
        digits = max(1 << n >> 2, 1)
        if len(text) != digits or not set(text) <= set(string.hexdigits):
            raise SpreadbentError(f"expected {digits} hex digits for n={n}")
        raw = bytes.fromhex(text + "0" * (digits % 2)).translate(_bit_reversed())
        return cls(n, int.from_bytes(raw, "little"))  # set padding bits are out of range

    def weight(self) -> int:
        return self.bits.bit_count()

    def hex(self) -> str:
        # bit-reversed bytes put f(8j) at the top of byte j; sub-byte tables
        # drop the padding nibble
        return self._bytes().translate(_bit_reversed()).hex()[: max(1 << self.n >> 2, 1)]

    def array(self) -> np.ndarray:
        """The table unpacked into a uint8 array, entry k = f(k)."""
        raw = np.frombuffer(self._bytes(), dtype=np.uint8)
        return np.unpackbits(raw, bitorder="little")[: 1 << self.n]

    def _bytes(self) -> bytes:
        # f(8j + i) is bit i of byte j
        return self.bits.to_bytes(max(1 << self.n >> 3, 1), "little")


@dataclass(frozen=True)
class Anf(_Bits):
    """Algebraic normal form: bit I is the coefficient of monomial I."""

    def monomials(self) -> list[int]:
        return [i for i in range(1 << self.n) if self.bits >> i & 1]


@functools.cache
def _bit_reversed() -> bytes:
    # a bytes.translate table that reverses the bit order of each byte
    return bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))


@functools.cache
def _low_masks(n: int) -> tuple[int, ...]:
    # entry i: the indices of a 2^n-bit table whose bit i is clear
    full = (1 << (1 << n)) - 1
    return tuple(((1 << (1 << i)) - 1) * (full // ((1 << (2 << i)) - 1)) for i in range(n))


@functools.cache
def _weight_masks(n: int) -> tuple[int, ...]:
    # entry d: the indices of a 2^n-bit table with d set bits
    masks = [0] * (n + 1)
    for k in range(1 << n):
        masks[k.bit_count()] |= 1 << k
    return tuple(masks)


@functools.cache
def _monomial_terms(n: int) -> tuple:
    # entry k + 1: the printed monomial of index k ("x1*x3"; "1" for k = 0)
    # and its bit, so a set-bit walk indexes it with bit_length()
    return (None,) + tuple(
        ("*".join(f"x{n - p}" for p in range(n - 1, -1, -1) if (k >> p) & 1) or "1", 1 << k)
        for k in range(1 << n)
    )


def from_spread(spread: list[Subspace], plus_type: bool) -> TruthTable:
    """Indicator of the union of spread members.

    Negative type: the union minus the zero vector, 2^(m-1) members,
    weight 2^(n-1) - 2^(m-1). Positive type: one extra member and the zero
    vector kept in, weight 2^(n-1) + 2^(m-1).

    The one partial-spread check, for catalog and ad-hoc families alike:
    with every member a Subspace of F_2^n, so 2^m vectors holding zero, the
    union (the OR of the masks, and the table) has popcount t*(2^m - 1) + 1
    exactly when the members meet pairwise only in zero. Any other count
    raises ConstructionRejected naming the first overlapping pair by position.
    """
    if not spread:
        raise ConstructionRejected("empty spread")
    n = spread[0].n
    m = n // 2
    t_expected = (1 << (m - 1)) + (1 if plus_type else 0)
    if len(spread) != t_expected:
        raise ConstructionRejected(
            f"need {t_expected} members for this type at n={n}, got {len(spread)}"
        )
    union = 0
    for k, s in enumerate(spread):
        if s.n != n:
            raise ConstructionRejected(f"member {k} is a subspace of F_2^{s.n}, not of F_2^{n}")
        union |= s.mask
    if union.bit_count() != len(spread) * ((1 << m) - 1) + 1:
        pairs = itertools.combinations(range(len(spread)), 2)
        i, j = next((i, j) for i, j in pairs if spread[i].mask & spread[j].mask != 1)
        raise ConstructionRejected(f"spread members {i} and {j} share nonzero vectors")
    return TruthTable(n, union if plus_type else union & ~1)


def mobius(bits: int, n: int) -> int:
    """Subset-sum transform over GF(2) of a 2^n-bit int; involutive, maps
    table <-> ANF. Step i adds each entry whose index has bit i clear into
    the entry 2^i above it."""
    for i, low in enumerate(_low_masks(n)):
        bits ^= (bits & low) << (1 << i)
    return bits


@functools.cache
def _hadamard(k: int) -> np.ndarray:
    # the read-only 2^k x 2^k Sylvester-Hadamard matrix, entry (u, x) =
    # (-1)^(u.x), as float64 for BLAS
    h = np.ones((1, 1))
    for _ in range(k):
        h = np.block([[h, h], [h, -h]])
    h.setflags(write=False)
    return h


def walsh_transform(tt: TruthTable) -> np.ndarray:
    """The spectrum W(u) = sum_x (-1)^(f(x) + u.x), read-only int32, 2^n
    entries.

    Splitting the index into its high a = n//2 and low n - a bits makes
    H_(2^n) = H_(2^a) (x) H_(2^(n-a)) (Fino and Algazi, 1976), so the
    spectrum is H_a @ S @ H_b with S the polarity table as a 2^a x 2^(n-a)
    matrix. It is exact: every partial sum is an integer of magnitude at
    most 2^n, far inside float64's 2^53.
    """
    n, a = tt.n, tt.n // 2
    s = (1.0 - 2.0 * tt.array()).reshape(1 << a, 1 << (n - a))
    spectrum = (_hadamard(a) @ s @ _hadamard(n - a)).astype(np.int32).reshape(1 << n)
    spectrum.setflags(write=False)
    return spectrum


def nonlinearity(spectrum: np.ndarray) -> int:
    return len(spectrum) // 2 - int(np.abs(spectrum).max()) // 2


def is_bent(tt: TruthTable) -> bool:
    """Flat spectrum test: every |W(u)| equals 2^(n/2); n must be even."""
    if tt.n % 2:
        raise SpreadbentError(f"bentness needs even arity, got n={tt.n}")
    return bool((np.abs(walsh_transform(tt)) == 1 << (tt.n // 2)).all())


def anf(tt: TruthTable) -> Anf:
    return Anf(tt.n, mobius(tt.bits, tt.n))


def algebraic_degree(a: Anf) -> int:
    """Largest monomial size; constants, the zero function among them,
    report degree 0."""
    masks = _weight_masks(a.n)
    return next((d for d in range(a.n, 0, -1) if a.bits & masks[d]), 0)


def format_anf(a: Anf) -> str:
    """Render as x-terms, e.g. 'x1*x3 + x2*x3 + x2*x4'; '0' when empty.

    Terms print by degree, highest first; within a degree, by variable
    numbers, which is descending index order; the constant 1 comes last.
    """
    if not a.bits:
        return "0"
    monomials, terms = _monomial_terms(a.n), []
    for mask in reversed(_weight_masks(a.n)):
        rest = a.bits & mask
        while rest:
            text, bit = monomials[rest.bit_length()]
            terms.append(text)
            rest ^= bit
    return " + ".join(terms)
