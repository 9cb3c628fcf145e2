"""Boolean functions as truth tables, with the classic analytics.

A function of n variables is one Python int of 2^n bits, bit k = f(k), and
so is its algebraic normal form, bit I = the coefficient of monomial I.
Index k IS the flattened input vector: the variables x_1 ... x_n are the
bits of k from most to least significant. The hex form lists f(0) first,
as the top bit, in ceil(2^n / 4) digits: the 16-bit table
(0,0,0,0,0,1,1,0,0,0,1,1,0,1,0,1) prints as "0635".

The union of spread members, the weight, the ANF (the subset-sum transform
over GF(2), its own inverse), the degree and the Walsh spectrum are all int
operations; only rank2 unpacks a table to numpy. No build runs the
transform: Dillon's theorem makes every table from_spread returns bent, and
is_bent checks that with a transform in the tests and in verify.
"""

from __future__ import annotations

import functools
import itertools
import string
from dataclasses import dataclass

from .errors import ConstructionRejected, SpreadbentError, check_int
from .lrs import Subspace

# The largest table arity, the CLI's capacity; checked before any 1 << n
MAX_ARITY = 16


@dataclass(frozen=True)
class _Bits:
    n: int
    bits: int

    def __post_init__(self):
        check_int("arity n", self.n, 0, MAX_ARITY)
        if type(self.bits) is not int or self.bits < 0 or self.bits.bit_length() > 1 << self.n:
            raise SpreadbentError(f"expected an int of {1 << self.n} bits for n={self.n}")


@dataclass(frozen=True)
class TruthTable(_Bits):
    """Truth table: bit k is f(k)."""

    @classmethod
    def from_support(cls, n: int, support) -> "TruthTable":
        check_int("arity n", n, 0, MAX_ARITY)
        support = list(support)
        for k in support:
            # True == 1 and hashes like it, so a set would hide a bool; an
            # index past the table is refused before 1 << k is built
            if type(k) is not int or not 0 <= k < 1 << n:
                raise SpreadbentError(f"expected a support of int indices in [0, 2^{n}), got {k!r}")
        return cls(n, sum(1 << k for k in set(support)))

    @classmethod
    def from_hex(cls, n: int, text: str) -> "TruthTable":
        check_int("arity n", n, 0, MAX_ARITY)
        digits = max(1 << n >> 2, 1)
        if len(text) != digits or not set(text) <= set(string.hexdigits):
            raise SpreadbentError(f"expected {digits} hex digits for n={n}")
        raw = bytes.fromhex(text + "0" * (digits % 2)).translate(_bit_reversed())
        return cls(n, int.from_bytes(raw, "little"))  # set padding bits are out of range

    def weight(self) -> int:
        return self.bits.bit_count()

    def hex(self) -> str:
        # f(8j + i) is bit i of byte j; reversing each byte's bits puts f(8j)
        # at its top, and sub-byte tables drop the padding nibble
        raw = self.bits.to_bytes(max(1 << self.n >> 3, 1), "little")
        return raw.translate(_bit_reversed()).hex()[: max(1 << self.n >> 2, 1)]


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
    check_int("arity n", n, 0, MAX_ARITY)
    for i, low in enumerate(_low_masks(n)):
        bits ^= (bits & low) << (1 << i)
    return bits


def walsh_transform(tt: TruthTable) -> tuple[int, ...]:
    """The spectrum W(a) = sum_x (-1)^(f(x) + a.x) = 2^n - 2 wt(f + a.x),
    2^n exact ints.

    a runs through the Gray code a = k ^ (k >> 1). Step k flips bit i of a,
    i the lowest set bit of k, so it XORs the table of x -> bit i of x into
    the table of the linear function a.x.
    """
    size = 1 << tt.n
    full = (1 << size) - 1
    high = [full ^ low for low in _low_masks(tt.n)]
    spectrum = [0] * size
    linear = 0
    for k in range(size):
        if k:
            linear ^= high[(k & -k).bit_length() - 1]
        spectrum[k ^ k >> 1] = size - 2 * (tt.bits ^ linear).bit_count()
    return tuple(spectrum)


def nonlinearity(spectrum: tuple[int, ...]) -> int:
    return len(spectrum) // 2 - max(map(abs, spectrum)) // 2


def is_bent(tt: TruthTable) -> bool:
    """Flat spectrum test: every |W(a)| equals 2^(n/2); n must be even."""
    if tt.n % 2:
        raise SpreadbentError(f"bentness needs even arity, got n={tt.n}")
    return all(abs(w) == 1 << (tt.n // 2) for w in walsh_transform(tt))


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
