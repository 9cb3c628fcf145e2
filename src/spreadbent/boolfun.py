"""Boolean functions as truth tables, with the classic analytics.

A function of n variables is a 2^n-entry bit table. Table index k IS the
flattened input vector: the variables are named x_1 ... x_n reading the
index bits from most significant to least significant, so x_1 is the top
bit of k. The hex form packs table[0] into the most significant bit of the
first byte; the 16-bit table (0,0,0,0,0,1,1,0,0,0,1,1,0,1,0,1) prints as
"0635".

Transforms run on unpacked numpy arrays: the Walsh spectrum through the
in-place butterfly on the polarity table, the algebraic normal form through
the subset-sum transform over GF(2), which is its own inverse.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConstructionRejected, SpreadbentError
from .lrs import Subspace


class TruthTable:
    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits):
        arr = np.asarray(bits, dtype=np.uint8)
        if arr.shape != (1 << n,):
            raise SpreadbentError(f"expected {1 << n} bits for n={n}, got {arr.shape}")
        arr = arr.copy()
        arr.setflags(write=False)
        self.n = n
        self.bits = arr

    @classmethod
    def from_support(cls, n: int, support) -> "TruthTable":
        bits = np.zeros(1 << n, dtype=np.uint8)
        idx = np.asarray(sorted(support), dtype=np.int64)
        if idx.size:
            bits[idx] = 1
        return cls(n, bits)

    @classmethod
    def from_hex(cls, n: int, text: str) -> "TruthTable":
        if len(text) != -(-(1 << n) // 4):
            raise SpreadbentError(f"expected {-(-(1 << n) // 4)} hex digits for n={n}")
        raw = bytes.fromhex(text if len(text) % 2 == 0 else text + "0")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[: 1 << n]
        return cls(n, bits)

    def support(self) -> list[int]:
        return [int(i) for i in np.nonzero(self.bits)[0]]

    def weight(self) -> int:
        return int(self.bits.sum())

    def hex(self) -> str:
        # ceil(2^n / 4) digits; sub-byte tables drop the padding nibble
        return np.packbits(self.bits).tobytes().hex()[: -(-(1 << self.n) // 4)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruthTable)
            and self.n == other.n
            and np.array_equal(self.bits, other.bits)
        )

    def __repr__(self) -> str:
        return f"TruthTable(n={self.n}, hex={self.hex()!r})"


class WalshSpectrum:
    __slots__ = ("n", "values")

    def __init__(self, n: int, values):
        self.n = n
        self.values = np.asarray(values, dtype=np.int32)
        self.values.setflags(write=False)


class Anf:
    """Algebraic normal form: one coefficient bit per monomial index.

    Monomial index I is read like a truth-table index: bit of x_j set means
    the variable x_j (x_1 = top bit) occurs in the monomial. Index 0 is the
    constant term.
    """

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits):
        self.n = n
        self.bits = np.asarray(bits, dtype=np.uint8)
        self.bits.setflags(write=False)

    @property
    def is_zero(self) -> bool:
        return not self.bits.any()

    def monomials(self) -> list[int]:
        return [int(i) for i in np.nonzero(self.bits)[0]]


def from_spread(spread: list[Subspace], plus_type: bool) -> TruthTable:
    """Indicator of the union of spread members.

    Negative type: the union minus the zero vector, 2^(m-1) members,
    weight 2^(n-1) - 2^(m-1). Positive type: one extra member and the zero
    vector kept in, weight 2^(n-1) + 2^(m-1).

    The union is the OR of the members' masks. For t subspaces its
    popcount is t*(2^m - 1) + 1 exactly when they meet pairwise only in
    zero; any other count raises ConstructionRejected. The table is the
    union's bits, unpacked with bit v at index v.
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
    for s in spread:
        if s.n != n or len(s.vectors) != (1 << m):
            raise ConstructionRejected(f"member has n={s.n}, size {len(s.vectors)}")
        union |= s.mask
    if union.bit_count() != len(spread) * ((1 << m) - 1) + 1:
        raise ConstructionRejected("spread members share nonzero vectors")
    if not plus_type:
        union &= ~1
    raw = np.frombuffer(union.to_bytes(max(1 << n >> 3, 1), "little"), dtype=np.uint8)
    return TruthTable(n, np.unpackbits(raw, bitorder="little")[: 1 << n])


def mobius(bits: np.ndarray) -> np.ndarray:
    """Subset-sum transform over GF(2); involutive, maps table <-> ANF."""
    out = np.array(bits, dtype=np.uint8)
    size = out.shape[0]
    h = 1
    while h < size:
        v = out.reshape(-1, 2 * h)
        v[:, h:] ^= v[:, :h]
        h *= 2
    return out


def walsh_transform(tt: TruthTable) -> WalshSpectrum:
    """Fast butterfly on the polarity table, O(n 2^n) additions."""
    s = 1 - 2 * tt.bits.astype(np.int32)
    size = s.shape[0]
    h = 1
    while h < size:
        v = s.reshape(-1, 2 * h)
        left = v[:, :h].copy()
        right = v[:, h:].copy()
        v[:, :h] = left + right
        v[:, h:] = left - right
        h *= 2
    return WalshSpectrum(tt.n, s)


def nonlinearity(spectrum: WalshSpectrum) -> int:
    return (1 << (spectrum.n - 1)) - int(np.abs(spectrum.values).max()) // 2


def is_flat(spectrum: WalshSpectrum) -> bool:
    """Flat spectrum test: every |W(a)| equals 2^(n/2)."""
    if spectrum.n % 2:
        raise SpreadbentError(f"bentness needs even arity, got n={spectrum.n}")
    return bool((np.abs(spectrum.values) == 1 << (spectrum.n // 2)).all())


def is_bent(tt: TruthTable) -> bool:
    return is_flat(walsh_transform(tt))


def anf(tt: TruthTable) -> Anf:
    return Anf(tt.n, mobius(tt.bits))


def algebraic_degree(a: Anf) -> int:
    """Largest monomial size; constants (including the zero function,
    flagged by Anf.is_zero) report degree 0."""
    if a.is_zero:
        return 0
    idx = np.nonzero(a.bits)[0]
    return max(int(i).bit_count() for i in idx)


@functools.cache
def _anf_print_order(n: int) -> tuple[np.ndarray, np.ndarray]:
    # every monomial index at arity n in print order (higher degree first,
    # then by variable numbers, the constant 1 last) and the text of each
    def names(idx):
        return tuple(n - p for p in range(n - 1, -1, -1) if (idx >> p) & 1)

    order = sorted(range(1 << n), key=lambda idx: (-idx.bit_count(), names(idx)))
    texts = ["*".join(f"x{v}" for v in names(idx)) or "1" for idx in order]
    return np.array(order), np.array(texts, dtype=object)


def format_anf(a: Anf) -> str:
    """Render as x-terms, e.g. 'x1*x3 + x2*x3 + x2*x4'; '0' when empty."""
    if a.is_zero:
        return "0"
    order, texts = _anf_print_order(a.n)
    return " + ".join(texts[a.bits[order] != 0])
