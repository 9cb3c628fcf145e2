"""Arithmetic in the binary extension fields GF(2^l).

A field element is a plain int in [0, 2^l): bit j holds the coefficient of
alpha^j, where alpha is a root of the defining modulus, so addition is
the XOR of two ints. The modulus is an
(l+1)-bit int read the same way (bit j = coefficient of X^j). This integer
encoding is fixed so that every serialized artifact (kernels, truth tables,
CSV rows) is bit-exact across runs and platforms.

All statistics computed downstream (ranks, weights, degrees, Walsh spectra)
are invariant under a change of defining polynomial: switching the modulus
re-indexes inputs by a fixed GF(2)-linear bijection, which preserves both
the Walsh multiset and the rank of the derived incidence matrix. The
modulus of each degree therefore pins the byte-level outputs without
affecting any of the reported invariants. It comes from a search alone:
field(l) takes the least irreducible of degree l by integer encoding, which
always has a nonzero constant term (0x3, 0x7, 0xb and 0x13 for l = 1..4).

Multiplication and inversion go through discrete-log tables (Lidl and
Niederreiter, Finite Fields, ch. 9). Each FieldSpec carries exp[i] = g^i
for a generator g of the multiplicative group, stored twice over so that a
sum of two logs indexes it without reduction, and log, its inverse on the
nonzero elements. The generator is the least element of full order q - 1:
alpha itself for the primitive moduli up to l = 7, but 3 for 0x11B at
l = 8. The tables are built from the shift-and-reduce product when the
spec is constructed, and field(l) builds each spec once per process, so
importing this module computes nothing.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

from .errors import SpreadbentError, check_int

# Each degree doubles a spec's 3*2^l-entry tables; supported shapes need
# l <= 8 (n = 2*l*b <= 16), and GF(2^16) is the largest built.
MAX_DEGREE = 16


@dataclass(frozen=True)
class FieldSpec:
    """The field GF(2^l) with its defining polynomial."""

    l: int
    modulus: int
    # Derived from (l, modulus), so left out of equality, hashing and repr.
    exp: tuple[int, ...] = dataclasses.field(init=False, compare=False, repr=False)
    log: tuple[int, ...] = dataclasses.field(init=False, compare=False, repr=False)

    def __post_init__(self):
        check_int("extension degree l", self.l, 1, MAX_DEGREE)
        if not isinstance(self.modulus, int) or self.modulus >> self.l != 1:
            raise SpreadbentError(
                f"modulus {self.modulus!r} is not a polynomial of degree {self.l}"
            )
        exp, log = _exp_log_tables(self.l, self.modulus)
        object.__setattr__(self, "exp", exp)
        object.__setattr__(self, "log", log)

    @property
    def q(self) -> int:
        return 1 << self.l


def _bitpoly_mulmod(x: int, y: int, mod: int, deg: int) -> int:
    # carry-less multiply of GF(2)[X] ints, reduced when bit `deg` appears
    acc = 0
    while y:
        if y & 1:
            acc ^= x
        y >>= 1
        x <<= 1
        if (x >> deg) & 1:
            x ^= mod
    return acc


def _exp_log_tables(l: int, mod: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # powers of the least generator, doubled; log[0] is a placeholder
    q = 1 << l
    for g in range(1, q):
        powers = [1]
        for _ in range(q - 2):
            powers.append(_bitpoly_mulmod(powers[-1], g, mod, l))
        if len(set(powers)) == q - 1 and 0 not in powers:
            break
    else:
        raise SpreadbentError(f"modulus {hex(mod)} does not define a field of degree {l}")
    log = [0] * q
    for i, x in enumerate(powers):
        log[x] = i
    return tuple(powers * 2), tuple(log)


def _bitpoly_irreducible(f: int, deg: int) -> bool:
    # trial division by every polynomial of degree 1..deg//2
    for d in range(1, deg // 2 + 1):
        for g in range(1 << d, 1 << (d + 1)):
            r = f
            while r.bit_length() - 1 >= d:
                r ^= g << (r.bit_length() - 1 - d)
            if r == 0:
                return False
    return True


def field(l: int) -> FieldSpec:
    """Return GF(2^l) with its canonical defining polynomial: the
    irreducible of degree l with the smallest integer encoding, found by
    search. The spec, tables included, is built once per degree and shared
    by every caller; the degree is checked before the memo is read.
    """
    check_int("extension degree l", l, 1, MAX_DEGREE)
    return _field(l)


@functools.cache
def _field(l: int) -> FieldSpec:
    for f in range(1 << l, 1 << (l + 1)):
        if f & 1 and _bitpoly_irreducible(f, l):
            return FieldSpec(l, f)
    raise SpreadbentError(f"no irreducible of degree {l} found")  # unreachable


def fe_mul(spec: FieldSpec, x: int, y: int) -> int:
    """Field multiplication: add the discrete logs, look the sum up."""
    if x and y:
        return spec.exp[spec.log[x] + spec.log[y]]
    return 0


def fe_inv(spec: FieldSpec, x: int) -> int:
    """Multiplicative inverse: g^(q-1-log x)."""
    if x == 0:
        raise SpreadbentError("0 has no multiplicative inverse")
    return spec.exp[spec.q - 1 - spec.log[x]]


def describe(spec: FieldSpec) -> str:
    """Report form of the field, e.g. GF(2^2)/modulus=0x7."""
    return f"GF(2^{spec.l})/modulus={hex(spec.modulus)}"
