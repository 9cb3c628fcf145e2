"""Univariate polynomials over GF(2^l) and the counting formulas built on them.

Coefficients are stored low-to-high: coeffs[i] is the coefficient of X^i,
each one a field element int. The zero polynomial is the empty tuple and has
degree -inf, the usual convention. Degree is read only by comparisons with a
window size b (lrs.build_matrix, families.nonzero_constant_members), and
-inf is below every b, so no zero case is needed there. Nonzero polynomials
never carry trailing zero coefficients.

Text form used in every report and CSV row: `[c0,c1,...,cb]`, e.g. the
polynomial X^2 + aX + a^2 over GF(4) is `[3,2,1]`.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from math import comb, factorial

from .errors import ConstructionRejected, SpreadbentError, check_int
from .gf2e import FieldSpec

NEG_INF = float("-inf")


@dataclass(frozen=True)
class Poly:
    spec: FieldSpec
    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int | float:
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs


def poly(spec: FieldSpec, coeffs) -> Poly:
    """Build a Poly from ints (no bools) in [0, q), dropping trailing zeros."""
    cs = list(coeffs)
    if any(type(c) is not int or not 0 <= c < spec.q for c in cs):
        raise SpreadbentError(f"coefficient out of range for {spec}: {cs}")
    while cs and cs[-1] == 0:
        cs.pop()
    return Poly(spec, tuple(cs))


def zero(spec: FieldSpec) -> Poly:
    return Poly(spec, ())


@functools.lru_cache(maxsize=16)
def one(spec: FieldSpec) -> Poly:
    return Poly(spec, (1,))


def x_power(spec: FieldSpec, k: int) -> Poly:
    check_int("power k", k, 0)
    return Poly(spec, (0,) * k + (1,))


def same_spec(f: Poly, g: Poly) -> FieldSpec:
    """The one field of f and g, or SpreadbentError for two fields."""
    if f.spec is not g.spec and f.spec != g.spec:
        raise SpreadbentError(f"{f.spec} vs {g.spec}")
    return f.spec


def _product(spec: FieldSpec, f: Sequence[int], g: Sequence[int]) -> tuple[int, ...]:
    """The product of two nonzero coefficient lists, read off the spec's
    log tables: g's logs are taken once, and each term of f adds its log
    to them. A field has no zero divisors, so the lead stays nonzero."""
    exp, log = spec.exp, spec.log
    out = [0] * (len(f) + len(g) - 1)
    terms = [(j, log[c]) for j, c in enumerate(g) if c]
    for i, c in enumerate(f):
        if c:
            e = log[c]
            for j, lc in terms:
                out[i + j] ^= exp[e + lc]
    return tuple(out)


def poly_mul(f: Poly, g: Poly) -> Poly:
    spec = same_spec(f, g)
    if f.is_zero or g.is_zero:
        return zero(spec)
    return Poly(spec, _product(spec, f.coeffs, g.coeffs))


def _reduce(spec: FieldSpec, r: list[int], g: Sequence[int]) -> None:
    """Reduce the coefficient list r modulo the nonzero g in place, leaving
    the remainder with trailing zeros stripped. Works on the spec's log
    tables directly, so the Euclidean loops build no Poly per step: the
    lead's inverse log is folded into the tail's logs once per divisor, so
    each step multiplies by the quotient term with one log lookup.
    """
    exp, log = spec.exp, spec.log
    order = len(log) - 1
    dg = len(g) - 1
    inv = order - log[g[dg]]
    tail = []
    for j in range(dg):
        if g[j]:
            tail.append((j, (log[g[j]] + inv) % order))
    for k in range(len(r) - 1 - dg, -1, -1):
        top = r[k + dg]
        if top:
            e = log[top]
            for j, lc in tail:
                r[k + j] ^= exp[e + lc]
    del r[dg:]
    while r and not r[-1]:
        r.pop()


def monic(f: Poly) -> Poly:
    """The one monic F with f = c*F, c the leading coefficient of f.

    One shift of the logs: dividing by c subtracts log c from every
    nonzero coefficient's log. A monic f is returned as it is.
    """
    cs = f.coeffs
    if not cs:
        raise ConstructionRejected("the zero polynomial has no monic form")
    if cs[-1] == 1:
        return f
    exp, log = f.spec.exp, f.spec.log
    shift = len(log) - 1 - log[cs[-1]]
    return Poly(f.spec, tuple(exp[log[c] + shift] if c else 0 for c in cs))


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor; gcd(f, 0) = monic(f).

    The Euclidean loop runs _reduce on coefficient lists, and monic
    normalises the result, so gcd(c*f, d*g) = gcd(f, g) for nonzero
    scalars c and d. A unit gcd is the field's shared one(spec), so
    coprime pairs build no Poly.
    """
    spec = same_spec(f, g)
    a, b = list(f.coeffs), list(g.coeffs)
    if not a and not b:
        raise ConstructionRejected("gcd(0, 0) is undefined")
    if len(a) < len(b):  # gcd is symmetric: divide the longer list first
        a, b = b, a
    while b:
        _reduce(spec, a, b)
        a, b = b, a
    if len(a) == 1:
        return one(spec)
    return monic(Poly(spec, tuple(a)))


def _monic_nonzero_constant(q: int, d: int):
    # the monic degree-d coefficient tuples with nonzero constant term,
    # lexicographic, constant term first
    for head in itertools.product(range(1, q), *[range(q)] * (d - 1)):
        yield head + (1,)


def _irreducible_coeffs(spec: FieldSpec, degree: int) -> list[tuple[int, ...]]:
    composite = {
        _product(spec, p, g)
        for e in range(1, degree // 2 + 1)
        for p in _irreducible_coeffs(spec, e)
        for g in _monic_nonzero_constant(spec.q, degree - e)
    }
    return [f for f in _monic_nonzero_constant(spec.q, degree) if f not in composite]


def enumerate_irreducibles(spec: FieldSpec, degree: int) -> list[Poly]:
    """All monic irreducibles of the given degree with nonzero constant
    term, lexicographic by coefficient tuple (constant term first). Only
    degree 1 loses a member to that rule: X itself.

    A sieve on coefficient tuples: a reducible f of degree d has an
    irreducible factor p of degree e <= d/2, and when f(0) != 0 so do p
    and the monic cofactor. Striking every such product p*g from the
    candidates leaves the irreducibles, and only they become a Poly.
    """
    check_int("degree", degree, 1)
    return [Poly(spec, f) for f in _irreducible_coeffs(spec, degree)]


def _monic_irreducible_count(q: int, k: int) -> int:
    # Gauss's identity q^k = sum over d | k of d * N_d, solved for N_k: the
    # count of every monic irreducible of degree k over F_q, X included
    proper = sum(d * _monic_irreducible_count(q, d) for d in range(1, k) if k % d == 0)
    return (q**k - proper) // k


def gauss_count(spec: FieldSpec, k: int) -> int:
    """Number of monic irreducibles of degree k with nonzero constant term:
    all of them (_monic_irreducible_count) but X, which has degree 1."""
    check_int("degree k", k, 1)
    return _monic_irreducible_count(spec.q, k) - (k == 1)


def closed_form_family_count(spec: FieldSpec, b: int) -> int:
    """Closed-form count of the degree-b nonzero-constant coprime families
    of size 2^(m-1), m = l*b, i.e. of the negative-type functions they
    generate.

    b=1: choose 2^(m-1) of the 2^m - 1 admissible linears. b=2: sum over
    family shapes (A irreducibles, B squares of linears, C products of two
    distinct linears, each linear used at most once). Larger b admits no
    half-sized family, so no closed form is provided.
    """
    if type(b) is not int or b not in (1, 2):
        raise SpreadbentError(f"closed form exists only for b in {{1, 2}}, got {b}")
    m = spec.l * b
    t = 1 << (m - 1)
    if b == 1:
        return comb((1 << m) - 1, t)
    q = spec.q
    i2, i1 = (q * q - q) // 2, q - 1
    total = 0
    for a in range(min(i2, t) + 1):
        for bb in range(min(i1, t - a) + 1):
            c = t - a - bb
            if 2 * c > i1 - bb:
                continue
            pairings = factorial(2 * c) // (factorial(c) * (1 << c))
            total += comb(i2, a) * comb(i1, bb) * comb(i1 - bb, 2 * c) * pairings
    return total


def format_poly(f: Poly) -> str:
    return "[" + ",".join(str(c) for c in f.coeffs) + "]"


def parse_poly(spec: FieldSpec, text: str) -> Poly:
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    if not body:
        return zero(spec)
    try:
        coeffs = [int(c) for c in body.split(",")]
    except ValueError:
        raise SpreadbentError(f"cannot parse polynomial {text!r}") from None
    return poly(spec, coeffs)
