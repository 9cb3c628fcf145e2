"""Univariate polynomials over GF(2^l) and the counting formulas built on them.

Coefficients are stored low-to-high: coeffs[i] is the coefficient of X^i,
each one a field element int. The zero polynomial is the empty tuple and has
degree -inf (a real sentinel, so the Euclidean loop's degree comparisons
need no special casing). Nonzero polynomials never carry trailing zero
coefficients.

Text form used in every report and CSV row: `[c0,c1,...,cb]`, e.g. the
polynomial X^2 + aX + a^2 over GF(4) is `[3,2,1]`.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from math import comb, factorial

from .errors import ConstructionRejected, SpreadbentError
from .gf2e import FieldSpec, fe_inv, fe_mul

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
    """Build a Poly, dropping trailing zero coefficients."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    if any(not 0 <= c < spec.q for c in cs):
        raise SpreadbentError(f"coefficient out of range for {spec}: {cs}")
    return Poly(spec, tuple(cs))


def zero(spec: FieldSpec) -> Poly:
    return Poly(spec, ())


def one(spec: FieldSpec) -> Poly:
    return Poly(spec, (1,))


def x_power(spec: FieldSpec, k: int) -> Poly:
    return Poly(spec, (0,) * k + (1,))


def _same_spec(f: Poly, g: Poly) -> FieldSpec:
    if f.spec != g.spec:
        raise SpreadbentError(f"{f.spec} vs {g.spec}")
    return f.spec


def poly_mul(f: Poly, g: Poly) -> Poly:
    spec = _same_spec(f, g)
    if f.is_zero or g.is_zero:
        return zero(spec)
    out = [0] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        if a == 0:
            continue
        for j, b in enumerate(g.coeffs):
            out[i + j] ^= fe_mul(spec, a, b)
    return poly(spec, out)


def _reduce(spec: FieldSpec, r: list[int], g: Sequence[int]) -> None:
    """Reduce the coefficient list r modulo the nonzero g in place, leaving
    the remainder with trailing zeros stripped. Works on the spec's log
    tables directly, so the Euclidean loops build no Poly per step.
    """
    exp, log, order = spec.exp, spec.log, spec.q - 1
    dg = len(g) - 1
    lead_log = log[g[-1]]
    tail = [(j, log[c]) for j, c in enumerate(g[:-1]) if c]
    for k in range(len(r) - 1 - dg, -1, -1):
        top = r[k + dg]
        if top:
            e = (log[top] - lead_log) % order
            for j, lc in tail:
                r[k + j] ^= exp[e + lc]
    del r[dg:]
    while r and not r[-1]:
        r.pop()


def monic(f: Poly) -> Poly:
    if f.is_zero or f.coeffs[-1] == 1:
        return f
    inv = fe_inv(f.spec, f.coeffs[-1])
    return Poly(f.spec, tuple(fe_mul(f.spec, inv, c) for c in f.coeffs))


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor; gcd(f, 0) = monic(f)."""
    spec = _same_spec(f, g)
    if f.is_zero and g.is_zero:
        raise ConstructionRejected("gcd(0, 0) is undefined")
    a, b = list(f.coeffs), list(g.coeffs)
    while b:
        _reduce(spec, a, b)
        a, b = b, a
    return monic(Poly(spec, tuple(a)))


def _monic_of_degree(spec: FieldSpec, d: int):
    for tail in itertools.product(range(spec.q), repeat=d):
        yield Poly(spec, tail + (1,))


def is_irreducible(f: Poly) -> bool:
    """Trial division against all monic polynomials of degree <= deg f / 2.

    Each trial divides a copy of f's coefficient list in place through
    _reduce, with no Poly per divisor. Only meant for desk-scale degrees;
    the loop count is q^(deg/2).
    """
    if f.degree < 1:
        raise SpreadbentError(f"irreducibility needs degree >= 1, got {f.degree}")
    d = int(f.degree)
    for e in range(1, d // 2 + 1):
        for tail in itertools.product(range(f.spec.q), repeat=e):
            r = list(f.coeffs)
            _reduce(f.spec, r, tail + (1,))
            if not r:
                return False
    return True


def enumerate_irreducibles(spec: FieldSpec, degree: int) -> list[Poly]:
    """All monic irreducibles of the given degree with nonzero constant
    term, lexicographic by coefficient tuple (constant term first). Only
    degree 1 loses a member to that rule: X itself."""
    if degree < 1:
        raise SpreadbentError(f"degree must be >= 1, got {degree}")
    out = [f for f in _monic_of_degree(spec, degree) if f.coeffs[0] != 0 and is_irreducible(f)]
    out.sort(key=lambda f: f.coeffs)
    return out


def _moebius(n: int) -> int:
    if n == 1:
        return 1
    k, sign = n, 1
    p = 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            sign = -sign
        p += 1
    if k > 1:
        sign = -sign
    return sign


def gauss_count(spec: FieldSpec, k: int) -> int:
    """Number of monic irreducibles of degree k with nonzero constant term.

    For k >= 2 every irreducible already has a nonzero constant term and the
    count is the divisor sum (1/k) * sum_{d|k} mu(d) q^(k/d). For k = 1 the
    polynomial X is excluded, leaving q - 1.
    """
    if k < 1:
        raise SpreadbentError(f"k must be >= 1, got {k}")
    q = spec.q
    if k == 1:
        return q - 1
    total = sum(_moebius(d) * q ** (k // d) for d in range(1, k + 1) if k % d == 0)
    return total // k


def closed_form_family_count(spec: FieldSpec, b: int, m: int) -> int:
    """Closed-form count of the degree-b nonzero-constant coprime families
    of size 2^(m-1), i.e. of the negative-type functions they generate.

    b=1: choose 2^(m-1) of the 2^m - 1 admissible linears. b=2: sum over
    family shapes (A irreducibles, B squares of linears, C products of two
    distinct linears, each linear used at most once). Larger b admits no
    half-sized family, so no closed form is provided.
    """
    if b not in (1, 2):
        raise SpreadbentError(f"closed form exists only for b in {{1, 2}}, got {b}")
    if spec.l * b != m:
        raise SpreadbentError(f"need l*b = m, got l={spec.l} b={b} m={m}")
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
    return poly(spec, [int(c) for c in body.split(",")])
