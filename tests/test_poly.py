import itertools
import math

import pytest

from spreadbent.errors import ConstructionRejected, SpreadbentError
from spreadbent.gf2e import field
from spreadbent.poly import (
    Poly,
    _reduce,
    closed_form_family_count,
    enumerate_irreducibles,
    format_poly,
    gauss_count,
    monic,
    one,
    parse_poly,
    poly,
    poly_gcd,
    poly_mul,
    x_power,
    zero,
)

GF2 = field(1)
GF4 = field(2)


def all_polys(spec, maxdeg):
    out = {()}
    for coeffs in itertools.product(range(spec.q), repeat=maxdeg + 1):
        out.add(poly(spec, coeffs).coeffs)
    return [Poly(spec, c) for c in sorted(out, key=lambda c: (len(c), c))]


def xor(f, g):
    """f + g over GF(2^l): coefficient-wise XOR."""
    return poly(f.spec, [a ^ b for a, b in itertools.zip_longest(f.coeffs, g.coeffs, fillvalue=0)])


def test_normalization_strips_trailing_zeros():
    p = poly(GF4, (1, 2, 0, 0))
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert poly(GF4, (0, 0, 0)).is_zero


def test_coefficients_validated():
    with pytest.raises(ValueError):
        poly(GF4, (4,))
    with pytest.raises(ValueError):
        poly(GF2, (-1,))


def test_degree_conventions():
    assert zero(GF2).degree == float("-inf")
    assert one(GF2).degree == 0
    assert x_power(GF2, 3).degree == 3


def test_mul_known_product():
    # (X + 1)(X^2 + X + 1) = X^3 + 1 over GF(2)
    f = poly(GF2, (1, 1))
    g = poly(GF2, (1, 1, 1))
    assert poly_mul(f, g).coeffs == (1, 0, 0, 1)


def test_mul_gf4():
    # (X + a)(X + a^2) = X^2 + X + 1: the norm and trace of a primitive element
    f = poly(GF4, (2, 1))
    g = poly(GF4, (3, 1))
    assert poly_mul(f, g).coeffs == (1, 1, 1)


def test_ring_identities():
    polys = all_polys(GF4, 2)[:20]
    for f, g in itertools.combinations(polys, 2):
        assert poly_mul(f, g) == poly_mul(g, f)
    z = zero(GF4)
    for f in polys:
        assert poly_mul(f, z).is_zero


def test_divmod_property():
    # _reduce leaves the r of f = q*g + r with deg r < deg g
    polys = [p for p in all_polys(GF4, 2) if not p.is_zero]
    quotients = all_polys(GF4, 2)
    for f, g in itertools.product(polys[:15], polys[:15]):
        coeffs = list(f.coeffs)
        _reduce(GF4, coeffs, g.coeffs)
        r = Poly(GF4, tuple(coeffs))
        assert r.degree < g.degree
        assert any(xor(poly_mul(q, g), r) == f for q in quotients)


def test_gcd_is_monic_common_divisor():
    # X^2 + X + 1 splits over GF(4), so pick a quadratic that does not
    f = poly_mul(poly(GF4, (2, 1)), poly(GF4, (1, 2, 1)))
    g = poly_mul(poly(GF4, (2, 1)), poly(GF4, (3, 1)))
    d = poly_gcd(f, g)
    assert d == poly(GF4, (2, 1))
    assert poly_gcd(f, d) == d
    assert poly_gcd(g, d) == d


def test_gcd_edge_cases():
    f = poly(GF4, (2, 2))
    assert poly_gcd(f, zero(GF4)) == poly(GF4, (1, 1))
    assert poly_gcd(zero(GF4), poly(GF4, (3, 2, 3))) == poly(GF4, (1, 3, 1))
    with pytest.raises(ConstructionRejected, match=r"gcd\(0, 0\) is undefined"):
        poly_gcd(zero(GF4), zero(GF4))


def test_monic_edge_cases():
    # 2X + 2 = 2(X + 1) over GF(4); a monic polynomial is its own form
    assert monic(poly(GF4, (2, 2))) == poly(GF4, (1, 1))
    f = poly(GF4, (3, 2, 1))
    assert monic(f) is f
    with pytest.raises(ConstructionRejected, match="the zero polynomial has no monic form"):
        monic(zero(GF4))


def is_irreducible(f: Poly) -> bool:
    """Trial division against all monic polynomials of degree <= deg f / 2,
    the oracle for enumerate_irreducibles' sieve. Each trial divides a copy
    of f's coefficient list in place through _reduce; the loop count is
    q^(deg/2)."""
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


def test_irreducibility_gf2():
    assert is_irreducible(poly(GF2, (1, 1, 1)))
    assert is_irreducible(poly(GF2, (1, 1, 0, 1)))
    assert not is_irreducible(poly(GF2, (1, 0, 1)))  # (X + 1)^2
    assert not is_irreducible(poly(GF2, (1, 0, 0, 1)))  # (X + 1)(X^2 + X + 1)
    with pytest.raises(SpreadbentError, match="irreducibility needs degree >= 1"):
        is_irreducible(one(GF2))


def test_enumerate_irreducibles_known_lists():
    assert [p.coeffs for p in enumerate_irreducibles(GF2, 2)] == [(1, 1, 1)]
    assert sorted(p.coeffs for p in enumerate_irreducibles(GF2, 3)) == [
        (1, 0, 1, 1),
        (1, 1, 0, 1),
    ]
    quads = enumerate_irreducibles(GF4, 2)
    assert len(quads) == 6
    assert all(p.coeffs[0] != 0 and p.coeffs[-1] == 1 for p in quads)


def test_enumerate_irreducibles_linear_options():
    assert len(enumerate_irreducibles(GF4, 1)) == 3


def test_gauss_count_values():
    assert gauss_count(GF4, 2) == 6
    assert gauss_count(GF2, 3) == 2
    assert gauss_count(field(4), 1) == 15


def test_gauss_count_matches_enumeration():
    # the sieve against trial division and the divisor-sum count, over
    # degrees whose q^k candidates trial division gets through quickly
    for l, top in ((1, 6), (2, 4), (3, 3), (4, 2)):
        spec = field(l)
        for k in range(1, top + 1):
            sieved = enumerate_irreducibles(spec, k)
            candidates = (poly(spec, c + (1,)) for c in itertools.product(range(spec.q), repeat=k))
            assert sieved == [f for f in candidates if f.coeffs[0] and is_irreducible(f)]
            assert len(sieved) == gauss_count(spec, k)


def test_feasible_degrees():
    # the degree theorem that verify checks: a half-size coprime family of
    # degree-b polynomials exists only at b = 1 and b = 2
    from spreadbent.cli import _largest_coprime_family

    for spec in (GF2, GF4, field(3)):
        assert 2 * _largest_coprime_family(spec, 1) >= spec.q
        assert 2 * _largest_coprime_family(spec, 2) >= spec.q**2
        assert not 2 * _largest_coprime_family(spec, 3) >= spec.q**3


def test_closed_form_family_count_values():
    assert closed_form_family_count(field(4), 1) == math.comb(15, 8) == 6435
    assert closed_form_family_count(GF2, 2) == 1
    assert closed_form_family_count(GF4, 2) == 12


def test_closed_form_family_count_errors():
    with pytest.raises(SpreadbentError, match="closed form exists only for b in"):
        closed_form_family_count(GF2, 3)


def test_format_parse_round_trip():
    for p in all_polys(GF4, 2):
        if p.is_zero:
            continue
        assert parse_poly(GF4, format_poly(p)) == p
    assert format_poly(poly(GF4, (1, 0, 3))) == "[1,0,3]"
    with pytest.raises(ValueError):
        parse_poly(GF2, "[1,2]")
