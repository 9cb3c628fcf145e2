import itertools
import math

import pytest

from spreadbent.errors import ConstructionRejected, SpreadbentError
from spreadbent.gf2e import field
from spreadbent.poly import (
    Poly,
    closed_form_family_count,
    enumerate_irreducibles,
    feasible_degrees,
    format_poly,
    gauss_count,
    is_irreducible,
    max_family_size,
    monic,
    one,
    pairwise_coprime,
    parse_poly,
    poly,
    poly_add,
    poly_divmod,
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
        assert poly_add(f, g) == poly_add(g, f)
        assert poly_mul(f, g) == poly_mul(g, f)
        assert poly_add(f, f).is_zero
    z = zero(GF4)
    for f in polys:
        assert poly_mul(f, z).is_zero
        assert poly_add(f, z) == f


def test_divmod_property():
    polys = [p for p in all_polys(GF4, 2) if not p.is_zero]
    for f, g in itertools.product(polys[:15], polys[:15]):
        q, r = poly_divmod(f, g)
        assert poly_add(poly_mul(q, g), r) == f
        assert r.degree < g.degree
    with pytest.raises(SpreadbentError, match="division by the zero polynomial"):
        poly_divmod(polys[0], zero(GF4))


def test_gcd_is_monic_common_divisor():
    # X^2 + X + 1 splits over GF(4), so pick a quadratic that does not
    f = poly_mul(poly(GF4, (2, 1)), poly(GF4, (1, 2, 1)))
    g = poly_mul(poly(GF4, (2, 1)), poly(GF4, (3, 1)))
    d = poly_gcd(f, g)
    assert d == poly(GF4, (2, 1))
    assert poly_divmod(f, d)[1].is_zero
    assert poly_divmod(g, d)[1].is_zero


def test_gcd_edge_cases():
    f = poly(GF4, (2, 2))
    assert poly_gcd(f, zero(GF4)) == monic(f)
    with pytest.raises(ConstructionRejected, match=r"gcd\(0, 0\) is undefined"):
        poly_gcd(zero(GF4), zero(GF4))


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
    for spec in (GF2, GF4):
        for k in range(1, 5):
            assert gauss_count(spec, k) == len(enumerate_irreducibles(spec, k))


def test_max_family_size_values():
    assert max_family_size(GF2, 3) == 3
    assert max_family_size(GF4, 2) == 9


def test_feasible_degrees():
    for spec in (GF2, GF4, field(3)):
        assert feasible_degrees(1, spec)
        assert feasible_degrees(2, spec)
        assert not feasible_degrees(3, spec)


def test_closed_form_family_count_values():
    assert closed_form_family_count(field(4), 1, 4) == math.comb(15, 8) == 6435
    assert closed_form_family_count(GF2, 2, 2) == 1
    assert closed_form_family_count(GF4, 2, 4) == 12


def test_closed_form_family_count_errors():
    with pytest.raises(SpreadbentError, match="closed form exists only for b in"):
        closed_form_family_count(GF2, 3, 3)
    with pytest.raises(SpreadbentError, match=r"need l\*b = m"):
        closed_form_family_count(GF4, 2, 3)


def test_pairwise_coprime():
    fam = [poly(GF2, c) for c in [(1, 1), (1, 1, 1), (0, 1)]]
    assert pairwise_coprime(fam)
    assert not pairwise_coprime(fam + [poly(GF2, (1, 0, 0, 1))])  # shares X+1


def test_format_parse_round_trip():
    for p in all_polys(GF4, 2):
        if p.is_zero:
            continue
        assert parse_poly(GF4, format_poly(p)) == p
    assert format_poly(poly(GF4, (1, 0, 3))) == "[1,0,3]"
    with pytest.raises(ValueError):
        parse_poly(GF2, "[1,2]")
