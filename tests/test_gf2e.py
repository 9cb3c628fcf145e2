import itertools

import pytest

from spreadbent import gf2e
from spreadbent.errors import SpreadbentError
from spreadbent.gf2e import (
    MAX_DEGREE,
    FieldSpec,
    _bitpoly_mulmod,
    describe,
    fe_inv,
    fe_mul,
    field,
)


def test_canonical_moduli_are_used():
    # the least irreducible of each degree, found by the search alone
    assert {l: field(l).modulus for l in (1, 2, 3, 4)} == {1: 0x3, 2: 0x7, 3: 0xB, 4: 0x13}


def test_field_sizes():
    for l in range(1, 9):
        spec = field(l)
        assert spec.l == l
        assert spec.q == 2**l
        assert spec.modulus >> l == 1  # monic of degree exactly l


def test_modulus_has_no_roots_in_prime_field():
    # a root in GF(2) would make the modulus reducible
    for l in range(2, 9):
        mod = field(l).modulus
        assert mod & 1, f"X divides the modulus for l={l}"
        assert bin(mod).count("1") % 2 == 1, f"X+1 divides the modulus for l={l}"


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_multiplication_group_axioms(l):
    spec = field(l)
    q = spec.q
    for x in range(q):
        assert fe_mul(spec, x, 1) == x
        assert fe_mul(spec, x, 0) == 0
    for x, y in itertools.product(range(q), repeat=2):
        assert fe_mul(spec, x, y) == fe_mul(spec, y, x)
    for x, y, z in itertools.product(range(q), repeat=3):
        assert fe_mul(spec, fe_mul(spec, x, y), z) == fe_mul(spec, x, fe_mul(spec, y, z))
        assert fe_mul(spec, x, y ^ z) == fe_mul(spec, x, y) ^ fe_mul(spec, x, z)


@pytest.mark.parametrize("l", [1, 2, 3, 4, 5])
def test_inverses(l):
    spec = field(l)
    for x in range(1, spec.q):
        assert fe_mul(spec, x, fe_inv(spec, x)) == 1
    with pytest.raises(SpreadbentError, match="0 has no multiplicative inverse"):
        fe_inv(spec, 0)


def test_nonzero_elements_form_cyclic_group():
    # some element must have full multiplicative order q - 1
    for l in (2, 3, 4):
        spec = field(l)
        orders = []
        for x in range(2, spec.q):
            y, order = x, 1
            while y != 1:
                y = fe_mul(spec, y, x)
                order += 1
            orders.append(order)
        assert max(orders) == spec.q - 1


def test_gf4_known_products():
    # alpha * alpha = alpha + 1 and alpha^3 = 1 under X^2 + X + 1
    spec = field(2)
    assert fe_mul(spec, 2, 2) == 3
    assert fe_mul(spec, 2, 3) == 1


def test_describe_format():
    assert describe(field(2)) == "GF(2^2)/modulus=0x7"
    assert describe(field(4)) == "GF(2^4)/modulus=0x13"


@pytest.mark.parametrize("l", range(1, 9))
def test_tables_match_shift_and_reduce(l):
    spec = field(l)
    for x, y in itertools.product(range(spec.q), repeat=2):
        assert fe_mul(spec, x, y) == _bitpoly_mulmod(x, y, spec.modulus, l)
    for x in range(1, spec.q):
        assert _bitpoly_mulmod(x, fe_inv(spec, x), spec.modulus, l) == 1


def test_tables_stay_out_of_equality_and_repr():
    spec = field(8)
    assert field(8) is spec
    fresh = FieldSpec(8, spec.modulus)
    assert fresh == spec and hash(fresh) == hash(spec)
    assert repr(spec) == "FieldSpec(l=8, modulus=283)"
    assert spec.exp[1] == 3  # alpha has order 51 under 0x11B, so g = 3


@pytest.mark.parametrize("build", [lambda: field(40), lambda: FieldSpec(17, 0x2000B)],
                         ids=["field-40", "FieldSpec-17"])
def test_degree_above_the_maximum_is_refused_before_any_work(monkeypatch, build):
    # field(40) once searched for an irreducible and then built 2^41-entry
    # tables: neither the search nor the tables may start
    def forbidden(*args):
        raise AssertionError("a refused degree must not reach the search or the tables")

    monkeypatch.setattr(gf2e, "_bitpoly_irreducible", forbidden)
    monkeypatch.setattr(gf2e, "_exp_log_tables", forbidden)
    with pytest.raises(SpreadbentError, match=r"^extension degree l must be an int in \[1, 16\]"):
        build()


def test_largest_degree_builds():
    spec = field(MAX_DEGREE)
    assert fe_mul(spec, spec.exp[1], fe_inv(spec, spec.exp[1])) == 1


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        FieldSpec(2, 0b101)  # X^2 + 1 = (X + 1)^2
