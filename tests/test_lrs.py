import itertools
import random
import re

import pytest

from gf2_reference import gf2_basis
from spreadbent.errors import ConstructionRejected, SpreadbentError
from spreadbent.families import candidate_pool, desarguesian_spread
from spreadbent.gf2e import FieldSpec, _bitpoly_mulmod, field
from spreadbent.lrs import (
    build_matrix,
    build_partial_spread,
    kernel,
    sylvester_resultant_nonzero,
    window,
)
from spreadbent.poly import one, poly, poly_gcd, x_power

GF2 = field(1)
GF4 = field(2)


def test_window_pads_to_length():
    f = poly(GF4, (3, 1))
    assert window(f, 1) == (3, 1)
    assert window(f, 3) == (3, 1, 0, 0)


def test_matrix_is_banded():
    # over GF(2) each band row is one int row, coordinate i at bit i:
    # (1, 1, 1, 0) and (0, 1, 1, 1)
    f = poly(GF2, (1, 1, 1))
    assert build_matrix(f, 2) == (0b0111, 0b1110)


def test_matrix_rejects_zero_and_oversize():
    with pytest.raises(ConstructionRejected, match="zero polynomial defines no recurrence"):
        build_matrix(poly(GF2, ()), 2)
    with pytest.raises(SpreadbentError, match="degree 2 exceeds window size b=1"):
        build_matrix(poly(GF2, (1, 1, 1)), 1)


def test_kernel_of_x_squared_is_low_coordinates():
    # ground truth that pins the whole bit convention
    ker = kernel(build_matrix(x_power(GF2, 2), 2))
    assert ker.vectors == (0, 1, 2, 3)


def test_known_quadratic_kernels():
    assert kernel(build_matrix(poly(GF2, (1, 0, 1)), 2)).vectors == (0, 5, 10, 15)
    assert kernel(build_matrix(poly(GF2, (1, 1, 1)), 2)).vectors == (0, 6, 11, 13)


def test_kernel_sizes_and_closure():
    for spec, b in [(GF2, 2), (GF2, 3), (GF4, 1), (GF4, 2)]:
        f = poly(spec, (1,) * (b + 1)) if spec is GF2 else poly(spec, (1, 2, 1)[: b + 1])
        ker = kernel(build_matrix(f, b))
        vectors = set(ker.vectors)
        assert len(vectors) == spec.q**b
        assert 0 in vectors
        for x, y in itertools.product(list(vectors)[:8], repeat=2):
            assert x ^ y in vectors  # additive closure of the flattened kernel
        assert ker.n // 2 == spec.l * b == len(gf2_basis(ker.vectors))


@pytest.mark.parametrize("l,b", [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (3, 1), (4, 1)])
def test_kernel_matches_brute_force(l, b):
    # every nonzero polynomial of degree <= b with l*b <= 4, deficient
    # windows included: scan every vector of F_q^(2b), in flattened order,
    # against the F_q band rows, built here from the window: row i is the
    # window at offset i
    spec = field(l)
    for coeffs in itertools.product(range(spec.q), repeat=b + 1):
        if not any(coeffs):
            continue
        f = poly(spec, coeffs)
        w = window(f, b)
        rows = [(0,) * i + w + (0,) * (b - 1 - i) for i in range(b)]
        solutions = tuple(
            x
            for x in range(1 << (2 * l * b))
            if all(
                _dot(spec, row, _unflatten(x, spec, 2 * b)) == 0 for row in rows
            )
        )
        ker = kernel(build_matrix(f, b))
        assert ker.vectors == solutions
        assert ker.n // 2 == l * b == len(gf2_basis(ker.vectors))


def _unflatten(x, spec, length):
    # coordinate i of the flattened vector x sits in bits i*l .. i*l + l - 1
    return tuple((x >> (i * spec.l)) & (spec.q - 1) for i in range(length))


def _dot(spec, row, vec):
    acc = 0
    for a, v in zip(row, vec):
        acc ^= _bitpoly_mulmod(a, v, spec.modulus, spec.l)
    return acc


def test_gf2_basis_spans():
    vectors = (0, 5, 10, 15)
    basis = gf2_basis(vectors)
    assert len(basis) == 2
    spanned = {0}
    for v in basis:
        spanned |= {s ^ v for s in spanned}
    assert spanned == set(vectors)


def test_sylvester_matches_gcd():
    polys = [poly(GF4, c) for c in itertools.product(range(4), repeat=3) if any(c)]
    unit = one(GF4)
    for f, g in itertools.combinations(polys[:25], 2):
        if f.degree == 0 and g.degree == 0:
            continue
        b = int(max(f.degree, g.degree))
        assert sylvester_resultant_nonzero(f, g, b) == (poly_gcd(f, g) == unit)


@pytest.mark.parametrize("f, g", [
    (poly(GF2, (1, 1)), poly(GF4, (1, 1))),
    (poly(GF2, (0, 1)), poly(field(3), (1, 1))),
], ids=["gf2-gf4", "gf2-gf8"])
def test_sylvester_refuses_two_fields_as_gcd_does(f, g):
    # each band would be built in its own field, rows of different widths
    for a, c in ((f, g), (g, f)):
        message = f"^{re.escape(f'{a.spec} vs {c.spec}')}$"
        with pytest.raises(SpreadbentError, match=message):
            poly_gcd(a, c)
        with pytest.raises(SpreadbentError, match=message):
            sylvester_resultant_nonzero(a, c, 1)


def _reference_rows(f, b):
    """The band's b*l GF(2) rows, built here from the shift-and-reduce
    product with no memo: row (i, j') has bit i'*l + j set when bit j' of
    c*alpha^j is, c being band row i's entry in column i'."""
    spec, l = f.spec, f.spec.l
    return [
        sum(
            1 << ((i + k) * l + j)
            for k, c in enumerate(window(f, b))
            for j in range(l)
            if _bitpoly_mulmod(c, 1 << j, spec.modulus, l) >> jp & 1
        )
        for i in range(b)
        for jp in range(l)
    ]


@pytest.mark.parametrize("l,b", [(l, b) for l in range(1, 9) for b in range(1, 8 // l + 1)])
def test_band_rows_match_the_reference_at_every_field(l, b):
    # 24 seeded nonzero polynomials of each degree e <= b, so windows with
    # e < b are drawn as often as full ones. field(8) (modulus 0x11B) is
    # the one field whose log tables use the generator 3 instead of alpha,
    # and the reference multiplies by shift and reduce, with no table
    spec, rng = field(l), random.Random(100 * l + b)
    for e in range(b + 1):
        for _ in range(24):
            coeffs = [rng.randrange(spec.q) for _ in range(e)] + [rng.randrange(1, spec.q)]
            f = poly(spec, coeffs)
            assert build_matrix(f, b) == tuple(_reference_rows(f, b))


def test_band_rows_and_sylvester_tell_two_moduli_of_one_degree_apart():
    # GF(8) by X^3 + X^2 + 1 and by the canonical X^3 + X + 1: the same
    # coefficient ints name different elements, so each memo must key on
    # the modulus, not on l or the coefficients alone. The two fields'
    # calls interleave, so a memo keyed on less serves one field's rows
    # to the other.
    specs = (FieldSpec(3, 0b1101), field(3))
    assert specs[1].modulus == 0b1011
    rows = [build_matrix(poly(spec, (3, 1)), 1) for spec in specs]
    assert rows[0] != rows[1]
    assert rows == [tuple(_reference_rows(poly(spec, (3, 1)), 1)) for spec in specs]
    verdicts = {spec: [] for spec in specs}
    for c in range(1, 8):
        for c0, c1 in itertools.product(range(1, 8), range(8)):
            for spec in specs:
                f, g = poly(spec, (c, 1)), poly(spec, (c0, c1, 1))
                full = len(gf2_basis(_reference_rows(f, 2) + _reference_rows(g, 2))) == 12
                assert sylvester_resultant_nonzero(f, g, 2) == full
                assert sylvester_resultant_nonzero(g, f, 2) == full
                verdicts[spec].append(full)
    # X + c divides the quadratic over one modulus and not the other
    assert verdicts[specs[0]] != verdicts[specs[1]]


@pytest.mark.parametrize("l,top", [(1, 3), (2, 2)])
def test_sylvester_matches_elimination(l, top):
    # every ordered pair of polynomials of degree <= top, zero included, at
    # every window from the larger degree (at least 1) up to top, against
    # the rank of the stacked reference rows by plain elimination: a zero
    # polynomial has no nonzero row, so its stack is never full rank
    spec = field(l)
    polys = [poly(spec, c) for c in itertools.product(range(spec.q), repeat=top + 1)]
    calls = 0
    for f, g in itertools.product(polys, repeat=2):
        if f.is_zero and g.is_zero:
            with pytest.raises(ConstructionRejected, match="resultant of two zero polynomials"):
                sylvester_resultant_nonzero(f, g, top)
            continue
        for b in range(max(len(f.coeffs), len(g.coeffs), 2) - 1, top + 1):
            full = len(gf2_basis(_reference_rows(f, b) + _reference_rows(g, b))) == 2 * b * l
            assert sylvester_resultant_nonzero(f, g, b) == full
            calls += 1
    assert calls == {1: 333, 2: 4350}[l]


# Every pool with l*b <= 4, as (l, b, e_inf): at b=1, e_inf adds the
# kernel of the constant 1, E_inf, the one member of the Desarguesian
# spread that the window-1 pool leaves out.
MASK_POOLS = [(l, 1, e) for l in (1, 2, 3, 4) for e in (False, True)] + [
    (1, 2, False), (2, 2, False), (1, 3, False),
]


def _members(mask, n):
    return {v for v in range(1 << n) if mask >> v & 1}


@pytest.mark.parametrize("l,b,e_inf", MASK_POOLS)
def test_kernel_masks_and_intersections_match_sets(l, b, e_inf):
    kernels = candidate_pool(field(l), b).kernels
    if e_inf:
        kernels += (kernel(build_matrix(one(field(l)), 1)),)
    for k in kernels:
        assert _members(k.mask, k.n) == set(k.vectors)
    for x, y in itertools.combinations_with_replacement(kernels, 2):
        assert (x.mask & y.mask == 1) == (set(x.vectors) & set(y.vectors) == {0})


@pytest.mark.parametrize("m", [2, 3, 4])
def test_desarguesian_masks_match_sets(m):
    spread = desarguesian_spread(m)
    for s in spread:
        assert _members(s.mask, s.n) == set(s.vectors)
    for x, y in itertools.combinations_with_replacement(spread, 2):
        assert (x.mask & y.mask == 1) == (x is not y)


@pytest.mark.parametrize("l,top", [(1, 3), (2, 2), (3, 1)])
def test_shared_factor_always_overlaps_kernels(l, top):
    # Every pair of nonzero polynomials of degree <= top with gcd != 1, at
    # every window b from their larger degree up to top, two deficient
    # windows included: the kernels share a nonzero vector. So from_spread's
    # union count rejects every non-coprime family without a gcd test.
    spec = field(l)
    polys = [poly(spec, c) for c in itertools.product(range(spec.q), repeat=top + 1) if any(c)]
    unit, pairs = one(spec), 0
    for f, g in itertools.combinations_with_replacement(polys, 2):
        if poly_gcd(f, g) == unit:
            continue
        for b in range(int(max(f.degree, g.degree)), top + 1):
            assert kernel(build_matrix(f, b)).mask & kernel(build_matrix(g, b)).mask != 1
            pairs += 1
    assert pairs == {1: 70, 2: 504, 3: 224}[l]


def test_build_partial_spread_known_family():
    fam = [poly(GF2, (1, 0, 1)), poly(GF2, (1, 1, 1)), x_power(GF2, 2), one(GF2)]
    spread = build_partial_spread(fam, b=2)
    assert spread == [kernel(build_matrix(f, 2)) for f in fam]
    union = set().union(*(s.vectors for s in spread))
    assert len(union) == 4 * 3 + 1  # pairwise trivial overlap: only 0 shared
