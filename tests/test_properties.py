"""Property tests for the polynomial layer over GF(2^l), l <= 4.

The references here work at the Poly level through poly_mul and poly_add,
so they share no code with the list-based division inside poly_divmod and
poly_gcd.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spreadbent import (
    Poly,
    build_matrix,
    fe_inv,
    fe_mul,
    field,
    kernel,
    monic,
    one,
    poly,
    poly_add,
    poly_divmod,
    poly_gcd,
    poly_mul,
    sylvester_resultant_nonzero,
    trivial_intersection,
)

SPECS = st.sampled_from([field(l) for l in (1, 2, 3, 4)])


@st.composite
def polys(draw, spec, max_degree, nonzero=False):
    coeffs = draw(
        st.lists(st.integers(0, spec.q - 1), min_size=int(nonzero), max_size=max_degree + 1)
    )
    if nonzero:
        coeffs[-1] = draw(st.integers(1, spec.q - 1))
    return poly(spec, coeffs)


@st.composite
def poly_pairs(draw, max_degree=6):
    spec = draw(SPECS)
    return draw(polys(spec, max_degree)), draw(polys(spec, max_degree))


@st.composite
def window_pairs(draw):
    """Nonzero f, g of degree <= 3, not both constant, sharing a factor of
    degree 0 or 1 so that both sides of gcd = 1 turn up."""
    spec = draw(SPECS)
    shared = draw(polys(spec, 1, nonzero=True))
    f = poly_mul(draw(polys(spec, 2, nonzero=True)), shared)
    g = poly_mul(draw(polys(spec, 2, nonzero=True)), shared)
    assume(max(f.degree, g.degree) >= 1)
    return f, g


def reference_gcd(f: Poly, g: Poly) -> Poly:
    """Euclid by repeated subtraction of monomial multiples of g."""
    spec = f.spec
    while not g.is_zero:
        r = f
        while not r.is_zero and r.degree >= g.degree:
            c = fe_mul(spec, r.coeffs[-1], fe_inv(spec, g.coeffs[-1]))
            shift = int(r.degree - g.degree)
            reduced = poly_add(r, poly_mul(Poly(spec, (0,) * shift + (c,)), g))
            assert reduced.degree < r.degree, "leading term did not cancel"
            r = reduced
        f, g = g, r
    return monic(f)


@settings(deadline=None)
@given(poly_pairs())
def test_divmod_identity(pair):
    f, g = pair
    assume(not g.is_zero)
    q, r = poly_divmod(f, g)
    assert poly_add(poly_mul(q, g), r) == f
    assert r.degree < g.degree


@settings(deadline=None)
@given(poly_pairs())
def test_gcd_is_monic_common_divisor(pair):
    f, g = pair
    assume(not (f.is_zero and g.is_zero))
    d = poly_gcd(f, g)
    assert d.coeffs[-1] == 1
    assert poly_divmod(f, d)[1].is_zero
    assert poly_divmod(g, d)[1].is_zero
    assert d == reference_gcd(f, g)


@settings(deadline=None)
@given(window_pairs())
def test_coprimality_triangle(pair):
    f, g = pair
    b = int(max(f.degree, g.degree))
    coprime = poly_gcd(f, g) == one(f.spec)
    invertible = sylvester_resultant_nonzero(f, g, b)
    disjoint = trivial_intersection(kernel(build_matrix(f, b)), kernel(build_matrix(g, b)))
    assert coprime == invertible == disjoint
