"""Property tests for the polynomial layer over GF(2^l), l <= 4, for the
GF(2) Sylvester and kernel tests of the LRS layer (l <= 5), and for the
family catalog built on it.

The references here work at the Poly level through poly_mul and a local
coefficient XOR, so they share no code with the list-based reduction
_reduce inside poly_gcd; poly_mul itself is checked against a schoolbook
product through fe_mul, and monic, poly_gcd, band row spaces and kernels
against scalar multiples made through fe_mul. The catalog reference scans
every index tuple, so it shares no code with the clique walk. The EA test
checks the development rank's EA-invariance on catalog functions, the
property the classification rests on. The from_spread tests check its mask union against the set union of
the kernels, and map catalog spreads through invertible matrices, basis
vector by basis vector, to check Subspace's span, mask and equality
against brute force, and that the images, like Desarguesian spreads that
hold E_inf, build bent functions.
"""

import functools
import itertools

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gf2_reference import gf2_basis
from spreadbent.boolfun import TruthTable, from_spread, is_bent
from spreadbent.families import (
    TAG_IRREDUCIBLE,
    TAG_PRODUCT,
    CandidatePool,
    candidate_pool,
    coprime_subsets,
    desarguesian_spread,
    enumerate_families,
)
from spreadbent.gf2e import FieldSpec, fe_inv, fe_mul, field
from spreadbent.lrs import (
    Subspace,
    build_matrix,
    kernel,
    sylvester_resultant_nonzero,
)
from spreadbent.poly import (
    Poly,
    _reduce,
    monic,
    one,
    poly,
    poly_gcd,
    poly_mul,
)
from spreadbent.rank2 import development_rank

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


def xor(f: Poly, g: Poly) -> Poly:
    """f + g over GF(2^l): coefficient-wise XOR."""
    return poly(f.spec, [a ^ b for a, b in itertools.zip_longest(f.coeffs, g.coeffs, fillvalue=0)])


def reference_remainder(f: Poly, g: Poly) -> Poly:
    """f modulo the nonzero g, by repeated subtraction of monomial multiples
    of g: f = q*g + r with deg r < deg g by construction."""
    spec = f.spec
    r = f
    while not r.is_zero and r.degree >= g.degree:
        c = fe_mul(spec, r.coeffs[-1], fe_inv(spec, g.coeffs[-1]))
        shift = int(r.degree - g.degree)
        reduced = xor(r, poly_mul(Poly(spec, (0,) * shift + (c,)), g))
        assert reduced.degree < r.degree, "leading term did not cancel"
        r = reduced
    return r


def reference_gcd(f: Poly, g: Poly) -> Poly:
    """Euclid on reference_remainder, scaled monic by the field inverse."""
    while not g.is_zero:
        f, g = g, reference_remainder(f, g)
    inv = fe_inv(f.spec, f.coeffs[-1])
    return Poly(f.spec, tuple(fe_mul(f.spec, inv, c) for c in f.coeffs))


def schoolbook_product(f: Poly, g: Poly) -> Poly:
    """f * g with every coefficient product through fe_mul."""
    out = [0] * max(len(f.coeffs) + len(g.coeffs) - 1, 0)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] ^= fe_mul(f.spec, a, b)
    return poly(f.spec, out)


# GF(2^l) for l = 1..5, and GF(8) under its second modulus X^3 + X^2 + 1
MUL_SPECS = st.sampled_from([field(l) for l in range(1, 6)] + [FieldSpec(3, 0b1101)])


@settings(deadline=None)
@given(MUL_SPECS.flatmap(lambda spec: st.tuples(polys(spec, 6), polys(spec, 6))))
def test_poly_mul_matches_schoolbook(pair):
    # poly_mul reads the log tables itself; the reference goes through fe_mul
    f, g = pair
    assert poly_mul(f, g) == schoolbook_product(f, g)


@settings(deadline=None)
@given(poly_pairs())
def test_divmod_identity(pair):
    # _reduce leaves the remainder of f = q*g + r, deg r < deg g
    f, g = pair
    assume(not g.is_zero)
    coeffs = list(f.coeffs)
    _reduce(f.spec, coeffs, g.coeffs)
    assert Poly(f.spec, tuple(coeffs)) == reference_remainder(f, g)


@settings(deadline=None)
@given(poly_pairs())
def test_gcd_is_monic_common_divisor(pair):
    f, g = pair
    assume(not (f.is_zero and g.is_zero))
    d = poly_gcd(f, g)
    assert d.coeffs[-1] == 1
    assert reference_remainder(f, d).is_zero
    assert reference_remainder(g, d).is_zero
    assert d == reference_gcd(f, g)


def scaled(c: int, f: Poly) -> Poly:
    """c * f, one fe_mul per coefficient."""
    return poly(f.spec, [fe_mul(f.spec, c, a) for a in f.coeffs])


@st.composite
def scaled_pairs(draw):
    """A nonzero f and a g, zero at times, sharing a factor of degree <= 2,
    so that gcds other than 1 turn up, with two nonzero scalars c and d."""
    spec = draw(SPECS)
    shared = draw(polys(spec, 2, nonzero=True))
    f = poly_mul(draw(polys(spec, 4, nonzero=True)), shared)
    g = poly_mul(draw(polys(spec, 4)), shared)
    c, d = (draw(st.integers(1, spec.q - 1)) for _ in "cd")
    return f, g, c, d


@settings(deadline=None)
@given(scaled_pairs())
def test_gcd_and_monic_ignore_nonzero_scalars(case):
    # the identity behind verify's coprimality triangle, which runs Euclid
    # once per pair of monic forms: gcd(c*f, d*g) = gcd(f, g)
    f, g, c, d = case
    assert poly_gcd(scaled(c, f), scaled(d, g)) == poly_gcd(f, g)
    F = monic(f)
    assert monic(scaled(c, f)) == F
    assert F.coeffs[-1] == 1
    assert scaled(f.coeffs[-1], F) == f


@st.composite
def scaled_windows(draw):
    """A nonzero f over GF(2^l) of degree <= 8 // l, so that l*b <= 8 at
    every window b from max(deg f, 1) up to 8 // l, and a nonzero scalar c."""
    spec = draw(SPECS)
    f = draw(polys(spec, 8 // spec.l, nonzero=True))
    return f, draw(st.integers(1, spec.q - 1))


@settings(deadline=None)
@given(scaled_windows())
def test_band_span_and_kernel_ignore_nonzero_scalars(case):
    # the fact behind verify's coprimality triangle, which solves one kernel
    # per monic form and window and checks each multiple by span equality
    f, c = case
    for b in range(max(int(f.degree), 1), 8 // f.spec.l + 1):
        rows, scaled_rows = build_matrix(f, b), build_matrix(scaled(c, f), b)
        assert Subspace(scaled_rows) == Subspace(rows)
        assert kernel(scaled_rows) == kernel(rows)


@settings(deadline=None)
@given(window_pairs())
def test_coprimality_triangle(pair):
    f, g = pair
    b = int(max(f.degree, g.degree))
    coprime = poly_gcd(f, g) == one(f.spec)
    invertible = sylvester_resultant_nonzero(f, g, b)
    disjoint = kernel(build_matrix(f, b)).mask & kernel(build_matrix(g, b)).mask == 1
    assert coprime == invertible == disjoint


@st.composite
def windowed_pairs(draw):
    """Nonzero f, g over GF(2^l), l = 1..5, half of them sharing a factor of
    degree 0 or 1, with a window size b from max(deg) to max(deg) + 1. The
    degrees keep l*b <= 10, so a kernel has at most 2^10 vectors."""
    spec = field(draw(st.integers(1, 5)))
    top = max(10 // spec.l - 1, 1)
    share = draw(polys(spec, 1, nonzero=True)) if draw(st.booleans()) else one(spec)
    rest = top - int(share.degree)
    f = poly_mul(draw(polys(spec, rest, nonzero=True)), share)
    g = poly_mul(draw(polys(spec, rest, nonzero=True)), share)
    b = max(int(max(f.degree, g.degree)), 1) + draw(st.integers(0, 1))
    return f, g, b


@settings(deadline=None)
@given(windowed_pairs())
def test_gf2_sylvester_and_kernels_agree_with_gcd(case):
    """With at most one degree-deficient window, the GF(2) Sylvester
    verdict, gcd = 1 and trivial kernel intersection agree. Two deficient
    windows both hold the vector with only the last coordinate set, so
    neither the stack nor the kernels pass, whatever the gcd."""
    f, g, b = case
    invertible = sylvester_resultant_nonzero(f, g, b)
    disjoint = kernel(build_matrix(f, b)).mask & kernel(build_matrix(g, b)).mask == 1
    assert invertible == disjoint
    if (f.degree < b) + (g.degree < b) <= 1:
        assert invertible == (poly_gcd(f, g) == one(f.spec))
    else:
        assert not invertible


# ------------------------------------------------------------ catalog

CATALOG_POOLS = [
    candidate_pool(field(2), 2),
    candidate_pool(field(3), 1),
    candidate_pool(field(4), 1),
]


@st.composite
def sub_pools(draw):
    """An order-preserving sub-pool of one of CATALOG_POOLS. At most five
    members are dropped, so that most sub-pools still hold families."""
    pool = draw(st.sampled_from(CATALOG_POOLS))
    dropped = draw(st.sets(st.integers(0, len(pool.members) - 1), max_size=5))
    chosen = [i for i in range(len(pool.members)) if i not in dropped]
    return CandidatePool(
        spec=pool.spec,
        b=pool.b,
        members=tuple(pool.members[i] for i in chosen),
        tags=tuple(pool.tags[i] for i in chosen),
    )


def oracle_subsets(members, t):
    """Every size-t index tuple, kept when its members are pairwise coprime."""
    coprime = {
        (i, j): poly_gcd(members[i], members[j]) == one(members[i].spec)
        for i, j in itertools.combinations(range(len(members)), 2)
    }
    return [
        combo
        for combo in itertools.combinations(range(len(members)), t)
        if all(coprime[pair] for pair in itertools.combinations(combo, 2))
    ]


def oracle_catalog(pool, t):
    """oracle_subsets, then: a product member needs every irreducible."""
    irreducibles = {i for i, tag in enumerate(pool.tags) if tag == TAG_IRREDUCIBLE}
    return [
        tuple(pool.members[i] for i in combo)
        for combo in oracle_subsets(pool.members, t)
        if not any(pool.tags[i] == TAG_PRODUCT for i in combo) or irreducibles <= set(combo)
    ]


@settings(deadline=None, max_examples=60)
@given(sub_pools(), st.booleans(), st.data())
def test_catalog_matches_brute_force(pool, plus, data):
    t = (1 << (pool.spec.l * pool.b - 1)) + plus
    cat = enumerate_families(pool, t)
    want = oracle_catalog(pool, t)
    listed = [cat.family(*item) for item in cat.walk()]
    assert [fs.polys for fs in listed] == want
    assert [fs.family_id for fs in listed] == list(range(len(want)))
    assert cat.size == len(want)
    if want:
        for k in data.draw(st.lists(st.integers(0, len(want) - 1), max_size=5)):
            assert cat[k] == listed[k]
    for start in data.draw(st.lists(st.integers(0, len(want)), max_size=5)):
        assert [cat.family(*item) for item in cat.walk(start)] == listed[start:]


@settings(deadline=None, max_examples=60)
@given(sub_pools(), st.integers(0, 10))
def test_coprime_subsets_match_brute_force(pool, t):
    assert list(coprime_subsets(list(pool.members), t)) == oracle_subsets(pool.members, t)


# ------------------------------------------------------------ EA-invariance

# The window-2 catalogs at n=8 and the window-3 catalogs at n=6, as (l, b, t).
EA_CATALOGS = [(2, 2, 8), (2, 2, 9), (1, 3, 4), (1, 3, 5)]


@functools.cache
def catalog_of(l, b, t):
    return enumerate_families(candidate_pool(field(l), b), t)


@st.composite
def catalog_functions(draw):
    catalog = catalog_of(*draw(st.sampled_from(EA_CATALOGS)))
    fid = draw(st.integers(0, catalog.size - 1))
    return catalog.build([next(catalog.walk(fid))])[0]


def invertible_matrices(n):
    """n x n matrices over GF(2), one int per row, bit j = column j."""
    rows = st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)
    return rows.filter(lambda a: len(gf2_basis(a)) == n)


def parity(x):
    return x.bit_count() & 1


@settings(deadline=None, max_examples=40)
@given(catalog_functions(), st.data())
def test_development_rank_is_ea_invariant(f, data):
    """rank of f(Ax + b) + <c, x> + d equals rank of f."""
    n = f.n
    a = data.draw(invertible_matrices(n))
    b, c = data.draw(st.integers(0, (1 << n) - 1)), data.draw(st.integers(0, (1 << n) - 1))
    d = data.draw(st.integers(0, 1))

    def image(x):
        return sum(parity(row & x) << i for i, row in enumerate(a))

    g = TruthTable.from_support(
        n, [x for x in range(1 << n) if (f.bits >> (image(x) ^ b) & 1) ^ parity(c & x) ^ d]
    )
    assert is_bent(g)
    assert development_rank(g) == development_rank(f)


# ------------------------------------------------------------ from_spread

# Every catalog with l*b <= 4, as (l, b).
MASK_CATALOGS = [(1, 1), (2, 1), (3, 1), (4, 1), (1, 2), (2, 2), (1, 3)]


@settings(deadline=None, max_examples=80)
@given(st.sampled_from(MASK_CATALOGS), st.booleans(), st.data())
def test_from_spread_is_the_support_of_the_union(shape, plus, data):
    """The table is the union of the kernels, without 0 for PS- and with
    it for PS+."""
    l, b = shape
    catalog = catalog_of(l, b, (1 << (l * b - 1)) + plus)
    assume(catalog.size)
    fid = data.draw(st.integers(0, catalog.size - 1))
    spread = [catalog.pool.kernels[i] for i in next(catalog.walk(fid))[1]]
    union = set().union(*(s.vectors for s in spread))
    if not plus:
        union.discard(0)
    assert from_spread(spread, plus) == TruthTable.from_support(2 * l * b, union)


@settings(deadline=None)
@given(st.sampled_from(MASK_CATALOGS), st.booleans(), st.data())
def test_subspace_images_under_invertible_maps(shape, plus, data):
    """A catalog spread mapped by an invertible A, one basis vector at a
    time, is a spread of the same type whose function g has g(Ax) = f(x)."""
    l, b = shape
    catalog = catalog_of(l, b, (1 << (l * b - 1)) + plus)
    assume(catalog.size)
    n = 2 * l * b
    rows = data.draw(invertible_matrices(n))

    def image(x):
        return sum(parity(row & x) << i for i, row in enumerate(rows))

    item = next(catalog.walk(data.draw(st.integers(0, catalog.size - 1))))
    spread = [catalog.pool.kernels[i] for i in item[1]]
    images = [Subspace(tuple(image(v) for v in s.basis)) for s in spread]
    for s in images:
        assert s.n == n
        span = {
            functools.reduce(int.__xor__, combo, 0)
            for r in range(len(s.basis) + 1)
            for combo in itertools.combinations(s.basis, r)
        }
        assert s.vectors == tuple(sorted(span))
        assert s.mask == sum(1 << v for v in span)
        # the same span from another basis (at m = 1 there is no other)
        basis = s.basis[:-1] + (s.basis[-1] ^ s.basis[0],) if len(s.basis) > 1 else s.basis
        other = Subspace(basis)
        assert other == s and hash(other) == hash(s)
    (f,) = catalog.build([item])
    g = from_spread(images, plus)
    assert is_bent(g)
    assert all(g.bits >> image(x) & 1 == f.bits >> x & 1 for x in range(1 << n))


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 4), st.booleans(), st.data())
def test_desarguesian_spreads_with_e_infinity_are_bent(m, plus, data):
    """Dillon's theorem on spreads no catalog holds: E_inf with t - 1 of
    the graphs E_a, t = 2^(m-1) for PS- and one more for PS+."""
    *graphs, e_infinity = desarguesian_spread(m)
    t = (1 << (m - 1)) + plus
    chosen = data.draw(st.lists(st.sampled_from(graphs), min_size=t - 1, max_size=t - 1,
                                unique_by=lambda s: s.vectors))
    assert is_bent(from_spread(chosen + [e_infinity], plus))
