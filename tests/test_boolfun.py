import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreadbent.boolfun import (
    Anf,
    TruthTable,
    algebraic_degree,
    anf,
    format_anf,
    from_spread,
    is_bent,
    mobius,
    nonlinearity,
    walsh_transform,
)
from spreadbent.errors import ConstructionRejected, SpreadbentError
from spreadbent.families import candidate_pool, enumerate_families
from spreadbent.gf2e import field
from spreadbent.lrs import Subspace, build_partial_spread
from spreadbent.poly import poly

GF2 = field(1)

MINUS_FAMILY = [poly(GF2, (1, 0, 1)), poly(GF2, (1, 1, 1))]
PLUS_FAMILY = MINUS_FAMILY + [poly(GF2, (0, 0, 1))]


def golden_pair():
    g = from_spread(build_partial_spread(MINUS_FAMILY, b=2), plus_type=False)
    h = from_spread(build_partial_spread(PLUS_FAMILY, b=2), plus_type=True)
    return g, h


def naive_walsh(tt):
    # W(a) = sum over x of (-1)^(f(x) + a.x), one a at a time
    x = np.arange(1 << tt.n)
    out = []
    for a in range(1 << tt.n):
        exponent = (tt.bits ^ np.bitwise_count(a & x)) & 1
        out.append(int((1 - 2 * exponent.astype(np.int64)).sum()))
    return out


def test_from_support_round_trip():
    tt = TruthTable.from_support(4, [5, 6, 10, 11, 13, 15])
    assert tt.support() == [5, 6, 10, 11, 13, 15]
    assert tt.weight() == 6
    assert TruthTable.from_hex(4, tt.hex()) == tt


def test_hex_packs_index_zero_first():
    tt = TruthTable.from_support(2, [0])
    assert tt.hex() == "8"
    g, h = golden_pair()
    assert g.hex() == "0635"
    assert h.hex() == "f635"


def test_empty_support():
    tt = TruthTable.from_support(3, [])
    assert tt.weight() == 0
    assert tt.hex() == "00"
    assert TruthTable.from_hex(3, "00") == tt


def test_golden_tables_bit_exact():
    g, h = golden_pair()
    assert list(g.bits) == [0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 1, 1, 0, 1, 0, 1]
    assert list(h.bits) == [1, 1, 1, 1, 0, 1, 1, 0, 0, 0, 1, 1, 0, 1, 0, 1]


def test_golden_anf():
    g, h = golden_pair()
    assert anf(g).monomials() == [5, 6, 10]
    assert anf(h).monomials() == [0, 4, 5, 6, 8, 10, 12]
    assert format_anf(anf(g)) == "x1*x3 + x2*x3 + x2*x4"


def test_walsh_matches_naive_small():
    rng = np.random.default_rng(7)
    for n in range(1, 9):
        for _ in range(10):
            tt = TruthTable(n, rng.integers(0, 2, size=1 << n, dtype=np.uint8))
            assert list(walsh_transform(tt).values) == naive_walsh(tt)


def test_parseval():
    g, h = golden_pair()
    for tt in (g, h):
        values = walsh_transform(tt).values.astype(np.int64)
        assert int((values**2).sum()) == 1 << (2 * tt.n)


def test_bent_and_nonlinearity():
    g, h = golden_pair()
    for tt in (g, h):
        assert is_bent(tt)
        assert nonlinearity(walsh_transform(tt)) == 6
    flat = TruthTable(4, np.zeros(16, dtype=np.uint8))
    assert not is_bent(flat)
    with pytest.raises(SpreadbentError, match="bentness needs even arity"):
        is_bent(TruthTable.from_support(3, [1]))


def test_mobius_involution():
    rng = np.random.default_rng(11)
    for _ in range(20):
        bits = rng.integers(0, 2, size=64, dtype=np.uint8)
        assert np.array_equal(mobius(mobius(bits)), bits)


def test_anf_truth_table_inverse():
    rng = np.random.default_rng(13)
    for _ in range(20):
        tt = TruthTable(4, rng.integers(0, 2, size=16, dtype=np.uint8))
        assert TruthTable(4, mobius(anf(tt).bits)) == tt


def test_algebraic_degree():
    g, h = golden_pair()
    assert algebraic_degree(anf(g)) == 2
    assert algebraic_degree(anf(h)) == 2
    zero_tt = TruthTable(3, np.zeros(8, dtype=np.uint8))
    assert algebraic_degree(anf(zero_tt)) == 0
    const_tt = TruthTable(3, np.ones(8, dtype=np.uint8))
    assert algebraic_degree(anf(const_tt)) == 0
    assert anf(const_tt).monomials() == [0]


def test_weight_formulas():
    g, h = golden_pair()
    assert g.weight() == 2**3 - 2**1
    assert h.weight() == 2**3 + 2**1


def test_from_spread_size_errors():
    spread = build_partial_spread(MINUS_FAMILY, b=2)
    with pytest.raises(ConstructionRejected, match="need 3 members"):
        from_spread(spread, plus_type=True)  # 2 members where ps+ needs 3
    with pytest.raises(ConstructionRejected, match="empty spread"):
        from_spread([], plus_type=False)


def test_from_spread_overlap_error():
    spread = build_partial_spread(MINUS_FAMILY, b=2)
    with pytest.raises(ConstructionRejected, match="share nonzero vectors"):
        from_spread([spread[0], spread[0]], plus_type=False)
    # members that miss 0 leave the union one vector too large
    no_zero = Subspace(n=4, vectors=(1, 2, 3, 4))
    for members in ([no_zero, spread[0]], [no_zero, Subspace(n=4, vectors=(5, 6, 8, 9))]):
        with pytest.raises(ConstructionRejected, match="share nonzero vectors"):
            from_spread(members, plus_type=False)


def test_format_anf_degenerate():
    zero_tt = TruthTable(2, np.zeros(4, dtype=np.uint8))
    assert format_anf(anf(zero_tt)) == "0"
    const_tt = TruthTable(2, np.ones(4, dtype=np.uint8))
    assert format_anf(anf(const_tt)) == "1"


def sorted_anf_text(a):
    """format_anf as it once was: sort (degree, variables) keys per call."""
    if a.is_zero:
        return "0"
    terms = []
    for idx in a.monomials():
        names = tuple(a.n - p for p in range(a.n - 1, -1, -1) if (idx >> p) & 1)
        terms.append(((-len(names), names), "*".join(f"x{v}" for v in names) or "1"))
    return " + ".join(text for _, text in sorted(terms))


@pytest.mark.parametrize("l,b,t", [(2, 2, 8), (2, 2, 9), (1, 3, 4), (1, 3, 5)])
def test_format_anf_matches_sorted_rendering_on_catalogs(l, b, t):
    # both table2 catalogs and both window-3 catalogs, every function
    catalog = enumerate_families(candidate_pool(field(l), b), t)
    for fid, combo in catalog.walk():
        a = anf(catalog.build(fid, combo)[0])
        assert format_anf(a) == sorted_anf_text(a)


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 6).flatmap(
    lambda n: st.lists(st.integers(0, 1), min_size=1 << n, max_size=1 << n).map(
        lambda bits: Anf(n, bits))))
def test_format_anf_matches_sorted_rendering(a):
    assert format_anf(a) == sorted_anf_text(a)


def test_format_anf_zero_at_every_arity():
    for n in range(7):
        a = Anf(n, np.zeros(1 << n, dtype=np.uint8))
        assert format_anf(a) == sorted_anf_text(a) == "0"
