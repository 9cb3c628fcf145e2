import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spreadbent
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
    size = 1 << tt.n
    return [
        sum(1 - 2 * ((tt.bits >> x ^ (a & x).bit_count()) & 1) for x in range(size))
        for a in range(size)
    ]


def butterfly_walsh(tt):
    # the n-stage butterfly on the polarity table, O(n 2^n) int64 additions
    raw = np.frombuffer(tt.bits.to_bytes(max(1 << tt.n >> 3, 1), "little"), dtype=np.uint8)
    s = 1 - 2 * np.unpackbits(raw, bitorder="little")[: 1 << tt.n].astype(np.int64)
    for h in (1 << i for i in range(tt.n)):
        v = s.reshape(-1, 2 * h)
        left = v[:, :h].copy()
        right = v[:, h:].copy()
        v[:, :h] = left + right
        v[:, h:] = left - right
    return s


def values(tt):
    return [tt.bits >> k & 1 for k in range(1 << tt.n)]


def tables(max_n):
    return st.integers(0, max_n).flatmap(
        lambda n: st.integers(0, (1 << (1 << n)) - 1).map(lambda bits: TruthTable(n, bits)))


def subset_sum_anf(bits, n):
    # the definition: coefficient I is the XOR of f(k) over every k subset of I
    out = 0
    for i in range(1 << n):
        k, coefficient = i, bits & 1
        while k:
            coefficient ^= bits >> k & 1
            k = (k - 1) & i
        out |= coefficient << i
    return out


def test_from_support_round_trip():
    tt = TruthTable.from_support(4, [5, 6, 10, 11, 13, 15])
    assert tt.bits == 0b1010110001100000
    assert tt.weight() == 6
    assert TruthTable.from_hex(4, tt.hex()) == tt


def test_hex_round_trip_every_arity():
    rng = random.Random(5)
    for n in range(11):
        for bits in (0, (1 << (1 << n)) - 1, rng.getrandbits(1 << n)):
            tt = TruthTable(n, bits)
            assert len(tt.hex()) == -(-(1 << n) // 4)
            assert TruthTable.from_hex(n, tt.hex()) == tt
            # the hex digits spell f(0), f(1), ... from the top bit down
            digits = len(tt.hex()) * 4
            spelled = f"{int(tt.hex(), 16):0{digits}b}"[: 1 << n]
            assert spelled == "".join(map(str, values(tt)))


@pytest.mark.parametrize("make", [
    lambda: TruthTable(2, 1 << 4),
    lambda: TruthTable(2, -1),
    lambda: TruthTable(2, [0, 1, 1, 0]),
    lambda: TruthTable.from_support(2, [4]),
    lambda: TruthTable.from_hex(1, "f"),  # the padding bits are set
    lambda: TruthTable.from_hex(4, "06x5"),
    lambda: Anf(3, 1 << 8),
])
def test_out_of_range_bits_are_refused(make):
    with pytest.raises(SpreadbentError, match="^expected "):
        make()


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
    assert (g.bits, h.bits) == (0b1010110001100000, 0b1010110001101111)
    assert values(g) == [0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 1, 1, 0, 1, 0, 1]
    assert values(h) == [1, 1, 1, 1, 0, 1, 1, 0, 0, 0, 1, 1, 0, 1, 0, 1]


def test_golden_anf():
    g, h = golden_pair()
    assert anf(g).monomials() == [5, 6, 10]
    assert anf(h).monomials() == [0, 4, 5, 6, 8, 10, 12]
    assert format_anf(anf(g)) == "x1*x3 + x2*x3 + x2*x4"


def test_walsh_matches_naive_small():
    rng = random.Random(7)
    for n in range(1, 9):
        for _ in range(10):
            tt = TruthTable(n, rng.getrandbits(1 << n))
            spectrum = walsh_transform(tt)
            assert spectrum == tuple(naive_walsh(tt))
            assert all(type(w) is int for w in spectrum)


@settings(deadline=None, max_examples=60)
@given(tables(8))
def test_walsh_matches_naive_on_drawn_tables(tt):
    assert list(walsh_transform(tt)) == naive_walsh(tt)


def test_walsh_matches_butterfly_large():
    # the constant tables put +-2^n in W(0), the largest value a product
    # must carry exactly
    rng = random.Random(16)
    for n in (10, 12, 14, 16):
        full = (1 << (1 << n)) - 1
        for bits in (0, full, rng.getrandbits(1 << n)):
            tt = TruthTable(n, bits)
            spectrum = walsh_transform(tt)
            assert all(type(w) is int for w in spectrum)
            assert list(spectrum) == butterfly_walsh(tt).tolist()
            assert sum(w * w for w in spectrum) == 1 << (2 * n)


@settings(deadline=None, max_examples=6)
@given(st.integers(0, (1 << 1024) - 1))
def test_walsh_matches_naive_at_n10(bits):
    # past tables(8): the naive transform takes 4^n steps, about 0.4 s here
    tt = TruthTable(10, bits)
    assert list(walsh_transform(tt)) == naive_walsh(tt)


def test_parseval():
    g, h = golden_pair()
    for tt in (g, h):
        assert sum(w * w for w in walsh_transform(tt)) == 1 << (2 * tt.n)


def test_bent_and_nonlinearity():
    g, h = golden_pair()
    for tt in (g, h):
        assert is_bent(tt)
        assert nonlinearity(walsh_transform(tt)) == 6
    flat = TruthTable(4, 0)
    assert not is_bent(flat)
    with pytest.raises(SpreadbentError, match="bentness needs even arity"):
        is_bent(TruthTable.from_support(3, [1]))


NUMPY_BLOCKED = textwrap.dedent("""
    import sys

    class NoNumpy:
        def find_spec(self, name, path=None, target=None):
            if name.partition(".")[0] == "numpy":
                raise ImportError(f"{name} is blocked")

    sys.meta_path.insert(0, NoNumpy())
    from spreadbent import boolfun, errors, gf2e, lrs, poly
    tt = boolfun.TruthTable.from_hex(4, "0635")
    assert boolfun.is_bent(tt)
    assert boolfun.nonlinearity(boolfun.walsh_transform(tt)) == 6
""")


def test_boolfun_runs_without_numpy():
    # rank2 is the one module that needs numpy; everything below it must not
    src = str(Path(spreadbent.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", NUMPY_BLOCKED],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_mobius_involution():
    rng = random.Random(11)
    for _ in range(20):
        bits = rng.getrandbits(64)
        assert mobius(mobius(bits, 6), 6) == bits


def test_anf_truth_table_inverse():
    rng = random.Random(13)
    for _ in range(20):
        tt = TruthTable(4, rng.getrandbits(16))
        assert TruthTable(4, mobius(anf(tt).bits, 4)) == tt


def check_anf_oracle(tt):
    a = anf(tt)
    assert a.bits == subset_sum_anf(tt.bits, tt.n)
    monomials = a.monomials()
    assert monomials == sorted(set(monomials)) and sum(1 << i for i in monomials) == a.bits
    assert algebraic_degree(a) == max((i.bit_count() for i in monomials), default=0)


def test_anf_matches_subset_sum_definition_exhaustive():
    # every table at n <= 3, the identity and the involution included
    for n in range(4):
        for bits in range(1 << (1 << n)):
            check_anf_oracle(TruthTable(n, bits))


@settings(deadline=None, max_examples=60)
@given(tables(10))
def test_anf_matches_subset_sum_definition(tt):
    check_anf_oracle(tt)


def test_algebraic_degree():
    g, h = golden_pair()
    assert algebraic_degree(anf(g)) == 2
    assert algebraic_degree(anf(h)) == 2
    zero_tt = TruthTable(3, 0)
    assert algebraic_degree(anf(zero_tt)) == 0
    const_tt = TruthTable(3, 0xFF)
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
    with pytest.raises(ConstructionRejected, match="^spread members 0 and 1 share nonzero"):
        from_spread([spread[0], spread[0]], plus_type=False)
    # the overlapping pair is named by position; members 0 and 1 are disjoint
    with pytest.raises(ConstructionRejected, match="^spread members 1 and 2 share nonzero"):
        from_spread([spread[0], spread[1], spread[1]], plus_type=True)


def test_from_spread_member_errors():
    # each member must be a subspace of the first member's F_2^n
    spread = build_partial_spread(MINUS_FAMILY, b=2)
    n2_kernel = build_partial_spread([poly(GF2, (1, 1))], b=1)[0]
    n6_subspace = Subspace((1, 2, 4))
    for bad in (n2_kernel, n6_subspace):
        with pytest.raises(ConstructionRejected) as caught:
            from_spread([spread[0], bad], plus_type=False)
        assert str(caught.value) == f"member 1 is a subspace of F_2^{bad.n}, not of F_2^4"
    # a basis with zero, a repeated or dependent vector, or a vector wider
    # than n = 2*len(basis) bits cannot be built: k independent vectors
    # span exactly 2^k, 0 among them
    for basis in [(0, 5, 10), (1, 2, 3, 4), (0, 4, 4, 8), (5,), (0, 5), (4, 4)]:
        with pytest.raises(SpreadbentError) as caught:
            Subspace(basis)
        k = len(basis)
        assert str(caught.value) == f"expected {k} independent ints in [0, 2^{2 * k}), got {basis}"


def test_format_anf_degenerate():
    zero_tt = TruthTable(2, 0)
    assert format_anf(anf(zero_tt)) == "0"
    const_tt = TruthTable(2, 0xF)
    assert format_anf(anf(const_tt)) == "1"


def sorted_anf_text(a):
    """format_anf as it once was: sort (degree, variables) keys per call."""
    if not a.bits:
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
    for tt in catalog.build(catalog.walk()):
        a = anf(tt)
        assert format_anf(a) == sorted_anf_text(a)


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 6).flatmap(
    lambda n: st.integers(0, (1 << (1 << n)) - 1).map(lambda bits: Anf(n, bits))))
def test_format_anf_matches_sorted_rendering(a):
    assert format_anf(a) == sorted_anf_text(a)


def test_format_anf_zero_at_every_arity():
    for n in range(7):
        a = Anf(n, 0)
        assert format_anf(a) == sorted_anf_text(a) == "0"
