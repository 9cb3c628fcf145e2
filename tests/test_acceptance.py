"""End-to-end acceptance checks.

One test per criterion; each prints a single `<label>: PASS` line after its
assertions (run with -s to see them live). Every comparison is exact: the
catalogs, tables, and golden values here are integers, and the suite treats
any deviation as a failure.
"""

import hashlib
import io
import math
import random
from collections import Counter

import numpy as np
import pytest

from gf2_reference import gf2_basis
from spreadbent import cli
from spreadbent.boolfun import (
    TruthTable,
    algebraic_degree,
    anf,
    from_spread,
    mobius,
    walsh_transform,
)
from spreadbent.cli import _check_triangle, write_csv
from spreadbent.families import (
    TAG_PRODUCT,
    TAG_SQUARE,
    candidate_pool,
    coprime_subsets,
    enumerate_families,
    nonzero_constant_members,
    sweep,
    verify_desarguesian_equivalence,
)
from spreadbent.gf2e import field
from spreadbent.lrs import build_matrix, kernel
from spreadbent.poly import closed_form_family_count, enumerate_irreducibles, gauss_count, poly
from spreadbent.rank2 import rank_gf2

# sweep output is the same for every job count, so the sweeps use every
# usable CPU, counted as --jobs 0 counts them
JOBS = cli._resolve_jobs(0)


def analyze_catalog(spec, b, t):
    """Build every catalog function at these parameters: (family, table)."""
    catalog = enumerate_families(candidate_pool(spec, b), t)
    items = list(catalog.walk())
    return [(catalog.family(*item), tt) for item, tt in zip(items, catalog.build(items))]


def with_ranks(records, rows):
    """(family, table, rank): each built function with its sweep row's rank."""
    assert len(records) == len(rows)
    for (fs, tt), row in zip(records, rows):
        assert row[:2] == [fs.family_id, fs.spread_type] and row[5] == tt.hex()
    return [(fs, tt, row[9]) for (fs, tt), row in zip(records, rows)]


@pytest.fixture(scope="module")
def window1_rows():
    """The table1 CSV rows."""
    return list(sweep(4, 1, (8,), JOBS))


@pytest.fixture(scope="module")
def window2_rows():
    """The table2 CSV rows."""
    return list(sweep(2, 2, (8, 9), JOBS))


@pytest.fixture(scope="module")
def window1_minus(window1_rows):
    return with_ranks(analyze_catalog(field(4), 1, 8), window1_rows)


@pytest.fixture(scope="module")
def window2_both(window2_rows):
    records = analyze_catalog(field(2), 2, 8) + analyze_catalog(field(2), 2, 9)
    return with_ranks(records, window2_rows)


def test_window1_rank_distribution(window1_minus):
    assert len(window1_minus) == 12870
    hist = dict(Counter(rank for _, _, rank in window1_minus))
    assert hist == {30: 270, 36: 2160, 40: 1080, 42: 9360}
    assert max(hist) <= 42
    print("window-1 sweep: 12870 functions, ranks {30: 270, 36: 2160, 40: 1080, 42: 9360}: PASS")


def test_window2_rank_distributions(window2_both):
    minus = [r for fs, _, r in window2_both if fs.spread_type == "PS-"]
    plus = [r for fs, _, r in window2_both if fs.spread_type == "PS+"]
    assert len(minus) == 174 and len(plus) == 64
    assert dict(Counter(minus)) == {36: 20, 40: 24, 42: 10, 44: 60, 46: 60}
    assert dict(Counter(plus)) == {40: 45, 44: 19}
    print("window-2 sweeps: 174 ranks {36: 20, 40: 24, 42: 10, 44: 60, 46: 60}, "
          "64 ranks {40: 45, 44: 19}: PASS")


def test_sweep_csv_bytes(window1_rows, window2_rows):
    for rows, want in (
        (window1_rows, "7f0d2d87571cabe0ec88f2250fce035beaf50a4ca686a75603edf22d9e81cc97"),
        (window2_rows, "e5be3c8d1a1869a5ebc1e7739564755149c060ad772b9e6899bb9722eaab7cb7"),
    ):
        out = io.StringIO()
        write_csv(rows, out)
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == want
    print("table1/table2 CSV sha256 7f0d2d87.../e5be3c8d...: PASS")


def test_golden_truth_tables():
    spec = field(1)
    minus = [poly(spec, (1, 0, 1)), poly(spec, (1, 1, 1))]
    plus = minus + [poly(spec, (0, 0, 1))]
    kernels = {f: kernel(build_matrix(f, 2)) for f in plus}
    g = from_spread([kernels[f] for f in minus], plus_type=False)
    h = from_spread([kernels[f] for f in plus], plus_type=True)
    assert [g.bits >> k & 1 for k in range(16)] == [0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 1, 1, 0, 1, 0, 1]
    assert [h.bits >> k & 1 for k in range(16)] == [1, 1, 1, 1, 0, 1, 1, 0, 0, 0, 1, 1, 0, 1, 0, 1]
    assert g.hex() == "0635" and h.hex() == "f635"
    assert anf(g).monomials() == [5, 6, 10]
    assert anf(h).monomials() == [0, 4, 5, 6, 8, 10, 12]
    print("golden n=4 tables 0635/f635 and their normal forms: PASS")


@pytest.mark.parametrize("l,maxdeg,expected_pairs", [(1, 3, 119), (2, 2, 2010), (3, 2, 130788)])
def test_coprimality_triangle(l, maxdeg, expected_pairs):
    # gcd = 1, an invertible Sylvester stack and disjoint kernels agree on every pair
    assert _check_triangle(field(l), maxdeg) == (True, f"{expected_pairs} pairs agree")
    print(f"coprimality/invertibility/disjointness agree on {expected_pairs} pairs "
          f"over GF(2^{l}): PASS")


def test_counting_cross_checks():
    for l in (1, 2):
        spec = field(l)
        for k in range(1, 5):
            assert gauss_count(spec, k) == len(enumerate_irreducibles(spec, k))
    assert closed_form_family_count(field(4), 1) == math.comb(15, 8)
    for l, b, expected in ((1, 2, 1), (2, 2, 12)):
        spec = field(l)
        members = nonzero_constant_members(candidate_pool(spec, b))
        brute = sum(1 for _ in coprime_subsets(members, 1 << (spec.l * b - 1)))
        assert closed_form_family_count(spec, b) == expected == brute

    pool = candidate_pool(field(2), 2)
    tag_of = dict(zip(pool.members, pool.tags))

    def buckets(t):
        shape = Counter()
        for fs in enumerate_families(pool, t):
            tags = {tag_of[p] for p in fs.polys}
            if TAG_PRODUCT not in tags:
                shape["plain"] += 1
            elif TAG_SQUARE in tags:
                shape["product+square"] += 1
            else:
                shape["product+fillers"] += 1
        return shape

    assert buckets(8) == {"plain": 165, "product+square": 3, "product+fillers": 6}
    assert buckets(9) == {"plain": 55, "product+square": 6, "product+fillers": 3}
    print("counting cross-checks: formulas match enumeration, "
          "174 = 165+3+6 and 64 = 55+6+3: PASS")


def _check_universal(fs, tt):
    n, m = fs.n, fs.m
    values = walsh_transform(tt)
    assert all(abs(w) == 1 << m for w in values), f"family {fs.family_id} not bent"
    assert sum(w * w for w in values) == 1 << (2 * n), f"family {fs.family_id} Parseval"
    sign = 1 if fs.spread_type == "PS+" else -1
    assert tt.weight() == (1 << (n - 1)) + sign * (1 << (m - 1))
    assert algebraic_degree(anf(tt)) == n // 2


def test_universal_bent_properties(window1_minus, window2_both):
    counts = Counter()
    for spec, b, t in (
        (field(1), 2, 2), (field(1), 2, 3),
        (field(2), 1, 2), (field(2), 1, 3),
        (field(3), 1, 4), (field(3), 1, 5),
        (field(1), 3, 4), (field(1), 3, 5),
    ):
        for fs, tt in analyze_catalog(spec, b, t):
            _check_universal(fs, tt)
            counts[(fs.n, fs.spread_type)] += 1
    for fs, tt, _ in window1_minus:
        _check_universal(fs, tt)
        counts[(fs.n, fs.spread_type)] += 1
    for fs, tt, _ in window2_both:
        _check_universal(fs, tt)
        counts[(fs.n, fs.spread_type)] += 1
    # a window-1 positive-type sample at n=8 rounds out type coverage
    plus_catalog = enumerate_families(candidate_pool(field(4), 1), 9)
    for fid in [*range(25), *range(0, plus_catalog.size, 500)]:
        fs = plus_catalog[fid]
        (tt,) = plus_catalog.build([next(plus_catalog.walk(fid))])
        _check_universal(fs, tt)
        counts[(fs.n, fs.spread_type)] += 1
    for n in (4, 6, 8):
        assert counts[(n, "PS-")] > 0 and counts[(n, "PS+")] > 0
    total = sum(counts.values())
    print(f"universal properties (bent, Parseval, weight, degree n/2) on "
          f"{total} functions across n in {{4, 6, 8}}, both types: PASS")


def test_desarguesian_equivalence():
    assert verify_desarguesian_equivalence(2)
    assert verify_desarguesian_equivalence(4)
    print("window-1 kernels and functions coincide with the Desarguesian "
          "spread at m=2 and m=4: PASS")


def test_window3_catalog():
    minus = analyze_catalog(field(1), 3, 4)
    plus = analyze_catalog(field(1), 3, 5)
    assert len(minus) == 5 and len(plus) == 1
    for fs, tt in minus + plus:
        _check_universal(fs, tt)
    assert len({tt.hex() for _, tt in minus + plus}) == 6
    print("mixed-degree window-3 catalog: 5 negative + 1 positive, all valid: PASS")


def _naive_walsh(bits, n):
    return [
        sum((-1) ** ((bits >> x & 1) ^ bin(a & x).count("1")) for x in range(1 << n))
        for a in range(1 << n)
    ]


def _naive_anf(bits, n):
    # coefficient I is the XOR of f(k) over every k with k & I == k
    return sum(
        (sum(bits >> k & 1 for k in range(1 << n) if k & i == k) & 1) << i
        for i in range(1 << n)
    )


def test_transform_oracles():
    for n in (1, 2, 3):
        for value in range(1 << (1 << n)):
            tt = TruthTable(n, value)
            assert list(walsh_transform(tt)) == _naive_walsh(value, n)
            assert anf(tt).bits == _naive_anf(value, n)
    tables = random.Random(2026)
    for _ in range(100):
        tt = TruthTable(4, tables.getrandbits(16))
        assert list(walsh_transform(tt)) == _naive_walsh(tt.bits, 4)
    rng = np.random.default_rng(2026)
    for _ in range(100):
        matrix = rng.integers(0, 2, size=(32, 32), dtype=np.uint8)
        packed = np.packbits(matrix, axis=1)
        rows = [int("".join(map(str, row)), 2) for row in matrix]
        assert rank_gf2(packed, 32) == len(gf2_basis(rows))
    for _ in range(20):
        bits = tables.getrandbits(256)
        assert mobius(bits, 8) == _naive_anf(bits, 8)
        assert mobius(mobius(bits, 8), 8) == bits
    print("transform oracles: fast Walsh, GF(2) rank, and the subset-sum "
          "transform and its involution all agree with naive forms: PASS")
