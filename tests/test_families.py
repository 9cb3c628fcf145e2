import contextlib
import functools
import itertools
import math
import multiprocessing
import os
import pickle
import random
import signal
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from gf2_reference import gf2_basis
from spreadbent import families
from spreadbent.boolfun import (
    TruthTable,
    algebraic_degree,
    anf,
    is_bent,
    nonlinearity,
    walsh_transform,
)
from spreadbent.cli import TABLES
from spreadbent.errors import ConstructionRejected, SpreadbentError
from spreadbent.families import (
    TAG_IRREDUCIBLE,
    TAG_MIXED,
    TAG_ONE,
    TAG_PRODUCT,
    TAG_SQUARE,
    TAG_XPOW,
    analyze,
    build_bent,
    candidate_pool,
    coprime_subsets,
    desarguesian_spread,
    enumerate_families,
    manifest_line,
    nonzero_constant_members,
    verify_desarguesian_equivalence,
)
from spreadbent.gf2e import field
from spreadbent.lrs import build_matrix, kernel
from spreadbent.poly import closed_form_family_count, one, poly, poly_gcd

GF2 = field(1)
GF4 = field(2)
GF16 = field(4)


def coprime(*polys):
    return all(poly_gcd(f, g) == one(f.spec) for f, g in itertools.combinations(polys, 2))


def tag_counts(pool):
    counts = {}
    for tag in pool.tags:
        counts[tag] = counts.get(tag, 0) + 1
    return counts


def test_window1_pool():
    pool = candidate_pool(GF16, 1)
    assert len(pool.members) == 16
    assert tag_counts(pool) == {TAG_IRREDUCIBLE: 15, TAG_XPOW: 1}


def test_window2_pool_gf4():
    pool = candidate_pool(GF4, 2)
    assert len(pool.members) == 14
    assert tag_counts(pool) == {
        TAG_IRREDUCIBLE: 6,
        TAG_SQUARE: 3,
        TAG_PRODUCT: 3,
        TAG_ONE: 1,
        TAG_XPOW: 1,
    }
    assert coprime(*pool.members[:6])


def test_window2_pool_gf2():
    pool = candidate_pool(GF2, 2)
    assert [p.coeffs for p in pool.members] == [(1, 1, 1), (1, 0, 1), (1,), (0, 0, 1)]
    assert tag_counts(pool) == {TAG_IRREDUCIBLE: 1, TAG_SQUARE: 1, TAG_ONE: 1, TAG_XPOW: 1}


def test_window3_pool():
    pool = candidate_pool(GF2, 3)
    assert len(pool.members) == 5
    assert tag_counts(pool) == {TAG_IRREDUCIBLE: 2, TAG_MIXED: 1, TAG_ONE: 1, TAG_XPOW: 1}
    mixed = pool.members[pool.tags.index(TAG_MIXED)]
    assert mixed.coeffs == (1, 0, 0, 1)  # (X + 1)(X^2 + X + 1)


def test_pool_rejections():
    with pytest.raises(SpreadbentError, match="only supported over GF"):
        candidate_pool(GF4, 3)
    with pytest.raises(SpreadbentError, match=r"^window size b must be an int in \[1, 3\], got 4$"):
        candidate_pool(GF2, 4)


def test_catalog_sizes():
    assert len(enumerate_families(candidate_pool(GF2, 2), 2)) == 6
    assert len(enumerate_families(candidate_pool(GF2, 2), 3)) == 4
    assert len(enumerate_families(candidate_pool(GF4, 2), 8)) == 174
    assert len(enumerate_families(candidate_pool(GF4, 2), 9)) == 64
    assert len(enumerate_families(candidate_pool(GF2, 3), 4)) == 5
    assert len(enumerate_families(candidate_pool(GF2, 3), 5)) == 1


def test_catalog_indexing():
    catalog = enumerate_families(candidate_pool(GF4, 2), 9)
    listed = list(catalog)
    assert [catalog[k] for k in range(64)] == listed
    for k in (64, -1):
        with pytest.raises(IndexError):
            catalog[k]


def test_catalog_size_beyond_maxsize():
    # 255 linears a + X plus X itself: all coprime, so every subset counts
    catalog = enumerate_families(candidate_pool(field(8), 1), 128)
    assert catalog.size == math.comb(256, 128)


def test_wide_window_catalog_at_n16_refused():
    # at l=4, b=2 counting the catalog memoizes about 2.1 million states
    pool = candidate_pool(GF16, 2)
    start = time.perf_counter()
    for t in (128, 129):
        with pytest.raises(SpreadbentError, match="refused"):
            enumerate_families(pool, t)
    assert time.perf_counter() - start < 1


@functools.cache
def pool_of(l, b, e_inf=False):
    """candidate_pool(field(l), b); with e_inf, the window-1 pool widened
    by hand with the constant 1, ordered a + X, 1, X. The kernel of 1 is
    E_inf, so the widened pool's kernels are the whole Desarguesian spread:
    q + 1 members, every pair of them coprime."""
    pool = candidate_pool(field(l), b)
    if not e_inf:
        return pool
    assert b == 1
    return families.CandidatePool(
        pool.spec, b,
        pool.members[:-1] + (one(pool.spec),) + pool.members[-1:],
        pool.tags[:-1] + (TAG_ONE,) + pool.tags[-1:],
    )


# (l, b, e_inf) -> catalog sizes (PS-, PS+), e_inf as in pool_of. At b=1
# every pair of distinct members is coprime, so every subset of the pool
# counts.
GRAPH_POOLS = {
    **{
        (l, 1, wide): (math.comb(q, q // 2), math.comb(q, q // 2 + 1))
        for l in range(1, 8)
        for wide, q in ((False, 1 << l), (True, (1 << l) + 1))
    },
    (1, 2, False): (6, 4),
    (2, 2, False): (174, 64),
    (3, 2, False): (437997, 68145),
    (1, 3, False): (5, 1),
}


@pytest.mark.parametrize("l,b,wide", sorted(GRAPH_POOLS))
def test_kernel_graph_is_the_gcd_graph(l, b, wide):
    pool = pool_of(l, b, wide)
    members = pool.members
    gcd_graph = tuple(
        sum(
            1 << j
            for j in range(i + 1, len(members))
            if coprime(members[i], members[j])
        )
        for i in range(len(members))
    )
    assert pool.disjoint_after == gcd_graph
    m = l * b
    sizes = tuple(enumerate_families(pool, (1 << (m - 1)) + plus).size for plus in (0, 1))
    assert sizes == GRAPH_POOLS[l, b, wide]


def test_last_family_at_l7_is_the_pool_tail():
    pool = candidate_pool(field(7), 1)
    catalog = enumerate_families(pool, 64)
    last = catalog[catalog.size - 1]
    assert last.family_id == math.comb(128, 64) - 1
    assert last.polys == pool.members[-64:]
    assert catalog[0].polys == pool.members[:64]


def kth_subset(n, t, k):
    """The k-th t-subset of range(n) in lexicographic order, by the
    combinatorial number system: C(n - i - 1, t - 1) subsets take i first."""
    combo = []
    for i in range(n):
        if not t:
            break
        below = math.comb(n - i - 1, t - 1)
        if k < below:
            combo.append(i)
            t -= 1
        else:
            k -= below
    return tuple(combo)


@pytest.mark.parametrize("plus", [False, True], ids=["ps-", "ps+"])
@pytest.mark.parametrize("l", range(2, 8))
def test_window1_lookups_are_lexicographic_subsets(l, plus):
    # every pair of a window-1 pool is coprime, so family k is the k-th
    # t-subset of the pool's q members
    q = 1 << l
    t = q // 2 + plus
    catalog = enumerate_families(candidate_pool(field(l), 1), t)
    assert catalog.size == math.comb(q, t)
    rng = random.Random(l * 2 + plus)
    ids = [0, 1, catalog.size // 2, catalog.size - 1, *(rng.randrange(catalog.size) for _ in range(50))]
    for k in ids:
        fid, combo = next(catalog.walk(k))
        assert (fid, combo) == (k, kth_subset(q, t, k))
        assert catalog[k].polys == tuple(catalog.pool.members[i] for i in combo)


def test_clique_walk_edge_cases():
    empty = families._Cliques([], 2)
    assert list(empty.walk()) == []
    # t = 0: one empty clique, at start 0 only
    for after in ([], [0b10, 0]):
        none_left = families._Cliques(after, 0)
        assert list(none_left.walk()) == [()]
        assert list(none_left.walk(1)) == []
    triangle = families._Cliques([0b110, 0b100, 0], 2)
    assert list(triangle.walk()) == [(0, 1), (0, 2), (1, 2)]
    assert list(triangle.walk(2)) == [(1, 2)]
    for start in (3, 4, 1 << 70):
        assert list(triangle.walk(start)) == []
    # no edges: no pair, however many vertices
    assert list(families._Cliques([0, 0, 0], 2).walk()) == []


def test_catalog_rejects_other_sizes():
    with pytest.raises(SpreadbentError, match="family size 4 matches neither spread type"):
        enumerate_families(candidate_pool(GF2, 2), 4)


def test_family_ids_are_serial_and_stable():
    pool = candidate_pool(GF4, 2)
    first = enumerate_families(pool, 8)
    second = enumerate_families(pool, 8)
    assert [fs.polys for fs in first] == [fs.polys for fs in second]
    assert [fs.family_id for fs in first] == list(range(174))
    assert all(fs.spread_type == "PS-" and fs.n == 8 and fs.m == 4 for fs in first)


def test_product_members_require_full_irreducible_block():
    pool = candidate_pool(GF4, 2)
    irreducibles = {pool.members[i] for i in pool.indices_of(TAG_IRREDUCIBLE)}
    products = {pool.members[i] for i in pool.indices_of(TAG_PRODUCT)}
    for fs in enumerate_families(pool, 8):
        chosen = set(fs.polys)
        if chosen & products:
            assert irreducibles <= chosen


def test_unrestricted_filter_is_larger():
    # dropping the completion rule admits more pairwise-coprime subsets
    pool = candidate_pool(GF4, 2)
    unrestricted = sum(1 for _ in coprime_subsets(list(pool.members), 8))
    assert unrestricted == 273
    catalog = enumerate_families(pool, 8)
    assert all(coprime(*catalog[k].polys) for k in range(10))


def test_nonzero_constant_members():
    assert len(nonzero_constant_members(candidate_pool(GF4, 2))) == 12
    assert len(nonzero_constant_members(candidate_pool(GF2, 2))) == 2
    sub = nonzero_constant_members(candidate_pool(GF16, 1))
    assert len(sub) == 15
    assert sum(1 for _ in coprime_subsets(sub, 8)) == closed_form_family_count(GF16, 1)


def test_build_bent_properties():
    for fs in enumerate_families(candidate_pool(GF2, 3), 4):
        tt = build_bent(fs)
        assert tt.n == 6
        assert tt.weight() == 2**5 - 2**2
        assert algebraic_degree(anf(tt)) == 3


def test_manifest_line_format():
    fs = enumerate_families(candidate_pool(GF2, 2), 2)[0]
    line = manifest_line(fs)
    assert line.startswith("id=0; l=1; b=2; type=PS-; polys=")
    assert ";" in line.split("polys=")[1]


def test_desarguesian_spread_shape():
    for m in (2, 3):
        spread = desarguesian_spread(m)
        assert len(spread) == 2**m + 1
        union = set()
        for s in spread:
            assert len(s.vectors) == 2**m
            assert s.n // 2 == m == len(gf2_basis(s.vectors))
            overlap = union & set(s.vectors)
            assert overlap <= {0}
            union |= set(s.vectors)
        assert union == set(range(4**m))


def test_desarguesian_equivalence_small():
    assert verify_desarguesian_equivalence(2)


@pytest.mark.parametrize("m", [2, 4])
def test_desarguesian_check_sees_swapped_kernels(monkeypatch, m):
    real = candidate_pool(field(m), 1)
    pool = families.CandidatePool(real.spec, real.b, real.members, real.tags)
    kernels = list(real.kernels)
    kernels[1], kernels[2] = kernels[2], kernels[1]
    pool.__dict__["kernels"] = tuple(kernels)
    monkeypatch.setattr(families, "candidate_pool", lambda spec, b: pool)
    assert not verify_desarguesian_equivalence(m)


def test_build_bent_raises_on_wrong_size():
    pool = candidate_pool(GF2, 2)
    fs = enumerate_families(pool, 2)[0]
    broken = fs.__class__(
        l=fs.l, b=fs.b, polys=fs.polys[:1],
        spread_type=fs.spread_type, family_id=0,
    )
    with pytest.raises(ConstructionRejected, match="need 2 members"):
        build_bent(broken)


@pytest.mark.parametrize("l, b, coeff_lists, pair", [
    # both divisible by X + 1, whose window is short at b=2
    pytest.param(1, 2, [(1, 0, 1), (1, 1)], "0 and 1", id="common-factor"),
    # gcd(1, X) = 1, yet both kernels at b=2 hold the vector with only the
    # last coordinate set
    pytest.param(1, 2, [(1,), (0, 1)], "0 and 1", id="two-short-windows"),
    # over GF(8) the first three linears are pairwise coprime; the fourth
    # repeats the third
    pytest.param(3, 1, [(1, 1), (2, 1), (3, 1), (3, 1)], "2 and 3", id="gf8-repeated-member"),
])
def test_build_bent_rejects_overlapping_kernels(l, b, coeff_lists, pair):
    # no gcd test runs: from_spread's union count refuses the family
    polys = tuple(poly(field(l), c) for c in coeff_lists)
    fs = families.FamilySpec(l=l, b=b, polys=polys, spread_type="PS-", family_id=-1)
    with pytest.raises(ConstructionRejected, match=f"^spread members {pair} share nonzero vectors$"):
        build_bent(fs)


# Every catalog small enough to rebuild from scratch, as (l, b, e_inf).
SMALL_CATALOGS = [
    (1, 2, False), (2, 2, False), (1, 3, False), (2, 1, False), (3, 1, False),
    (1, 1, True), (2, 1, True), (3, 1, True),
]


@pytest.mark.parametrize("plus", [False, True], ids=["ps-", "ps+"])
@pytest.mark.parametrize("l,b,e_inf", SMALL_CATALOGS)
def test_catalog_build_matches_from_scratch(l, b, e_inf, plus):
    pool = pool_of(l, b, e_inf)
    catalog = enumerate_families(pool, (1 << (l * b - 1)) + plus)
    items = list(catalog.walk())
    tables = catalog.build(items)
    assert len(tables) == catalog.size > 0
    for (fid, combo), tt in zip(items, tables):
        fs = catalog[fid]
        assert fs == catalog.family(fid, combo)
        assert tt == build_bent(fs)
        assert is_bent(tt)
        # a batch of one builds the same function
        assert catalog.build([(fid, combo)]) == [tt]


@pytest.mark.parametrize("l, b, t, step", [
    (2, 2, 8, 1), (2, 2, 9, 1), (1, 3, 4, 1), (1, 3, 5, 1), (4, 1, 8, 97), (4, 1, 9, 97),
], ids=["table2-ps-", "table2-ps+", "window3-ps-", "window3-ps+", "window1-ps-", "window1-ps+"])
def test_certified_nonlinearity_matches_the_measured_one(l, b, t, step):
    # analyze derives the nonlinearity from Dillon's theorem; a transform
    # measures it: every step-th catalog function
    catalog = enumerate_families(candidate_pool(field(l), b), t)
    items = list(itertools.islice(catalog.walk(), 0, None, step))
    for tt in catalog.build(items):
        assert analyze(tt)[3] == nonlinearity(walsh_transform(tt))


@pytest.mark.parametrize("n, bits, weight", [(4, 1, 1), (6, 3, 2), (3, 1, 1), (0, 1, 1)],
                         ids=["n4-weight1", "n6-weight2", "odd-arity", "arity-0"])
def test_analyze_refuses_a_table_that_cannot_be_bent(n, bits, weight):
    # the certified nonlinearity 2^(n-1) - 2^(m-1) holds for bent tables
    # only: 6, 28 and 3 were reported for the first three, which measure
    # 1, 2 and 1
    message = f"^no bent function of arity {n} has weight {weight}$"
    with pytest.raises(SpreadbentError, match=message):
        analyze(TruthTable(n, bits))


# Every catalog with l*b <= 4, as (l, b, e_inf).
WALK_CATALOGS = SMALL_CATALOGS + [(1, 1, False), (4, 1, False), (4, 1, True)]


@pytest.mark.parametrize("plus", [False, True], ids=["ps-", "ps+"])
@pytest.mark.parametrize("l,b,e_inf", WALK_CATALOGS)
def test_walk_from_every_start(l, b, e_inf, plus):
    # the walk from any start is the full walk's suffix: whole suffixes
    # from every start up to a few hundred families; in the n=8 catalogs
    # the first 8 families from every start, and whole suffixes from three
    catalog = enumerate_families(pool_of(l, b, e_inf), (1 << (l * b - 1)) + plus)
    full = list(catalog.walk())
    assert [fid for fid, _ in full] == list(range(catalog.size))
    span = catalog.size if catalog.size <= 500 else 8
    for start in range(catalog.size + 1):
        assert list(itertools.islice(catalog.walk(start), span)) == full[start:start + span]
    for start in (1, catalog.size // 3, catalog.size - 1):
        assert list(catalog.walk(start)) == full[start:]


def test_catalog_solves_each_kernel_once():
    catalog = enumerate_families(candidate_pool(GF4, 2), 8)
    first = catalog.pool.kernels[3]
    assert catalog.pool.kernels[3] is first
    # a second catalog over the same pool shares its kernels and graph
    other = enumerate_families(catalog.pool, 9)
    assert other.pool.kernels[3] is first
    assert other._cliques.after is catalog._cliques.after
    assert first == kernel(build_matrix(catalog.pool.members[3], 2))
    with pytest.raises(IndexError):
        catalog[catalog.size]
    assert list(catalog.walk(catalog.size)) == []


def test_pools_and_catalogs_are_memoized():
    pool = candidate_pool(GF4, 2)
    assert candidate_pool(GF4, b=2) is pool
    assert candidate_pool(spec=field(2), b=2) is pool
    window1 = candidate_pool(GF16, 1)
    assert candidate_pool(GF16, b=1) is window1
    assert candidate_pool(spec=GF16, b=1) is window1
    catalog = enumerate_families(pool, 8)
    assert enumerate_families(pool, 8) is catalog
    assert enumerate_families(candidate_pool(GF4, 2), 9) is not catalog


def test_catalog_memo_lives_on_its_pool():
    # a hand-built pool gets catalogs of its own, not the memoized pool's
    pool = candidate_pool(GF4, 2)
    copy = families.CandidatePool(pool.spec, pool.b, pool.members, pool.tags)
    catalog = enumerate_families(copy, 8)
    assert enumerate_families(copy, 8) is catalog
    assert enumerate_families(pool, 8) is not catalog
    assert list(catalog.walk()) == list(enumerate_families(pool, 8).walk())


def test_refused_shapes_cache_nothing():
    cached = families._candidate_pool.cache_info().currsize
    for spec, b in ((GF4, 3), (GF2, 4), (GF4, 2.0), (GF16, True)):
        with pytest.raises(SpreadbentError):
            candidate_pool(spec, b)
    assert families._candidate_pool.cache_info().currsize == cached
    memo = candidate_pool(GF16, 2)
    pool = families.CandidatePool(memo.spec, memo.b, memo.members, memo.tags)
    for t in (128, 129, 7, 128.0, True):
        with pytest.raises(SpreadbentError):
            enumerate_families(pool, t)
    assert pool._catalogs == {}
    assert "kernels" not in pool.__dict__


@pytest.mark.parametrize("command", sorted(TABLES))
def test_catalog_pickles(command):
    # sweep workers receive the catalog: pickled under spawn and forkserver
    l, b, sizes = TABLES[command]
    pool = candidate_pool(field(l), b)
    for t in sizes:
        catalog = enumerate_families(pool, t)
        copy = pickle.loads(pickle.dumps(catalog))
        assert copy.size == catalog.size
        assert list(copy.walk()) == list(catalog.walk())
        for fid in (0, catalog.size // 3, catalog.size - 1):
            item = next(catalog.walk(fid))
            assert next(copy.walk(fid)) == item
            assert copy.build([item]) == catalog.build([item])


def test_sweep_memory_does_not_grow_with_the_catalog(monkeypatch):
    # with the analysis stubbed out, what the sweep itself holds: a bound
    # fixed well below one byte per family of the 12870-family catalog
    pool = candidate_pool(GF16, 1)
    enumerate_families(pool, 8)  # the count memo is the catalog's, not the sweep's
    monkeypatch.setattr(families, "analyze", lambda tt: (0,) * 6)
    tracemalloc.start()
    try:
        rows = sum(1 for _ in families.sweep(pool, (8,), 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == 12870
    assert peak < 1 << 20


def test_sweep_workers_wait_for_the_reader(monkeypatch):
    # a reader that stops taking rows stops the walk: 2*jobs start offsets
    # go out before the first row, and no more until the reader takes it
    sent = []
    real = ProcessPoolExecutor.submit
    monkeypatch.setattr(ProcessPoolExecutor, "submit",
                        lambda self, *args: sent.append(args) or real(self, *args))
    monkeypatch.setattr(families, "BATCH", 4)
    pool = candidate_pool(GF16, 1)
    with contextlib.closing(families.sweep(pool, (8,), 2)) as rows:
        row = next(rows)
        catalog = enumerate_families(pool, 8)
        assert sent == [(families._rows, catalog, start) for start in (0, 4, 8, 12)]
    assert multiprocessing.active_children() == []
    with contextlib.closing(families.sweep(pool, (8,), 1)) as rows:
        assert row == next(rows)


def test_sweep_batches_hold_at_most_batch_families(monkeypatch):
    # small batches let an early close stop soon: the whole 12870-family
    # catalog at two jobs goes out as one start offset per 64 families
    sent = []
    real = ProcessPoolExecutor.submit
    monkeypatch.setattr(ProcessPoolExecutor, "submit",
                        lambda self, *args: sent.append(args) or real(self, *args))
    monkeypatch.setattr(families, "analyze", lambda tt: (0,) * 6)
    rows = [row[0] for row in families.sweep(candidate_pool(GF16, 1), (8,), 2)]
    assert rows == list(range(12870))
    assert [args[-1] for args in sent] == list(range(0, 12870, 64))


def test_dead_sweep_worker_fails_the_sweep(monkeypatch):
    # a worker killed mid-sweep must end the sweep with an error, not hang it
    def slow_analyze(tt):
        time.sleep(0.01)
        return real(tt)

    def hung(signum, frame):
        raise TimeoutError("the sweep hung after its worker died")

    real = families.analyze
    monkeypatch.setattr(families, "analyze", slow_analyze)
    monkeypatch.setattr(families, "BATCH", 8)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with contextlib.closing(families.sweep(candidate_pool(GF16, 1), (8,), 2)) as rows:
            next(rows)
            os.kill(multiprocessing.active_children()[0].pid, signal.SIGKILL)
            with pytest.raises(BrokenProcessPool):
                for _ in rows:
                    pass
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []


def test_spawned_workers_sweep_the_same_rows():
    # spawned workers start from a fresh import and share no memory with
    # this process: all they get is the pickled catalog and start offsets
    pool = candidate_pool(GF4, 2)
    want = list(families.sweep(pool, (8, 9), 1))
    previous = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("spawn", force=True)
    try:
        got = list(families.sweep(pool, (8, 9), 2))
    finally:
        multiprocessing.set_start_method(previous, force=True)
    assert got == want
    assert multiprocessing.active_children() == []


def test_interleaved_sweeps_keep_their_own_catalogs():
    # in-process sweeps share no module state, so two can be consumed in turns
    pool = candidate_pool(GF4, 2)
    minus, plus = (list(families.sweep(pool, (t,), 1)) for t in (8, 9))
    pairs = list(zip(families.sweep(pool, (8,), 1), families.sweep(pool, (9,), 1)))
    assert pairs == list(zip(minus, plus))
    assert {row[1] for row in minus} == {"PS-"} and {row[1] for row in plus} == {"PS+"}


def test_catalog_build_checks():
    catalog = enumerate_families(candidate_pool(GF2, 2), 2)
    item = next(catalog.walk())
    (tt,) = catalog.build([item])
    assert tt.hex() == build_bent(catalog[0]).hex()
    assert is_bent(tt)
    combo = item[1]
    with pytest.raises(ConstructionRejected, match="share nonzero vectors"):
        catalog.build([item, (1, (combo[0], combo[0]))])
    with pytest.raises(ConstructionRejected, match="need 2 members"):
        catalog.build([(0, combo[:1])])
    with pytest.raises(ConstructionRejected, match="need 3 members"):
        enumerate_families(catalog.pool, 3).build([item])
