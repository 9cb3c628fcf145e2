import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gf2_reference import derivative_rank, gf2_basis, translate_rank
from spreadbent.boolfun import TruthTable, anf, from_spread, mobius
from spreadbent.families import candidate_pool, enumerate_families
from spreadbent.gf2e import field
from spreadbent.lrs import build_partial_spread
from spreadbent.poly import poly
from spreadbent.rank2 import (
    BEYOND_DS,
    BEYOND_MM,
    WITHIN_MM_RANGE,
    classify,
    development_matrix,
    development_rank,
    ds_rank_bounds,
    mm_rank_bounds,
    rank_gf2,
)


def pack_rows(matrix):
    return np.packbits(np.asarray(matrix, dtype=np.uint8), axis=1)


def test_development_matrix_symmetry():
    tt = TruthTable.from_support(4, [5, 6, 10, 11, 13, 15])
    packed = development_matrix(tt)
    unpacked = np.unpackbits(packed, axis=1)[:, :16]
    assert np.array_equal(unpacked, unpacked.T)
    assert list(unpacked[0]) == [tt.bits >> k & 1 for k in range(16)]


def test_rank_gf2_matches_naive_random():
    rng = np.random.default_rng(21)
    for _ in range(50):
        matrix = rng.integers(0, 2, size=(32, 32), dtype=np.uint8)
        as_ints = [int("".join(map(str, row[::-1])), 2) if row.any() else 0 for row in matrix]
        assert rank_gf2(pack_rows(matrix), 32) == len(gf2_basis(as_ints))


def test_rank_gf2_identity_and_zero():
    eye = np.eye(24, dtype=np.uint8)
    assert rank_gf2(pack_rows(eye), 24) == 24
    assert rank_gf2(pack_rows(np.zeros((24, 24), dtype=np.uint8)), 24) == 0


def test_known_rank_n4():
    spec = field(1)
    fam = [poly(spec, (1, 0, 1)), poly(spec, (1, 1, 1))]
    tt = from_spread(build_partial_spread(fam, b=2), plus_type=False)
    assert development_rank(tt) == 6


def test_bounds_values():
    assert mm_rank_bounds(4) == (10, 30)
    assert ds_rank_bounds(4) == (30, 42)
    assert mm_rank_bounds(2) == (6, 6)
    assert ds_rank_bounds(2) == (6, 6)


def test_classification_thresholds():
    assert classify(44, 4) == BEYOND_DS
    assert classify(30, 4) == WITHIN_MM_RANGE
    assert classify(36, 4) == BEYOND_MM
    assert classify(42, 4) == BEYOND_MM
    assert classify(43, 4) == BEYOND_DS
    assert classify(6, 2) == WITHIN_MM_RANGE
    # at m=1 every bent function is x1*x2 plus affine terms, MM and DS at
    # once, with rank 4: nothing is beyond either family
    assert classify(4, 1) == WITHIN_MM_RANGE


@st.composite
def tables(draw, max_n=10):
    """A random table, or the table of a sum of at most six random
    monomials: random tables mostly rank at 2^n or a power of two just
    below it, and sparse ANFs reach the ranks in between."""
    n = draw(st.integers(0, max_n))
    if draw(st.booleans()):
        return TruthTable(n, draw(st.integers(0, (1 << (1 << n)) - 1)))
    monomials = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=6))
    return TruthTable(n, mobius(sum(1 << m for m in set(monomials)), n))


@settings(deadline=None, max_examples=100)
@given(tables())
def test_development_rank_matches_derivative_space(tt):
    """Two more rank algorithms: the dimension of the ANF's partial-derivative
    space, with no development matrix and no column elimination, and the
    rank of the translates f(x ⊕ a) as int rows."""
    rank = development_rank(tt)
    assert rank == derivative_rank(anf(tt).bits, tt.n) == translate_rank(tt.bits, tt.n)


@pytest.mark.parametrize("t", [16, 17], ids=["PS-", "PS+"])
def test_window1_ranks_at_n10_lie_in_the_desarguesian_window(t):
    """Window-1 families are Desarguesian (the paper's theorem), so at
    l=5, b=1 (n=10) family 0 and three seeded families of each type rank
    inside ds_rank_bounds(5), by both rank algorithms."""
    assert ds_rank_bounds(5) == (62, 102)
    catalog = enumerate_families(candidate_pool(field(5), 1), t)
    rng = random.Random(t)
    ids = [0] + [rng.randrange(catalog.size) for _ in range(3)]
    for tt in catalog.build([next(catalog.walk(k)) for k in ids]):
        rank = development_rank(tt)
        assert rank == derivative_rank(anf(tt).bits, tt.n)
        assert 62 <= rank <= 102
