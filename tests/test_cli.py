import csv
import hashlib
import io
import itertools
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest

import spreadbent
from spreadbent import boolfun, cli, families, lrs, rank2
from spreadbent.boolfun import TruthTable, algebraic_degree, anf, is_bent, mobius
from spreadbent.cli import main
from spreadbent.errors import ConstructionRejected, SpreadbentError
from spreadbent.families import (
    Catalog,
    FamilySpec,
    candidate_pool,
    desarguesian_spread,
    enumerate_families,
)
from spreadbent.gf2e import FieldSpec, field
from spreadbent.lrs import Subspace, build_matrix, kernel, sylvester_resultant_nonzero
from spreadbent.poly import (
    closed_form_family_count,
    enumerate_irreducibles,
    gauss_count,
    parse_poly,
    poly,
    x_power,
)
from spreadbent.rank2 import development_matrix, development_rank, ds_rank_bounds, mm_rank_bounds


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def forbidden(*args, **kwargs):
    raise AssertionError("this command must be refused before any work")


def forbid_builds(monkeypatch):
    """Make both build paths fail: the catalog's and the ad-hoc one."""
    monkeypatch.setattr(Catalog, "build", forbidden)
    for name in ("build_bent", "analyze"):
        monkeypatch.setattr(cli, name, forbidden)


@pytest.fixture
def guarded(monkeypatch):
    """Fail fast, instead of allocating, if a refused command starts work."""
    for name in ("candidate_pool", "enumerate_families"):
        monkeypatch.setattr(cli, name, forbidden)
    forbid_builds(monkeypatch)


def test_polys_listing(capsys):
    code, out, _ = run(capsys, "polys", "--l", "2", "--b", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# pool GF(2^2)/modulus=0x7 b=2: 14 members")
    assert len(lines) == 15
    assert "[1,2,1]  irreducible-deg-b" in lines


def test_polys_window1_counts(capsys):
    code, out, _ = run(capsys, "polys", "--l", "4", "--b", "1")
    assert code == 0
    assert len(out.strip().splitlines()) == 17  # header + 16 members
    code, out, _ = run(capsys, "polys", "--l", "1", "--b", "3")
    assert code == 0
    assert len(out.strip().splitlines()) == 6


def test_build_golden_by_polys(capsys):
    code, out, _ = run(
        capsys, "build", "--l", "1", "--b", "2", "--polys", "[1,0,1];[1,1,1]"
    )
    assert code == 0
    assert "tt_hex=0635" in out
    assert "degree=2" in out
    assert "bent=true" in out
    assert "anf=x1*x3 + x2*x3 + x2*x4" in out


def test_build_golden_plus_type(capsys):
    code, out, _ = run(
        capsys, "build", "--l", "1", "--b", "2", "--type", "ps+",
        "--polys", "[1,0,1];[1,1,1];[0,0,1]",
    )
    assert code == 0
    assert "tt_hex=f635" in out
    assert "weight=10" in out


@pytest.mark.parametrize("spread_type, tt_hex, normal_form", [
    ("ps-", "1", "x1*x2"),
    ("ps+", "d", "x1*x2 + x1 + 1"),
])
def test_build_half_arity_one_is_within_mm_range(capsys, spread_type, tt_hex, normal_form):
    # n=2: x1*x2 is MM and one line of the Desarguesian spread of GF(2)^2
    code, out, _ = run(capsys, "build", "--l", "1", "--b", "1", "--type", spread_type,
                       "--family-id", "0")
    assert code == 0
    assert out.splitlines()[1:] == [
        f"tt_hex={tt_hex}", f"weight={int(tt_hex, 16).bit_count()}", "degree=2",
        "nonlinearity=1", "bent=true", f"anf={normal_form}", "rank=4",
        "classification=within-MM-range",
    ]


def test_build_by_family_id_matches_manifest(capsys):
    code, out, _ = run(capsys, "build", "--l", "1", "--b", "2", "--family-id", "0")
    assert code == 0
    assert out.startswith("id=0; l=1; b=2; type=PS-; polys=")


@pytest.mark.parametrize("l, b, polys, code, err", [
    pytest.param(1, 2, "[1,0,1];[1,0,1]", 3, "spread members 0 and 1 share nonzero vectors",
                 id="gcd"),
    pytest.param(1, 2, "[1,0,1]", 3, "need 2 members for this type at n=4, got 1",
                 id="member-count"),
    pytest.param(1, 2, "[];[]", 3, "the zero polynomial defines no recurrence",
                 id="gcd-of-zeros"),
    pytest.param(1, 2, "[];[1]", 3, "the zero polynomial defines no recurrence", id="zero-poly"),
    pytest.param(1, 2, "[1];[1,1]", 3, "spread members 0 and 1 share nonzero vectors",
                 id="short-windows-overlap"),
    pytest.param(1, 2, "[0,1];[0,1]", 3, "spread members 0 and 1 share nonzero vectors",
                 id="two-short-windows-share-x"),
    pytest.param(3, 1, "[1,1];[2,1];[3,1];[3,1]", 3,
                 "spread members 2 and 3 share nonzero vectors", id="names-members-2-and-3"),
    pytest.param(1, 2, "[1,2];[1,1,1]", 2,
                 "coefficient out of range for FieldSpec(l=1, modulus=3): [1, 2]",
                 id="coefficient-range"),
    pytest.param(1, 2, "[1,x];[1,1,1]", 2, "cannot parse polynomial '[1,x]'", id="not-integer"),
    pytest.param(1, 2, "[1,1];[x]", 2, "cannot parse polynomial '[x]'", id="no-coefficient"),
    pytest.param(1, 2, "[1,,1];[1,1]", 2, "cannot parse polynomial '[1,,1]'",
                 id="empty-coefficient"),
    pytest.param(1, 2, "[1,1,0,1];[1,0,1]", 2, "degree 3 exceeds window size b=2",
                 id="degree-above-window"),
])
def test_build_by_polys_exit_codes(capsys, l, b, polys, code, err):
    # 3: the family is rejected; 2: the input is outside what is supported
    argv = ("build", "--l", str(l), "--b", str(b), "--polys", polys)
    assert run(capsys, *argv) == (code, "", f"error: {err}\n")


def _without_field(call, *args):
    # the refusal comes before field() builds any table
    with mock.patch.object(families, "field", forbidden):
        return call(*args)


# Every reachable library site that refuses its input, with its message.
# (gf2e.field's "no irreducible of degree l found" cannot be reached.)
INPUT_ERRORS = {
    "TruthTable": (lambda: TruthTable(2, 1 << 4), "expected an int of 4 bits for n=2"),
    "TruthTable.negative-arity": (lambda: TruthTable(-1, 0),
                                  "arity n must be an int in [0, 16], got -1"),
    "TruthTable.bool-arity": (lambda: TruthTable(True, 1),
                              "arity n must be an int in [0, 16], got True"),
    "TruthTable.from_hex": (lambda: TruthTable.from_hex(4, "06"), "expected 4 hex digits for n=4"),
    "TruthTable.from_hex.negative-arity": (lambda: TruthTable.from_hex(-1, "0"),
                                           "arity n must be an int in [0, 16], got -1"),
    # refused before a 2^n-bit int is built: 2^40 bits for mobius(0, 40)
    "TruthTable.n17": (lambda: TruthTable(17, 0), "arity n must be an int in [0, 16], got 17"),
    "TruthTable.from_support.n17": (lambda: TruthTable.from_support(17, []),
                                    "arity n must be an int in [0, 16], got 17"),
    "TruthTable.from_hex.n17": (lambda: TruthTable.from_hex(17, "0"),
                                "arity n must be an int in [0, 16], got 17"),
    "mobius.n17": (lambda: mobius(0, 17), "arity n must be an int in [0, 16], got 17"),
    "TruthTable.from_support": (lambda: TruthTable.from_support(4, [-1]),
                                "expected a support of int indices in [0, 2^4), got -1"),
    # refused before a 10^12-bit int is built
    "TruthTable.from_support.huge-index": (
        lambda: TruthTable.from_support(2, [10**12]),
        "expected a support of int indices in [0, 2^2), got 1000000000000"),
    # True == 1 and 1.0 == 1, so each would pass for the int it equals
    "TruthTable.bool-bits": (lambda: TruthTable(2, True), "expected an int of 4 bits for n=2"),
    "TruthTable.from_support.bool-index": (
        lambda: TruthTable.from_support(2, [True]),
        "expected a support of int indices in [0, 2^2), got True"),
    "TruthTable.from_support.float-index": (
        lambda: TruthTable.from_support(2, [1.0]),
        "expected a support of int indices in [0, 2^2), got 1.0"),
    # a Subspace checks its basis, so no spread member can hold -1 or 16;
    # its arity is read off the basis, 2*len(basis)
    "Subspace.vector-list": (lambda: Subspace((0, 1, 2, -1)),
                             "expected 4 independent ints in [0, 2^8), got (0, 1, 2, -1)"),
    "Subspace.negative-basis-vector": (lambda: Subspace((1, -2)),
                                       "expected 2 independent ints in [0, 2^4), got (1, -2)"),
    "Subspace.vector-too-large": (lambda: Subspace((1, 16)),
                                  "expected 2 independent ints in [0, 2^4), got (1, 16)"),
    "Subspace.dependent": (lambda: Subspace((3, 5, 6)),
                           "expected 3 independent ints in [0, 2^6), got (3, 5, 6)"),
    "Subspace.empty-basis": (lambda: Subspace(()), "expected a non-empty tuple of ints, got ()"),
    "Subspace.list-basis": (lambda: Subspace([1, 2]),
                            "expected a non-empty tuple of ints, got [1, 2]"),
    "Subspace.bool-basis": (lambda: Subspace((True,)),
                            "expected 1 independent ints in [0, 2^2), got (True,)"),
    # kernel's rows pass the Subspace basis test at n = 2*len(rows)
    "kernel.wide-row": (lambda: kernel((5,)), "expected 1 independent ints in [0, 2^2), got (5,)"),
    "kernel.bool-row": (lambda: kernel((True, 2)),
                        "expected 2 independent ints in [0, 2^4), got (True, 2)"),
    "kernel.dependent-rows": (lambda: kernel((1, 1)),
                              "expected 2 independent ints in [0, 2^4), got (1, 1)"),
    "FieldSpec": (lambda: FieldSpec(2, 0b101), "modulus 0x5 does not define a field of degree 2"),
    # a modulus of any other degree than l, or not an int, is refused
    # before the tables are built
    **{
        f"FieldSpec.modulus-{name}": (
            lambda l=l, modulus=modulus: FieldSpec(l, modulus),
            f"modulus {modulus!r} is not a polynomial of degree {l}",
        )
        for name, l, modulus in (
            ("negative", 2, -7), ("constant", 1, 1), ("zero", 2, 0), ("degree-below-l", 2, 0b11),
            ("degree-above-l", 2, 0b1011), ("degree-above-l3", 3, 0b10011), ("float", 2, 7.0),
        )
    },
    "field": (lambda: field(0), "extension degree l must be an int in [1, 16], got 0"),
    "field.above-16": (lambda: field(17), "extension degree l must be an int in [1, 16], got 17"),
    "field.float": (lambda: field(2.0), "extension degree l must be an int in [1, 16], got 2.0"),
    "field.bool": (lambda: field(True), "extension degree l must be an int in [1, 16], got True"),
    "FieldSpec.above-16": (lambda: FieldSpec(17, 0x2000b),
                           "extension degree l must be an int in [1, 16], got 17"),
    "FieldSpec.float-degree": (lambda: FieldSpec(2.0, 7),
                               "extension degree l must be an int in [1, 16], got 2.0"),
    "FamilySpec.spread-type": (lambda: FamilySpec(1, 2, (), "XX", -1),
                               "spread type must be 'PS-' or 'PS+', got 'XX'"),
    # the memos key on b and t, where 2.0 == 2 and True == 1
    "candidate_pool.float-b": (lambda: candidate_pool(field(2), 2.0),
                               "window size b must be an int in [1, 3], got 2.0"),
    "candidate_pool.bool-b": (lambda: candidate_pool(field(4), True),
                              "window size b must be an int in [1, 3], got True"),
    "candidate_pool.b-above-3": (lambda: candidate_pool(field(1), 4),
                                 "window size b must be an int in [1, 3], got 4"),
    "enumerate_families.float-t": (
        lambda: enumerate_families(candidate_pool(field(1), 2), 2.0),
        "family size t must be an int >= 1, got 2.0"),
    "enumerate_families.bool-t": (
        lambda: enumerate_families(candidate_pool(field(1), 1), True),
        "family size t must be an int >= 1, got True"),
    "Catalog.walk.negative-start": (
        lambda: enumerate_families(candidate_pool(field(1), 2), 2).walk(-1),
        "start family id must be an int >= 0, got -1"),
    "Catalog.walk.float-start": (
        lambda: enumerate_families(candidate_pool(field(2), 1), 2).walk(2.5),
        "start family id must be an int >= 0, got 2.5"),
    "sweep.zero-jobs": (lambda: next(families.sweep(1, 2, (2,), 0)),
                        "jobs must be an int >= 1, got 0"),
    "build_matrix.float-b": (lambda: build_matrix(poly(field(2), (1, 1)), 2.0),
                             "window size b must be an int >= 1, got 2.0"),
    "sylvester_resultant_nonzero.float-b": (
        lambda: sylvester_resultant_nonzero(poly(field(2), (1, 0, 1)), poly(field(2), (1, 1)), 3.0),
        "window size b must be an int >= 1, got 3.0"),
    # as in poly_gcd: two fields' bands have rows of different widths
    "sylvester_resultant_nonzero.mixed-fields": (
        lambda: sylvester_resultant_nonzero(poly(field(1), (1, 1)), poly(field(2), (1, 1)), 1),
        "FieldSpec(l=1, modulus=3) vs FieldSpec(l=2, modulus=7)"),
    "x_power.negative-k": (lambda: x_power(field(2), -1), "power k must be an int >= 0, got -1"),
    "poly": (lambda: poly(field(1), (1, 2)),
             "coefficient out of range for FieldSpec(l=1, modulus=3): [1, 2]"),
    # the _gf2_rows memo keys on the coefficients, where 1.0 == True == 1
    "poly.float-coefficient": (lambda: build_matrix(poly(field(2), (1.0, 1)), 1),
                               "coefficient out of range for FieldSpec(l=2, modulus=7): [1.0, 1]"),
    "poly.bool-coefficient": (lambda: build_matrix(poly(field(2), (True, 1)), 1),
                              "coefficient out of range for FieldSpec(l=2, modulus=7): [True, 1]"),
    "closed_form_family_count.bool-b": (lambda: closed_form_family_count(field(1), True),
                                        "closed form exists only for b in {1, 2}, got True"),
    "parse_poly": (lambda: parse_poly(field(1), "[1,,1]"), "cannot parse polynomial '[1,,1]'"),
    "gauss_count": (lambda: gauss_count(field(1), 0), "degree k must be an int >= 1, got 0"),
    "gauss_count.float-k": (lambda: gauss_count(field(2), 2.0),
                            "degree k must be an int >= 1, got 2.0"),
    "enumerate_irreducibles": (lambda: enumerate_irreducibles(field(1), 0),
                               "degree must be an int >= 1, got 0"),
    "enumerate_irreducibles.float-degree": (lambda: enumerate_irreducibles(field(2), 2.0),
                                            "degree must be an int >= 1, got 2.0"),
    "desarguesian_spread": (lambda: desarguesian_spread(1), "m must be an int in [2, 8], got 1"),
    "desarguesian_spread.float-m": (lambda: desarguesian_spread(2.0),
                                    "m must be an int in [2, 8], got 2.0"),
    "desarguesian_spread.above-8": (lambda: _without_field(desarguesian_spread, 9),
                                    "m must be an int in [2, 8], got 9"),
    # refused before numpy is asked for the 512 MiB packed 2^16 x 2^16 matrix
    "development_matrix.n16": (lambda: development_matrix(TruthTable(16, 0)),
                               "development matrix arity n must be an int in [0, 14], got 16"),
    "mm_rank_bounds": (lambda: mm_rank_bounds(1), "m must be an int >= 2, got 1"),
    "mm_rank_bounds.float-m": (lambda: mm_rank_bounds(2.5), "m must be an int >= 2, got 2.5"),
    "ds_rank_bounds": (lambda: ds_rank_bounds(1), "m must be an int >= 2, got 1"),
    "cli._resolve_jobs": (lambda: cli._resolve_jobs(-1), "--jobs must be an int >= 0, got -1"),
}

# The int call that fills the memos a refused site could read, for every
# site with a memo on its path or a value an int compares equal to.
WARM_UPS = {
    "TruthTable.bool-arity": lambda: TruthTable(1, 1),
    "field.float": lambda: field(2),
    "field.bool": lambda: field(1),
    "FieldSpec.float-degree": lambda: FieldSpec(2, 7),
    "candidate_pool.float-b": lambda: candidate_pool(field(2), 2),
    "candidate_pool.bool-b": lambda: candidate_pool(field(4), 1),
    "enumerate_families.float-t": lambda: enumerate_families(candidate_pool(field(1), 2), 2),
    "enumerate_families.bool-t": lambda: enumerate_families(candidate_pool(field(1), 1), 1),
    "Catalog.walk.float-start": lambda: next(
        enumerate_families(candidate_pool(field(2), 1), 2).walk(2)),
    "sweep.zero-jobs": lambda: next(families.sweep(1, 2, (2,), 1)),
    "build_matrix.float-b": lambda: build_matrix(poly(field(2), (1, 1)), 2),
    "sylvester_resultant_nonzero.float-b": lambda: sylvester_resultant_nonzero(
        poly(field(2), (1, 0, 1)), poly(field(2), (1, 1)), 3),
    "x_power.negative-k": lambda: x_power(field(2), 1),
    "gauss_count.float-k": lambda: gauss_count(field(2), 2),
    "enumerate_irreducibles.float-degree": lambda: enumerate_irreducibles(field(2), 2),
    "desarguesian_spread.float-m": lambda: desarguesian_spread(2),
    "poly.float-coefficient": lambda: build_matrix(poly(field(2), (1, 1)), 1),
    "poly.bool-coefficient": lambda: build_matrix(poly(field(2), (1, 1)), 1),
    "mm_rank_bounds.float-m": lambda: mm_rank_bounds(2),
}


@pytest.mark.parametrize("site", INPUT_ERRORS)
def test_library_input_errors_are_spreadbent_errors(site):
    # exactly SpreadbentError (exit 2), never a plain ValueError or a rejection
    call, message = INPUT_ERRORS[site]
    with pytest.raises(SpreadbentError, match=f"^{re.escape(message)}$") as caught:
        call()
    assert type(caught.value) is SpreadbentError


@pytest.mark.parametrize("site", WARM_UPS)
def test_refusals_do_not_depend_on_the_memos(capsys, site):
    # the same refusal after the int call has filled every memo on its path
    WARM_UPS[site]()
    capsys.readouterr()
    call, message = INPUT_ERRORS[site]
    with pytest.raises(SpreadbentError, match=f"^{re.escape(message)}$") as caught:
        call()
    assert type(caught.value) is SpreadbentError
    # sweep refuses before its catalog line, and so before any worker
    assert capsys.readouterr() == ("", "")


def test_non_int_sizes_leave_the_memos_to_the_int_calls(capsys):
    # a refused 2.0 or True is never cached, so it cannot stand in for the
    # int 2 or 1 that compares and hashes equal to it
    for call in (lambda: candidate_pool(field(2), 2.0), lambda: candidate_pool(field(4), True)):
        with pytest.raises(SpreadbentError, match="must be an int"):
            call()
    assert type(candidate_pool(field(2), 2).b) is int
    code, out, _ = run(capsys, "build", "--l", "2", "--b", "2", "--family-id", "5")
    assert code == 0 and out.startswith("id=5; l=2; b=2; type=PS-; ")
    code, out, _ = run(capsys, "build", "--l", "4", "--b", "1", "--family-id", "0")
    assert code == 0 and out.startswith("id=0; l=4; b=1; type=PS-; ")
    pool = candidate_pool(field(4), 1)
    wanted = list(itertools.islice(enumerate_families(pool, 8).walk(5), 3))
    fresh = families.CandidatePool(pool.spec, pool.b, pool.members, pool.tags)
    with pytest.raises(SpreadbentError, match="must be an int"):
        enumerate_families(fresh, 8.0)
    assert list(itertools.islice(enumerate_families(fresh, 8).walk(5), 3)) == wanted


def test_build_family_id_out_of_range(capsys):
    assert run(capsys, "build", "--l", "1", "--b", "2", "--family-id", "99") == (
        2, "", "error: family id 99 out of range: the l=1 b=2 PS- catalog has 6 families\n")


def test_build_family_id_l3_b2(capsys):
    # the catalog has 437997 families; the lookup must not list them
    code, out, _ = run(capsys, "build", "--l", "3", "--b", "2", "--family-id", "0")
    assert code == 0
    assert "bent=true" in out
    assert "rank=308" in out


def test_build_family_id_beyond_huge_catalog(capsys, monkeypatch):
    # C(128, 64) exceeds sys.maxsize, so the range check cannot use len()
    monkeypatch.setattr(Catalog, "build", forbidden)
    size = math.comb(128, 64)
    code, out, err = run(capsys, "build", "--l", "7", "--b", "1", "--family-id", str(size))
    assert code == 2
    assert out == ""
    assert f"out of range: the l=7 b=1 PS- catalog has {size} families" in err


@pytest.mark.parametrize("argv", [
    ("--l", "8", "--b", "1", "--family-id", "0"),
    ("--l", "4", "--b", "2", "--family-id", "0"),
    ("--l", "8", "--b", "1", "--polys", "[1,1];[2,1]"),
])
def test_n16_builds_refused(capsys, guarded, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, "build", *argv)
    assert code == 2
    assert out == ""
    assert "n = 16" in err
    assert time.perf_counter() - start < 5


# Every (l, b) with l*b <= 8, and the exit code of `build --family-id 0`.
BUILD_SHAPES = {
    **{(l, 1): 0 for l in range(1, 7)},
    (8, 1): 2,  # n=16
    (1, 2): 0, (2, 2): 0, (3, 2): 0,
    (4, 2): 2,  # n=16
    (1, 3): 0,
    (2, 3): 2,  # window 3 only over GF(2)
    **{(1, b): 2 for b in range(4, 9)},  # no pool beyond window 3
    (2, 4): 2,  # n=16
}


class LookupDone(Exception):
    pass


@pytest.mark.parametrize("plus", [False, True], ids=["ps-", "ps+"])
@pytest.mark.parametrize("l,b", sorted(BUILD_SHAPES) + [(7, 1)])
def test_every_build_shape_finishes_or_is_refused(capsys, monkeypatch, l, b, plus):
    argv = ["build", "--l", str(l), "--b", str(b),
            "--type", "ps+" if plus else "ps-", "--family-id", "0"]
    start = time.perf_counter()
    if (l, b) == (7, 1):
        # n=14: the lookup is checked, the build (about 4 s, mostly the rank's
        # 16384-column sweep) is not run; CI runs it and checks its rank and RSS
        def stop(catalog, items):
            (item,) = items
            raise LookupDone(catalog.family(*item))
        monkeypatch.setattr(Catalog, "build", stop)
        with pytest.raises(LookupDone) as done:
            main(argv)
        fs = done.value.args[0]
        assert fs.family_id == 0 and len(fs.polys) == 64 + plus
    else:
        if BUILD_SHAPES[l, b] == 2:
            forbid_builds(monkeypatch)
        code, out, err = run(capsys, *argv)
        assert code == BUILD_SHAPES[l, b], err
        if code == 0:
            assert "bent=true" in out
    assert time.perf_counter() - start < 10


def test_capacity_limit(capsys):
    code, _, err = run(capsys, "polys", "--l", "4", "--b", "3")
    assert code == 2
    assert "capacity" in err


@pytest.mark.parametrize("argv", [
    ("polys", "--l", "0", "--b", "1"),
    ("build", "--l", "1", "--b", "0", "--polys", "[1,1]"),
    # l*b = 9 here, yet the sign is refused, not the capacity
    ("build", "--l", "-3", "--b", "-3", "--family-id", "0"),
])
def test_nonpositive_shape_refused(capsys, guarded, argv):
    assert run(capsys, *argv) == (2, "", "error: --l and --b must be >= 1\n")


@pytest.mark.parametrize("module, bound, argv, message", [
    (rank2, "MAX_RANK_ARITY", ("build", "--l", "7", "--b", "1", "--family-id", "0"),
     "build at l*b = 7 (n = 14) is refused: its 2^14 x 2^14 development matrix is 32 MiB "
     "bit-packed, and its rank sweeps 16384 columns"),
    (boolfun, "MAX_ARITY", ("polys", "--l", "7", "--b", "1"),
     "l*b = 7 exceeds the supported capacity l*b <= 6 (function arity n = 2*l*b <= 12)"),
], ids=["rank2", "boolfun"])
def test_cli_reads_the_arity_bounds_of_their_owners(capsys, guarded, monkeypatch,
                                                     module, bound, argv, message):
    # cli restates neither bound: lowering the owner's moves the refusal
    monkeypatch.setattr(module, bound, 12)
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_unknown_arguments_exit_2(capsys):
    assert main(["table2", "--nope"]) == 2
    assert main([]) == 2
    capsys.readouterr()


def test_parser_is_built_once_and_keeps_no_state(capsys):
    cli._build_parser.cache_clear()
    good = ("build", "--l", "2", "--b", "2", "--family-id", "5")
    first = run(capsys, *good)
    assert first == run(capsys, *good)
    assert first[0] == 0
    bad = run(capsys, "build", "--l", "2", "--b", "2", "--family-id", "5", "--polys", "[1,1]")
    assert bad[0] == 2 and bad[1] == ""
    assert run(capsys, *good) == first
    assert cli._build_parser.cache_info().misses == 1


def no_rows():
    """An empty sweep: a generator, as families.sweep returns."""
    yield from ()


def test_table1_pool(capsys, monkeypatch):
    # the catalog table1 hands the sweep, by name, without running it
    calls = []

    def capture(l, b, sizes, jobs):
        calls.append((l, b, sizes))
        return no_rows()

    monkeypatch.setattr(cli, "sweep", capture)
    assert run(capsys, "table1", "--jobs", "1")[0] == 0
    assert calls == [(4, 1, (8,))]
    assert len(candidate_pool(field(4), 1).members) == 16


def test_table2_refuses_include_e_infinity(capsys, guarded):
    # no subcommand takes the flag: the window-1 pool is the q maps a + X
    for argv in (
        ("polys", "--l", "4", "--b", "1"),
        ("build", "--l", "4", "--b", "1", "--family-id", "0"),
        ("table1",),
        ("table2",),
    ):
        code, out, err = run(capsys, *argv, "--include-e-infinity")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --include-e-infinity" in err


def test_e_infinity_is_an_ad_hoc_member(capsys):
    # E_inf = ker(1) joins a family through --polys, as the member [1]
    code, out, _ = run(capsys, "build", "--l", "2", "--b", "1", "--polys", "[1];[1,1]")
    assert code == 0
    assert "tt_hex=0ca9" in out.splitlines()


def test_table2_histogram(capsys):
    code, out, _ = run(capsys, "table2")
    assert code == 0
    assert "PS- rank distribution (l=2, b=2, n=8)" in out
    for line in ("rank 36: 20", "rank 40: 24", "rank 42: 10", "rank 44: 60",
                 "rank 46: 60", "total: 174", "rank 40: 45", "rank 44: 19",
                 "total: 64"):
        assert line in out


def test_table2_csv_deterministic_across_jobs(capsys):
    code1, out1, _ = run(capsys, "table2", "--format", "csv", "--jobs", "1")
    code2, out2, _ = run(capsys, "table2", "--format", "csv", "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2
    rows = list(csv.DictReader(io.StringIO(out1)))
    assert len(rows) == 174 + 64
    assert [r["type"] for r in rows[:174]] == ["PS-"] * 174


def test_commands_read_no_catalog_dunder(capsys, monkeypatch):
    # Catalog's len() and indexing stay for the benchmark only (forbidding
    # __getitem__ also forbids iterating by index): verify, build --family-id
    # for every (l, b, type) the build-catalog deck draws, and the table2
    # sweep read size, walk, family and build
    shapes = [(l, b, spread_type) for l, b in ((4, 1), (2, 2), (3, 1), (2, 1), (1, 2), (1, 3))
              for spread_type in ("ps-", "ps+")]
    sizes = {
        (l, b, spread_type): enumerate_families(
            candidate_pool(field(l), b), (1 << (l * b - 1)) + (spread_type == "ps+")
        ).size
        for l, b, spread_type in shapes
    }
    for dunder in ("__len__", "__getitem__"):
        monkeypatch.setattr(Catalog, dunder, forbidden)
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert [line.endswith(": PASS") for line in out.splitlines()] == [True] * 12
    for (l, b, spread_type), size in sizes.items():
        code, out, err = run(capsys, "build", "--l", str(l), "--b", str(b),
                             "--type", spread_type, "--family-id", str(size - 1))
        assert (code, err) == (0, "")
        assert out.startswith(f"id={size - 1}; l={l}; b={b}; type={spread_type.upper()}; ")
        assert "bent=true" in out.splitlines()
    code, out, _ = run(capsys, "table2", "--format", "csv", "--jobs", "1")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e5be3c8d1a1869a5ebc1e7739564755149c060ad772b9e6899bb9722eaab7cb7"
    )


def test_csv_records_reanalyze_consistently(capsys):
    _, out, _ = run(capsys, "table2", "--format", "csv", "--jobs", "1")
    rows = list(csv.DictReader(io.StringIO(out)))
    for row in rows[:5] + rows[-5:]:
        n = 2 * int(row["l"]) * int(row["b"])
        tt = TruthTable.from_hex(n, row["tt_hex"])
        assert is_bent(tt)
        assert tt.weight() == int(row["weight"])
        assert algebraic_degree(anf(tt)) == int(row["degree"])
        assert development_rank(tt) == int(row["rank"])


def test_negative_jobs_exit_2(capsys, guarded):
    code, out, err = run(capsys, "table2", "--jobs", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: --jobs must be an int >= 0, got -1\n"


def sweep_jobs(capsys, monkeypatch, *argv):
    """The jobs table2 hands the sweep, and its stderr, without running it."""
    calls = []
    monkeypatch.setattr(cli, "sweep", lambda l, b, sizes, jobs: calls.append(jobs) or no_rows())
    code, _, err = run(capsys, "table2", *argv)
    assert code == 0
    [jobs] = calls
    return jobs, err


def test_jobs_follow_the_affinity_mask(capsys, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert sweep_jobs(capsys, monkeypatch) == (3, "")
    assert sweep_jobs(capsys, monkeypatch, "--jobs", "0") == (3, "")
    assert sweep_jobs(capsys, monkeypatch, "--jobs", "2") == (2, "")
    assert sweep_jobs(capsys, monkeypatch, "--jobs", "3") == (3, "")
    jobs, err = sweep_jobs(capsys, monkeypatch, "--jobs", "100000")
    assert jobs == 3
    assert err == "note: --jobs 100000 lowered to the 3 usable CPUs\n"


def test_jobs_without_an_affinity_mask(capsys, monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert sweep_jobs(capsys, monkeypatch, "--jobs", "0") == (6, "")
    jobs, err = sweep_jobs(capsys, monkeypatch, "--jobs", "7")
    assert jobs == 6
    assert "lowered to the 6 usable CPUs" in err
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert sweep_jobs(capsys, monkeypatch, "--jobs", "0") == (1, "")


def build_argv(l, b, spread_type, family_id):
    return ["build", "--l", str(l), "--b", str(b), "--type", spread_type, "--family-id", str(family_id)]


def test_two_lookups_solve_each_kernel_once(capsys, monkeypatch):
    solved = []
    real = lrs.kernel
    monkeypatch.setattr(lrs, "kernel", lambda matrix: solved.append(matrix) or real(matrix))
    families._candidate_pool.cache_clear()
    first = run(capsys, *build_argv(2, 2, "ps-", 3))
    second = run(capsys, *build_argv(2, 2, "ps-", 150))
    assert first[0] == second[0] == 0
    assert len(solved) == len(candidate_pool(field(2), 2).members) == 14


# The (l, b, type) keys of the benchmark's build-catalog deck.
LOOKUP_KEYS = [
    (l, b, spread_type)
    for l, b in ((4, 1), (2, 2), (3, 1), (2, 1), (1, 2), (1, 3))
    for spread_type in ("ps-", "ps+")
]


def test_cold_and_warm_lookups_reply_the_same(capsys):
    lookups = []
    for k in range(3):  # ids 0, size // 2, size - 1, interleaved across shapes
        for l, b, spread_type in LOOKUP_KEYS:
            t = (1 << (l * b - 1)) + (spread_type == "ps+")
            size = enumerate_families(candidate_pool(field(l), b), t).size
            lookups.append(build_argv(l, b, spread_type, (0, size // 2, size - 1)[k]))
    cold = []
    for argv in lookups:
        families._candidate_pool.cache_clear()
        cold.append(run(capsys, *argv))
    # the second round finds every pool and catalog already in the memo
    warm = [run(capsys, *argv) for argv in lookups + lookups]
    assert warm == cold + cold
    assert all(code == 0 and err == "" for code, _, err in cold)


def test_out_file(tmp_path, capsys):
    target = tmp_path / "sweep.csv"
    code, out, err = run(capsys, "table2", "--format", "csv", "--out", str(target))
    assert code == 0
    assert out == ""
    assert f"wrote {target}" in err
    text = target.read_text()
    assert text.startswith("family_id,type,l,b,polys,tt_hex,")
    assert len(text.splitlines()) == 239
    assert text == run(capsys, "table2", "--format", "csv")[1]
    assert list(tmp_path.iterdir()) == [target]


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_is_refused_before_any_work(tmp_path, capsys, guarded, where):
    target = tmp_path / "missing" / "x.csv" if where == "missing-directory" else tmp_path
    reason = "No such file or directory" if where == "missing-directory" else "not a regular file"
    code, out, err = run(capsys, "table2", "--format", "csv", "--out", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {target}: {reason}\n"


def fail_partway(monkeypatch, exc):
    """Make the 50th analysis of the sweep raise exc, after some rows are written."""
    calls = []

    def analyze(*fields):
        calls.append(None)
        if len(calls) == 50:
            raise exc
        return real(*fields)

    real = families.analyze
    monkeypatch.setattr(families, "analyze", analyze)


def test_failed_sweep_leaves_out_file_untouched(tmp_path, capsys, monkeypatch):
    target = tmp_path / "sweep.csv"
    target.write_text("old\n")
    argv = ["table2", "--format", "csv", "--jobs", "1", "--out", str(target)]
    fail_partway(monkeypatch, ConstructionRejected("family 49 rejected"))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.endswith("error: family 49 rejected\n")
    fail_partway(monkeypatch, KeyboardInterrupt())
    with pytest.raises(KeyboardInterrupt):
        main(argv)
    assert target.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [target]


class ClosedAfterHeader(io.StringIO):
    """A stdout whose reader goes away once it has read the CSV header."""

    def write(self, text):
        if self.tell():
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


def test_closed_stdout_stops_the_sweep(capsys, monkeypatch):
    stdout = ClosedAfterHeader()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["table2", "--format", "csv", "--jobs", "2"]) == 141
    assert multiprocessing.active_children() == []
    assert stdout.getvalue() == ",".join(cli.CSV_HEADER) + "\n"
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "t=9" not in err  # stopped inside the first catalog


class KillsAWorkerOnTheFirstRow(io.StringIO):
    """A stdout that SIGKILLs one sweep worker when the first CSV row arrives."""

    killed = False

    def write(self, text):
        if self.tell() and not self.killed:
            self.killed = True
            os.kill(multiprocessing.active_children()[0].pid, signal.SIGKILL)
        return super().write(text)


def test_dead_worker_exits_1_with_one_error_line(capsys, monkeypatch):
    def slow_analyze(tt):
        time.sleep(0.01)
        return real(tt)

    real = families.analyze
    monkeypatch.setattr(families, "analyze", slow_analyze)
    monkeypatch.setattr(families, "BATCH", 8)
    monkeypatch.setattr(sys, "stdout", KillsAWorkerOnTheFirstRow())
    assert main(["table2", "--format", "csv", "--jobs", "2"]) == 1
    assert multiprocessing.active_children() == []
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("error:") == 1
    assert err.endswith("\nerror: a sweep worker died; the sweep stopped\n")


@pytest.mark.parametrize("l,b,largest", [(1, 3, 3), (2, 2, 9), (1, 2, 2), (2, 1, 3)])
def test_largest_coprime_family_matches_brute_force(l, b, largest):
    # the bound verify's half-size check rests on is reached by a family
    spec = field(l)
    assert cli._largest_coprime_family(spec, b) == largest
    members = [p for p in cli._nonzero_polys(spec, b) if p.degree == b and p.coeffs[0]]
    assert next(families.coprime_subsets(members, largest), None) is not None
    assert next(families.coprime_subsets(members, largest + 1), None) is None


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert out == (
        "field axioms (l=1..4 exhaustive): PASS\n"
        "golden 16-bit tables (n=4 tables 0635/f635 with matching anf): PASS\n"
        "coprimality triangle GF(2) deg<=3 (119 pairs agree): PASS\n"
        "coprimality triangle GF(4) deg<=2 (2010 pairs agree): PASS\n"
        "irreducible counts vs enumeration (q in {2,4}, degrees 1..4): PASS\n"
        "family count q=2 b=2 (closed form 1 == exhaustive 1): PASS\n"
        "family count q=4 b=2 (closed form 12 == exhaustive 12): PASS\n"
        "half-size coprime families (q in {2,4,8,16}, b=1..6: possible only at b=1 and b=2): PASS\n"
        "graph-subspace equivalence m=2 (all window-1 kernels and functions match at m=2): PASS\n"
        "graph-subspace equivalence m=4 (all window-1 kernels and functions match at m=4): PASS\n"
        "window-2 catalog (174 = 165+3+6 and 64 = 55+6+3, all supports distinct): PASS\n"
        "window-3 catalog (5 negative + 1 positive, all bent of degree 3): PASS\n"
    )


@pytest.mark.parametrize("wrong,law", [
    # one wrong entry: 2*1 reads 3 in GF(4), while 1*2 is still 2
    ({(2, 2, 1): 3}, "commutativity fails in GF(2^2)"),
    # a symmetric wrong pair: 2*3 and 3*2 read 1 in GF(8), where both
    # are 6, so the table stays commutative
    ({(3, 2, 3): 1, (3, 3, 2): 1}, "associativity fails in GF(2^3)"),
], ids=["commutativity", "associativity"])
def test_verify_fails_on_a_wrong_product(capsys, monkeypatch, wrong, law):
    # the field check reads every law off a table of cli.fe_mul's products
    real = cli.fe_mul
    monkeypatch.setattr(
        cli, "fe_mul", lambda spec, x, y: wrong.get((spec.l, x, y), real(spec, x, y))
    )
    code, out, _ = run(capsys, "verify")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == f"field axioms ({law}): FAIL"
    assert all(line.endswith(": PASS") for line in lines[1:])


def test_triangle_fails_when_one_gcd_flips(capsys, monkeypatch):
    # X + 1 against itself over GF(2): gcd X + 1, a singular stack and
    # overlapping kernels, until cli.poly_gcd answers 1 for that one pair
    real = cli.poly_gcd

    def flipped(f, g):
        if f.spec.l == 1 and f.coeffs == g.coeffs == (1, 1):
            return poly(f.spec, (1,))
        return real(f, g)

    monkeypatch.setattr(cli, "poly_gcd", flipped)
    line = "[1,1] vs [1,1]: gcd=1 is True, invertible False, disjoint kernels False"
    assert cli._check_triangle(field(1), 3) == (False, line)
    assert cli._check_triangle(field(2), 2) == (True, "2010 pairs agree")
    code, out, _ = run(capsys, "verify")
    assert code == 1
    lines = out.splitlines()
    assert lines[2] == f"coprimality triangle GF(2) deg<=3 ({line}): FAIL"
    assert all(other.endswith(": PASS") for other in lines[:2] + lines[3:])


def test_triangle_checks_every_scalar_multiple(capsys, monkeypatch):
    # Euclid and the mask ANDs run once per pair of monic forms, but every
    # multiple's band row space is compared with its form's: give the
    # non-monic 2X over GF(4) the rows of X + 1, and only a line that names
    # [0,2] can report it
    real = cli.build_matrix

    def planted(p, b):
        if p.spec.l == 2 and p.coeffs == (0, 2):
            return real(poly(p.spec, (1, 1)), b)
        return real(p, b)

    monkeypatch.setattr(cli, "build_matrix", planted)
    ok, line = cli._check_triangle(field(2), 2)
    assert not ok
    assert "[0,2] vs " in line or " vs [0,2]:" in line
    assert cli._check_triangle(field(1), 3) == (True, "119 pairs agree")
    code, out, _ = run(capsys, "verify")
    assert code == 1
    lines = out.splitlines()
    assert lines[3] == f"coprimality triangle GF(4) deg<=2 ({line}): FAIL"
    assert all(other.endswith(": PASS") for other in lines[:3] + lines[4:])


@pytest.mark.parametrize("l,maxdeg,forms", [(1, 3, 119), (2, 2, 230)])
def test_triangle_runs_one_gcd_per_pair_of_monic_forms(monkeypatch, l, maxdeg, forms):
    # 1 + 4 + 16 monic forms of degree <= 2 over GF(4): 231 pairs, less the
    # pair of constants; over GF(2) every nonzero polynomial is monic
    calls = []
    real = cli.poly_gcd

    def counted(f, g):
        calls.append((f, g))
        return real(f, g)

    monkeypatch.setattr(cli, "poly_gcd", counted)
    assert cli._check_triangle(field(l), maxdeg)[0]
    assert len(calls) == forms


@pytest.mark.parametrize("l,maxdeg,solves", [(1, 3, 25), (2, 2, 26)])
def test_triangle_solves_one_kernel_per_monic_form_and_window(monkeypatch, l, maxdeg, solves):
    # a form of degree d is solved at each window from max(d, 1) to maxdeg:
    # 3 + 2*3 + 4*2 + 8 over GF(2), 2 + 4*2 + 16 over GF(4)
    calls = []
    real = cli.kernel

    def counted(rows):
        calls.append(rows)
        return real(rows)

    monkeypatch.setattr(cli, "kernel", counted)
    assert cli._check_triangle(field(l), maxdeg)[0]
    assert len(calls) == solves


def test_triangle_catches_a_fault_on_a_whole_scalar_class(capsys, monkeypatch):
    # give every c*X over GF(4), the form X among them, the band rows of
    # c*(X + 1): each span equality still holds, and the pair of forms X
    # and X + 1 reports the fault
    real = cli.build_matrix

    def planted(p, b):
        if p.spec.l == 2 and len(p.coeffs) == 2 and p.coeffs[0] == 0:
            c = p.coeffs[1]
            return real(poly(p.spec, (c, c)), b)
        return real(p, b)

    monkeypatch.setattr(cli, "build_matrix", planted)
    line = "[0,1] vs [1,1]: gcd=1 is True, invertible False, disjoint kernels False"
    assert cli._check_triangle(field(2), 2) == (False, line)
    assert cli._check_triangle(field(1), 3) == (True, "119 pairs agree")
    code, out, _ = run(capsys, "verify")
    assert code == 1
    lines = out.splitlines()
    assert lines[3] == f"coprimality triangle GF(4) deg<=2 ({line}): FAIL"
    assert all(other.endswith(": PASS") for other in lines[:3] + lines[4:])


def assert_module_verifies(module):
    src = str(Path(spreadbent.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", module, "verify"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 12
    assert all(line.endswith(": PASS") for line in lines)


def test_python_m_spreadbent_verify():
    assert_module_verifies("spreadbent")


def test_python_m_spreadbent_cli_verify():
    assert_module_verifies("spreadbent.cli")
