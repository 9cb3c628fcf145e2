"""Candidate polynomial pools and the family catalog built from them.

A pool collects every feedback polynomial admitted at window size b over
GF(2^l), each carrying a provenance tag:

  b=1   the q linear maps x -> ax + x': all monic linears a + X with a != 0,
        plus X itself. The constant 1 (whose kernel is the complementary
        coordinate subspace) is available behind include_e_infinity.
  b=2   irreducible quadratics with nonzero constant term, squares of the
        admissible linears, products of two distinct admissible linears,
        and the window fillers 1 and X^2.
  b=3   over GF(2) only: the two irreducible cubics, the product of the
        admissible linear with the irreducible quadratic, and 1, X^3.

A family is a size-t subset whose members are pairwise coprime. One extra
admissibility rule shapes the catalog: a subset containing a product of two
distinct linears must also contain every degree-b irreducible of the pool.
Such products each conflict with two of the squares and with one another,
so the catalog admits them only as completions of the full irreducible
block. coprime_subsets exposes the unrestricted filter for exploration and
for the closed-form count cross-checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .boolfun import TruthTable, from_spread, is_bent
from .errors import BentCheckFailed, UnsupportedParameters
from .gf2e import FieldSpec, fe_mul, field
from .lrs import Subspace, build_matrix, build_partial_spread, gf2_basis, kernel
from .poly import (
    Poly,
    enumerate_irreducibles,
    format_poly,
    one,
    poly,
    poly_gcd,
    poly_mul,
    x_power,
)

TAG_IRREDUCIBLE = "irreducible-deg-b"
TAG_SQUARE = "square-of-linear"
TAG_PRODUCT = "product-of-linears"
TAG_MIXED = "product-mixed-degrees"
TAG_ONE = "constant-one"
TAG_XPOW = "x-power-b"


@dataclass(frozen=True)
class CandidatePool:
    spec: FieldSpec
    b: int
    members: tuple[Poly, ...]
    tags: tuple[str, ...]

    def indices_of(self, tag: str) -> tuple[int, ...]:
        return tuple(i for i, t in enumerate(self.tags) if t == tag)


@dataclass(frozen=True)
class FamilySpec:
    """One catalog entry: an ordered coprime family plus its parameters."""

    l: int
    b: int
    m: int
    n: int
    polys: tuple[Poly, ...]
    spread_type: str  # "PS-" or "PS+"
    family_id: int


def candidate_pool(spec: FieldSpec, b: int, include_e_infinity: bool = False) -> CandidatePool:
    """All admitted feedback polynomials at window size b, tagged by origin."""
    members: list[Poly] = []
    tags: list[str] = []

    def add(ps, tag):
        for p in sorted(ps, key=lambda f: f.coeffs):
            members.append(p)
            tags.append(tag)

    if b == 1:
        add(enumerate_irreducibles(spec, 1), TAG_IRREDUCIBLE)
        if include_e_infinity:
            members.append(one(spec))
            tags.append(TAG_ONE)
        members.append(x_power(spec, 1))
        tags.append(TAG_XPOW)
    elif b == 2:
        linears = enumerate_irreducibles(spec, 1)
        add(enumerate_irreducibles(spec, 2), TAG_IRREDUCIBLE)
        add([poly_mul(f, f) for f in linears], TAG_SQUARE)
        add([poly_mul(f, g) for f, g in itertools.combinations(linears, 2)], TAG_PRODUCT)
        members += [one(spec), x_power(spec, 2)]
        tags += [TAG_ONE, TAG_XPOW]
    elif b == 3:
        if spec.l != 1:
            raise UnsupportedParameters("window size 3 is only supported over GF(2)")
        linears = enumerate_irreducibles(spec, 1)
        quads = enumerate_irreducibles(spec, 2)
        add(enumerate_irreducibles(spec, 3), TAG_IRREDUCIBLE)
        add([poly_mul(f, g) for f in linears for g in quads], TAG_MIXED)
        members += [one(spec), x_power(spec, 3)]
        tags += [TAG_ONE, TAG_XPOW]
    else:
        raise UnsupportedParameters(f"no candidate pool for b={b}")
    return CandidatePool(spec=spec, b=b, members=tuple(members), tags=tuple(tags))


def coprime_subsets(members: list[Poly], t: int):
    """Yield every size-t index tuple whose members are pairwise coprime.

    This is the unrestricted filter; enumerate_families layers the catalog
    admissibility rule on top of it.
    """
    n = len(members)
    unit = one(members[0].spec) if members else None
    compat = [[False] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        compat[i][j] = compat[j][i] = poly_gcd(members[i], members[j]) == unit
    for combo in itertools.combinations(range(n), t):
        if all(compat[i][j] for i, j in itertools.combinations(combo, 2)):
            yield combo


def enumerate_families(pool: CandidatePool, t: int) -> list[FamilySpec]:
    """The catalog: admissible size-t families in lexicographic index order.

    t must be the negative-type size 2^(m-1) or the positive-type size
    2^(m-1) + 1 for m = l*b. family_id is the zero-based position in the
    enumeration order and is stable across runs.
    """
    m = pool.spec.l * pool.b
    if t == 1 << (m - 1):
        spread_type = "PS-"
    elif t == (1 << (m - 1)) + 1:
        spread_type = "PS+"
    else:
        raise UnsupportedParameters(
            f"family size {t} matches neither spread type at m={m}"
        )
    irr = set(pool.indices_of(TAG_IRREDUCIBLE))
    out = []
    for combo in coprime_subsets(list(pool.members), t):
        if any(pool.tags[i] == TAG_PRODUCT for i in combo) and not irr <= set(combo):
            continue
        out.append(
            FamilySpec(
                l=pool.spec.l,
                b=pool.b,
                m=m,
                n=2 * m,
                polys=tuple(pool.members[i] for i in combo),
                spread_type=spread_type,
                family_id=len(out),
            )
        )
    return out


def nonzero_constant_members(pool: CandidatePool) -> list[Poly]:
    """The degree-b members with nonzero constant term, i.e. the candidate
    set the closed-form family count is stated over."""
    return [
        p
        for p in pool.members
        if p.degree == pool.b and p.coeffs[0] != 0
    ]


def build_bent(family: FamilySpec) -> TruthTable:
    """Union-of-kernels function for the family; checked flat before return."""
    spread = build_partial_spread(list(family.polys), b=family.b)
    tt = from_spread(spread, plus_type=family.spread_type == "PS+")
    if not is_bent(tt):
        raise BentCheckFailed(f"family {family.family_id} produced a non-flat spectrum")
    return tt


def manifest_line(family: FamilySpec) -> str:
    polys = ";".join(format_poly(p) for p in family.polys)
    return (
        f"id={family.family_id}; l={family.l}; b={family.b}; "
        f"type={family.spread_type}; polys={polys}"
    )


def desarguesian_spread(m: int) -> list[Subspace]:
    """The 2^m + 1 graph subspaces E_a = {(x, ax)} plus E_inf = {(0, y)},
    flattened with the canonical bit convention (first coordinate low)."""
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    spec = field(m)
    out = []
    for a in range(spec.q):
        vectors = tuple(sorted(x | (fe_mul(spec, a, x) << m) for x in range(spec.q)))
        out.append(Subspace(n=2 * m, m=m, basis=gf2_basis(vectors), vectors=vectors))
    e_inf = tuple(y << m for y in range(spec.q))
    out.append(Subspace(n=2 * m, m=m, basis=gf2_basis(e_inf), vectors=e_inf))
    return out


def verify_desarguesian_equivalence(m: int) -> bool:
    """Executable equivalence check for window size 1 over GF(2^m).

    First, the kernel of every map a + X (and of X itself for a = 0) must
    equal the graph subspace E_a vector for vector. Second, every
    negative-type function built from the window-1 catalog must coincide
    with the indicator of the union of the matching E_a. Returns True only
    if both hold exhaustively.
    """
    spec = field(m)
    graphs = desarguesian_spread(m)
    for a in range(spec.q):
        f = poly(spec, (a, 1))
        if kernel(build_matrix(f, 1)).vectors != graphs[a].vectors:
            return False
    pool = candidate_pool(spec, 1)
    # a + X has kernel E_a; X itself is the a = 0 case
    graph_of = [p.coeffs[0] for p in pool.members]
    # each subspace as an int with bit v set for every (distinct) member v
    lrs_masks = [sum(1 << v for v in kernel(build_matrix(p, 1)).vectors) for p in pool.members]
    ds_masks = [sum(1 << v for v in graphs[a].vectors) for a in graph_of]
    t = 1 << (m - 1)
    for combo in itertools.combinations(range(len(pool.members)), t):
        lrs_union = ds_union = 0
        for i in combo:
            lrs_union |= lrs_masks[i]
            ds_union |= ds_masks[i]
        if lrs_union != ds_union:
            return False
    return True
