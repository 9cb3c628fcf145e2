"""Candidate polynomial pools and the family catalog built from them.

A pool collects every feedback polynomial admitted at window size b over
GF(2^l), each carrying a provenance tag:

  b=1   the q linear maps x -> ax + x': all monic linears a + X with a != 0,
        plus X itself, whose kernels are the graphs E_a of the Desarguesian
        spread. Its one other member, E_inf = ker(1), is not in the pool.
  b=2   irreducible quadratics with nonzero constant term, squares of the
        admissible linears, products of two distinct admissible linears,
        and the window fillers 1 and X^2.
  b=3   over GF(2) only: the two irreducible cubics, the product of the
        admissible linear with the irreducible quadratic, and 1, X^3.

A family is a size-t subset whose members are pairwise coprime, so that
their kernels meet pairwise only in zero. One extra admissibility rule
shapes the catalog: a subset containing a product of two distinct linears
must also contain every degree-b irreducible of the pool.
Such products each conflict with two of the squares and with one another,
so the catalog admits them only as completions of the full irreducible
block. coprime_subsets exposes the unrestricted filter for exploration and
for the closed-form count cross-checks.

The catalog is never listed up front. Both it and coprime_subsets walk a
compatibility graph of the pool (one int bitmask of compatible later
members per member), branching on the lowest candidate: take it, or skip
it. Since the irreducibles come before the products in pool order, the
admissibility rule is a single clause of that walk: skipping an irreducible
clears every product. A memoized count of each (candidates, still-to-pick)
state gives the catalog size without listing it and prunes the walk to
branches that still hold a family. The walk takes before it skips, so
families come in lexicographic index order, and family_id k is the k-th of
them. Skipping the branches counted below k whole, a walk from k reaches
family k in |pool| steps: lookups walk from their id, and sweep workers
from the start offset sent with each batch.

The catalog's graph comes from the kernels themselves: two members are
compatible when their kernels meet only in zero, which is the
partial-spread condition, read off as the AND of the two kernel masks
(lrs.Subspace.mask) being exactly bit 0. coprime_subsets builds its graph
from poly_gcd instead, so the closed-form counts check coprimality without
the kernels.
A pool solves each member's kernel and builds the kernel graph once, and
every catalog over it shares both. Both layers are memoized for the life
of the process: candidate_pool returns one pool per argument set and
enumerate_families one catalog per (pool, t), held on the pool, so a run
of lookups solves each pool and counts each catalog once. A catalog
builds its functions from those kernels through boolfun.from_spread,
whose union-size check confirms once more that each family's kernels
meet pairwise only in zero. That is the hypothesis of Dillon's theorem
(1974): the union of 2^(m-1) m-dimensional subspaces of F_2^(2m) that
meet pairwise only in 0 is, without 0, the support of a bent function,
and with one more member and 0 kept, of a PS+ bent function. So every
table from_spread returns is bent, and no build runs a transform.
The l=4, b=2 catalogs (n=16) are refused: their count alone needs about
2 million memoized states.
build_bent is the from-scratch path for ad-hoc families: it solves their
kernels and sends them through that same from_spread, with no check of
its own. analyze reads a built function's fields from its table alone: by
the theorem max|W| = 2^m, so the nonlinearity is 2^(n-1) - 2^(m-1) with
no transform. sweep analyzes catalogs into CSV rows, in catalog order,
yielding each as its batch arrives: the one path that table1/table2 and
the acceptance goldens run. A batch is four ints, (l, b, t, start).
"""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
import sys
from dataclasses import dataclass

from .boolfun import MAX_ARITY, TruthTable, algebraic_degree, anf, from_spread
from .errors import SpreadbentError, check_int
from .gf2e import FieldSpec, fe_mul, field
from .lrs import Subspace, build_partial_spread
from .poly import (
    Poly,
    enumerate_irreducibles,
    format_poly,
    one,
    poly_gcd,
    poly_mul,
    x_power,
)
from .rank2 import classify, development_rank

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

    @functools.cached_property
    def kernels(self) -> tuple[Subspace, ...]:
        """The kernel of every member at window size b, solved once per pool."""
        return tuple(build_partial_spread(self.members, self.b))

    @functools.cached_property
    def _catalogs(self) -> dict[int, Catalog]:
        """enumerate_families' memo: this pool's catalog for each size t.
        It lives and dies with the pool, so hand-built pools leave no
        module-level state behind."""
        return {}

    @functools.cached_property
    def disjoint_after(self) -> tuple[int, ...]:
        """Bit j of entry i is set when j > i and the kernels of members i
        and j meet only in 0: the partial-spread condition, read off the
        kernels' masks. Computed once per pool and shared by every catalog
        over it."""
        masks = [k.mask for k in self.kernels]
        return tuple(
            sum(1 << j for j in range(i + 1, len(masks)) if masks[i] & masks[j] == 1)
            for i in range(len(masks))
        )


@dataclass(frozen=True)
class FamilySpec:
    """One catalog entry: an ordered coprime family plus its parameters."""

    l: int
    b: int
    polys: tuple[Poly, ...]
    spread_type: str  # "PS-" or "PS+"
    family_id: int

    def __post_init__(self):
        if self.spread_type not in ("PS-", "PS+"):
            raise SpreadbentError(f"spread type must be 'PS-' or 'PS+', got {self.spread_type!r}")

    @property
    def m(self) -> int:
        return self.l * self.b

    @property
    def n(self) -> int:
        return 2 * self.m


def candidate_pool(spec: FieldSpec, b: int) -> CandidatePool:
    """All admitted feedback polynomials at window size b, tagged by origin.

    Memoized for the life of the process: every spelling of one argument
    set (positional or keyword) returns the same pool object, so its
    kernels, kernel graph and catalogs are solved once. A refused argument
    set raises and caches nothing.
    """
    check_int("window size b", b, 1, 3)
    return _candidate_pool(spec, b)


@functools.cache
def _candidate_pool(spec: FieldSpec, b: int) -> CandidatePool:
    members: list[Poly] = []
    tags: list[str] = []

    def add(ps, tag):
        for p in sorted(ps, key=lambda f: f.coeffs):
            members.append(p)
            tags.append(tag)

    if b == 1:
        add(enumerate_irreducibles(spec, 1), TAG_IRREDUCIBLE)
        members.append(x_power(spec, 1))
        tags.append(TAG_XPOW)
    elif b == 2:
        linears = enumerate_irreducibles(spec, 1)
        add(enumerate_irreducibles(spec, 2), TAG_IRREDUCIBLE)
        add([poly_mul(f, f) for f in linears], TAG_SQUARE)
        add([poly_mul(f, g) for f, g in itertools.combinations(linears, 2)], TAG_PRODUCT)
        members += [one(spec), x_power(spec, 2)]
        tags += [TAG_ONE, TAG_XPOW]
    elif spec.l != 1:
        raise SpreadbentError("window size 3 is only supported over GF(2)")
    else:  # b == 3 over GF(2)
        linears = enumerate_irreducibles(spec, 1)
        quads = enumerate_irreducibles(spec, 2)
        add(enumerate_irreducibles(spec, 3), TAG_IRREDUCIBLE)
        add([poly_mul(f, g) for f in linears for g in quads], TAG_MIXED)
        members += [one(spec), x_power(spec, 3)]
        tags += [TAG_ONE, TAG_XPOW]
    return CandidatePool(spec=spec, b=b, members=tuple(members), tags=tuple(tags))


class _Cliques:
    """Size-t cliques of a compatibility graph, as sorted index tuples.

    A state (mask, r) stands for every way to pick r more indices from the
    set bits of mask. Bit j of after[i] is set when j > i and members i and
    j may share a family, so taking the lowest candidate i leaves
    mask & after[i]. Skipping an index in the bitmask gate also drops every
    index in gated.
    """

    def __init__(self, after, t, gate=0, gated=0):
        self.after = after
        self.t = t
        self.full = (1 << len(after)) - 1
        self.gate = gate
        self.keep = ~gated
        self._memo = {}

    def skip(self, mask, low):
        mask ^= low
        return mask & self.keep if low & self.gate else mask

    def count(self, mask, r):
        if r == 0:
            return 1
        if mask.bit_count() < r:
            return 0
        key = (mask, r)
        hit = self._memo.get(key)
        if hit is None:
            low = mask & -mask
            taken = mask & self.after[low.bit_length() - 1]
            hit = self.count(taken, r - 1) + self.count(self.skip(mask, low), r)
            self._memo[key] = hit
        return hit

    def walk(self, start=0):
        """Every index tuple from the start-th on: depth-first, take before
        skip, so lexicographic order. Branches counted before start are
        skipped whole, so the first tuple costs at most |pool| steps."""
        combo, stack = [], [(self.full, self.t)]
        while stack:
            mask, r = stack.pop()
            if self.count(mask, r) <= start:
                continue
            del combo[self.t - r:]
            while r:
                low = mask & -mask
                i = low.bit_length() - 1
                taken = mask & self.after[i]
                below = self.count(taken, r - 1)
                mask = self.skip(mask, low)
                if start < below:
                    stack.append((mask, r))
                    combo.append(i)
                    mask, r = taken, r - 1
                else:
                    start -= below
            yield tuple(combo)


def coprime_subsets(members: list[Poly], t: int):
    """Yield every size-t index tuple whose members are pairwise coprime,
    in lexicographic order.

    This is the unrestricted filter over the poly_gcd graph, the reference
    the closed-form counts are checked against; enumerate_families walks
    the kernel graph of its pool and layers the catalog admissibility rule
    on top.
    """
    after = [0] * len(members)
    for i, j in itertools.combinations(range(len(members)), 2):
        if poly_gcd(members[i], members[j]).coeffs == (1,):
            after[i] |= 1 << j
    yield from _Cliques(after, t).walk()


class Catalog:
    """The admissible size-t families of a pool, indexed by family_id.

    walk(k) yields (family_id, member indices) pairs from family k on,
    without building a FamilySpec or listing the catalog; family(*pair)
    builds the FamilySpec, and catalog[k] is the first pair's. size is the
    exact count and may exceed sys.maxsize, where len() cannot report it.
    build() turns a list of pairs into their bent functions from the pool's
    kernels. The package and its demos read only size, walk, family and
    build: __len__ and __getitem__ stay for the benchmark's len() and
    catalog[family_id] (perfbench/workloads.py:115,140, perfbench/spans.py:174).
    """

    def __init__(self, pool: CandidatePool, t: int):
        m = pool.spec.l * pool.b
        if t == 1 << (m - 1):
            self.spread_type = "PS-"
        elif t == (1 << (m - 1)) + 1:
            self.spread_type = "PS+"
        else:
            raise SpreadbentError(
                f"family size {t} matches neither spread type at m={m}"
            )
        if m == 8 and pool.b > 1:
            # at l=4, b=2 the count memoizes about 2.1 million states: with
            # this refusal bypassed, the PS- count took 3.8 s and 390 MB peak
            # RSS on a shared 2-vCPU Xeon (ROADMAP item 19 records the run)
            raise SpreadbentError(
                f"the l={pool.spec.l} b={pool.b} catalog (n=16) is refused: "
                "counting its families needs about 2 million memoized states"
            )
        self.pool = pool
        irreducibles = sum(1 << i for i, tag in enumerate(pool.tags) if tag == TAG_IRREDUCIBLE)
        products = sum(1 << i for i, tag in enumerate(pool.tags) if tag == TAG_PRODUCT)
        self._cliques = _Cliques(pool.disjoint_after, t, irreducibles, products)
        self.size = self._cliques.count(self._cliques.full, t)

    def walk(self, start=0):
        """(family_id, member indices) of each family from start >= 0 on."""
        check_int("start family id", start, 0)
        return enumerate(self._cliques.walk(start), start)

    def family(self, family_id: int, combo: tuple[int, ...]) -> FamilySpec:
        return FamilySpec(
            l=self.pool.spec.l,
            b=self.pool.b,
            polys=tuple(self.pool.members[i] for i in combo),
            spread_type=self.spread_type,
            family_id=family_id,
        )

    def build(self, items) -> list[TruthTable]:
        """The bent tables of (family_id, member indices) pairs, in the
        order of items, each built by from_spread from the pool's kernels."""
        kernels, plus_type = self.pool.kernels, self.spread_type == "PS+"
        return [from_spread([kernels[i] for i in combo], plus_type) for _, combo in items]

    def __len__(self):
        return self.size

    def __getitem__(self, k: int) -> FamilySpec:
        if not 0 <= k < self.size:
            raise IndexError(f"family id {k} out of range for {self.size} families")
        return self.family(*next(self.walk(k)))


def enumerate_families(pool: CandidatePool, t: int) -> Catalog:
    """The catalog: admissible size-t families in lexicographic index order.

    t must be the negative-type size 2^(m-1) or the positive-type size
    2^(m-1) + 1 for m = l*b. family_id is the zero-based position in the
    enumeration order and is stable across runs.

    Memoized on the pool: each (pool, t) gets one Catalog, kept as long as
    the pool is, so its count memo serves every later lookup. A refused
    size raises and caches nothing.
    """
    check_int("family size t", t, 1)
    catalog = pool._catalogs.get(t)
    if catalog is None:
        catalog = pool._catalogs[t] = Catalog(pool, t)
    return catalog


def nonzero_constant_members(pool: CandidatePool) -> list[Poly]:
    """The degree-b members with nonzero constant term, i.e. the candidate
    set the closed-form family count is stated over."""
    return [
        p
        for p in pool.members
        if p.degree == pool.b and p.coeffs[0] != 0
    ]


def build_bent(family: FamilySpec) -> TruthTable:
    """The bent table of an ad-hoc family, from scratch: kernels solved by
    build_partial_spread, then checked and built by from_spread."""
    spread = build_partial_spread(list(family.polys), family.b)
    return from_spread(spread, family.spread_type == "PS+")


def analyze(tt: TruthTable) -> tuple:
    """The CSV analysis fields of a checked function: hex table, weight,
    degree, nonlinearity, development rank and classification.

    A table that cannot be bent, of odd arity or below 2 or of a weight
    other than 2^(n-1) -+ 2^(m-1), is refused. Any other must come from
    from_spread, so that it is bent by Dillon's theorem.
    """
    n, m, weight = tt.n, tt.n // 2, tt.weight()
    if n < 2 or n % 2 or abs(weight - (1 << (n - 1))) != 1 << (m - 1):
        raise SpreadbentError(f"no bent function of arity {n} has weight {weight}")
    degree, rank = algebraic_degree(anf(tt)), development_rank(tt)
    # a bent function has max|W| = 2^m, which fixes the nonlinearity
    # 2^(n-1) - max|W|/2
    return tt.hex(), weight, degree, (1 << (n - 1)) - (1 << (m - 1)), rank, classify(rank, m)


# Families per worker batch: about 0.1 s of work at n=8, so an early close
# waits little for the batches workers hold, while the IPC per batch stays
# small next to its work.
BATCH = 64


def _rows(l: int, b: int, t: int, start: int) -> list[list]:
    """The CSV rows of the BATCH families from family_id start on of the
    (l, b) pool's size-t catalog, looked up in the memos: a forked worker
    inherits them, and any other builds each pool once."""
    catalog = enumerate_families(candidate_pool(field(l), b), t)
    names = [format_poly(p) for p in catalog.pool.members]
    items = list(itertools.islice(catalog.walk(start), BATCH))
    return [
        [fid, catalog.spread_type, l, b, ";".join(names[i] for i in combo), *analyze(tt)]
        for (fid, combo), tt in zip(items, catalog.build(items))
    ]


def _batches(l: int, b: int, t: int, size: int, jobs: int):
    """_rows from every BATCH-th family_id of the size-family catalog (l, b,
    t), in catalog order: in this process for jobs=1, else over jobs worker
    processes, each batch sent as the four ints (l, b, t, start).

    At most 2*jobs batches are out at once: a new one goes out only as the
    caller takes the rows of the oldest, so a caller that stops reading (a
    stalled pipe) stops the workers instead of piling up their results.
    Closing the generator cancels the queued batches and waits for those a
    worker already holds. A worker that dies (kill -9, the OOM killer)
    breaks the pool: the next result raises BrokenProcessPool, instead of
    waiting forever for the dead worker's batch.
    """
    starts = range(0, size, BATCH)
    if jobs == 1:
        yield from (_rows(l, b, t, start) for start in starts)
        return
    from concurrent.futures import ProcessPoolExecutor  # deferred: 8 ms to import

    workers = ProcessPoolExecutor(jobs)
    try:
        out = collections.deque()
        for start in starts:
            out.append(workers.submit(_rows, l, b, t, start))
            if len(out) == 2 * jobs:
                yield out.popleft().result()
        while out:
            yield out.popleft().result()
    finally:
        workers.shutdown(cancel_futures=True)


def sweep(l: int, b: int, sizes, jobs: int):
    """Yield the CSV row (family_id, type, l, b, polys, then analyze's
    fields) of every function of the (l, b) pool's size-t catalog for each
    t in sizes, in catalog order; the rows are the same for every jobs >= 1.

    Each row is yielded as its batch arrives and none is kept, so a caller
    that writes each row out holds at most a few batches, whatever the
    catalog size. Progress goes to stderr. Close the generator to stop
    early: that ends the walk and stops any worker processes once their
    current batches finish. A jobs below 1 is refused at the first row
    asked for, before anything is printed or any worker starts.
    """
    check_int("jobs", jobs, 1)
    for t in sizes:
        size = enumerate_families(candidate_pool(field(l), b), t).size
        print(f"catalog l={l} b={b} t={t}: {size} families", file=sys.stderr)
        with contextlib.closing(_batches(l, b, t, size, jobs)) as batches:
            for done, row in enumerate(itertools.chain.from_iterable(batches), 1):
                yield row
                if done % 2000 == 0:
                    print(f"  analyzed {done}/{size}", file=sys.stderr)


def manifest_line(family: FamilySpec) -> str:
    polys = ";".join(format_poly(p) for p in family.polys)
    return (
        f"id={family.family_id}; l={family.l}; b={family.b}; "
        f"type={family.spread_type}; polys={polys}"
    )


def desarguesian_spread(m: int) -> list[Subspace]:
    """The 2^m + 1 graph subspaces E_a = {(x, ax)} plus E_inf = {(0, y)},
    flattened with the canonical bit convention (first coordinate low).
    E_a is spanned by (e_j, a*e_j) and E_inf by (0, e_j), e_j = alpha^j.
    n = 2m is at most boolfun's MAX_ARITY, as in the CLI: memory grows
    about 4x per step."""
    check_int("m", m, 2, MAX_ARITY // 2)
    spec, units = field(m), [1 << j for j in range(m)]
    graphs = [Subspace(tuple(e | fe_mul(spec, a, e) << m for e in units)) for a in range(spec.q)]
    return graphs + [Subspace(tuple(e << m for e in units))]


def verify_desarguesian_equivalence(m: int) -> bool:
    """Executable equivalence check for window size 1 over GF(2^m).

    The window-1 pool must hold one map a + X for each a in GF(q) (X
    itself for a = 0), and the kernel of each, solved once by the pool,
    must equal the graph subspace E_a as a set. Returns True only
    if both hold. Then every window-1 function, the indicator of a union of
    kernels, is the indicator of the union of the matching E_a.
    """
    spec = field(m)
    graphs = desarguesian_spread(m)
    pool = candidate_pool(spec, 1)
    # a + X has kernel E_a; X itself is the a = 0 case
    graph_of = [p.coeffs[0] for p in pool.members]
    if sorted(graph_of) != list(range(spec.q)):
        return False
    return all(k == graphs[a] for k, a in zip(pool.kernels, graph_of))
