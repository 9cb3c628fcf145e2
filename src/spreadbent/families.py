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
them. Skipping whole the branches counted below k, a walk from k reaches
family k in |pool| steps: lookups walk from their id, and sweep workers
from the start offsets they are sent.

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
builds its functions from those kernels, many families per call
(bent_from_kernels): from_spread's union-size check confirms once more
that each family's kernels meet pairwise only in zero, and one stacked
Walsh product checks every spectrum of the batch flat. A sweep batch, a
whole verify catalog and a single lookup all go through that one call.
The l=4, b=2 catalogs (n=16) are refused: their count alone needs about
2 million memoized states.
build_bent is the from-scratch path for ad-hoc families: it solves their
kernels and sends them through that same call, with no check of its own.
analyze reads a checked function's fields, and sweep analyzes catalogs into
CSV rows, in catalog order, yielding each as its batch arrives: the one path
that build, table1/table2 and the acceptance goldens run.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
import sys
from dataclasses import dataclass

import numpy as np

from .boolfun import (
    TruthTable,
    algebraic_degree,
    anf,
    from_spread,
    is_flat,
    nonlinearity,
    walsh_spectra,
)
from .errors import ConstructionRejected, SpreadbentError
from .gf2e import FieldSpec, fe_mul, field
from .lrs import Subspace, build_matrix, build_partial_spread, kernel
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

    def indices_of(self, tag: str) -> tuple[int, ...]:
        return tuple(i for i, t in enumerate(self.tags) if t == tag)

    @functools.cached_property
    def kernels(self) -> tuple[Subspace, ...]:
        """The kernel of every member at window size b, solved once per pool."""
        return tuple(kernel(build_matrix(p, self.b)) for p in self.members)

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

    @property
    def m(self) -> int:
        return self.l * self.b

    @property
    def n(self) -> int:
        return 2 * self.m


def candidate_pool(spec: FieldSpec, b: int, include_e_infinity: bool = False) -> CandidatePool:
    """All admitted feedback polynomials at window size b, tagged by origin.

    Memoized for the life of the process: every spelling of one argument
    set (positional, keyword or defaulted include_e_infinity) returns the
    same pool object, so its kernels, kernel graph and catalogs are solved
    once. A refused argument set raises and caches nothing.
    """
    return _candidate_pool(spec, b, include_e_infinity)


@functools.cache
def _candidate_pool(spec: FieldSpec, b: int, include_e_infinity: bool) -> CandidatePool:
    if include_e_infinity and b != 1:
        raise SpreadbentError(
            f"include_e_infinity applies to window size b=1 only, got b={b}: "
            "the b=2 and b=3 pools always hold the constant 1"
        )
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
            raise SpreadbentError("window size 3 is only supported over GF(2)")
        linears = enumerate_irreducibles(spec, 1)
        quads = enumerate_irreducibles(spec, 2)
        add(enumerate_irreducibles(spec, 3), TAG_IRREDUCIBLE)
        add([poly_mul(f, g) for f in linears for g in quads], TAG_MIXED)
        members += [one(spec), x_power(spec, 3)]
        tags += [TAG_ONE, TAG_XPOW]
    else:
        raise SpreadbentError(f"no candidate pool for b={b}")
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
    without building a FamilySpec; catalog[k] is the first of them, and
    iteration walks from 0, so none lists the catalog. size is the exact
    count and may exceed sys.maxsize, where len() cannot report it. build()
    turns a list of pairs into their checked bent functions from the pool's
    kernels, in one batch.
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
            # at l=4, b=2 the count memoizes about 2.1 million states: the
            # PS- catalog took 5.5 s and 390 MB peak RSS on a 2-vCPU Xeon
            raise SpreadbentError(
                f"the l={pool.spec.l} b={pool.b} catalog (n=16) is refused: "
                "counting its families needs about 2 million memoized states"
            )
        self.pool = pool
        irreducibles = sum(1 << i for i in pool.indices_of(TAG_IRREDUCIBLE))
        products = sum(1 << i for i in pool.indices_of(TAG_PRODUCT))
        self._cliques = _Cliques(pool.disjoint_after, t, irreducibles, products)
        self.size = self._cliques.count(self._cliques.full, t)

    def walk(self, start=0):
        """(family_id, member indices) of each family from start >= 0 on."""
        return enumerate(self._cliques.walk(start), start)

    def family(self, family_id: int, combo: tuple[int, ...]) -> FamilySpec:
        return FamilySpec(
            l=self.pool.spec.l,
            b=self.pool.b,
            polys=tuple(self.pool.members[i] for i in combo),
            spread_type=self.spread_type,
            family_id=family_id,
        )

    def build(self, items) -> tuple[list[TruthTable], np.ndarray]:
        """The checked functions of (family_id, member indices) pairs, as
        bent_from_kernels returns them: the tables and the stacked
        spectra, in the order of items."""
        kernels = self.pool.kernels
        ids, spreads = [], []
        for family_id, combo in items:
            ids.append(family_id)
            spreads.append([kernels[i] for i in combo])
        return bent_from_kernels(spreads, self.spread_type, ids)

    def __len__(self):
        return self.size

    def __getitem__(self, k: int) -> FamilySpec:
        if not 0 <= k < self.size:
            raise IndexError(f"family id {k} out of range for {self.size} families")
        return self.family(*next(self.walk(k)))

    def __iter__(self):
        for family_id, combo in self.walk():
            yield self.family(family_id, combo)


def enumerate_families(pool: CandidatePool, t: int) -> Catalog:
    """The catalog: admissible size-t families in lexicographic index order.

    t must be the negative-type size 2^(m-1) or the positive-type size
    2^(m-1) + 1 for m = l*b. family_id is the zero-based position in the
    enumeration order and is stable across runs.

    Memoized on the pool: each (pool, t) gets one Catalog, kept as long as
    the pool is, so its count memo serves every later lookup. A refused
    size raises and caches nothing.
    """
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


def bent_from_kernels(
    spreads: list[list[Subspace]], spread_type: str, family_ids: list[int]
) -> tuple[list[TruthTable], np.ndarray]:
    """The checked constructor: one or more families' member kernels ->
    their bent tables and the k x 2^n array of their spectra.

    from_spread checks each family's member count for spread_type ("PS-"
    or "PS+"), every member's size and zero vector, and the size of the
    union, t*(2^m - 1) + 1 just when the members meet pairwise only in 0.
    One stacked Walsh transform then checks every spectrum flat; a
    rejection names the first non-flat family by its entry of family_ids.
    """
    plus_type = spread_type == "PS+"
    tables = [from_spread(spread, plus_type) for spread in spreads]
    spectra = walsh_spectra(tables)
    flat = is_flat(spectra)
    if not flat.all():
        raise ConstructionRejected(
            f"family {family_ids[int(flat.argmin())]} produced a non-flat spectrum"
        )
    return tables, spectra


def build_bent(family: FamilySpec) -> tuple[TruthTable, np.ndarray]:
    """The checked function of an ad-hoc family and its spectrum, from
    scratch: kernels solved by build_partial_spread, then checked and
    built by bent_from_kernels as a batch of one."""
    spread = build_partial_spread(list(family.polys), family.b)
    (tt,), (spectrum,) = bent_from_kernels([spread], family.spread_type, [family.family_id])
    return tt, spectrum


def analyze(tt: TruthTable, spectrum: np.ndarray) -> tuple:
    """The CSV analysis fields of a checked function: hex table, weight,
    degree, nonlinearity, development rank and classification."""
    degree, rank = algebraic_degree(anf(tt)), development_rank(tt)
    return tt.hex(), tt.weight(), degree, nonlinearity(spectrum), rank, classify(rank, tt.n // 2)


_WORKER_CATALOG: Catalog | None = None  # the catalog a sweep worker builds from
# Families per worker batch: about 0.1 s of work at n=8, so an early close
# waits little for the batches workers hold, while the IPC per batch stays
# small next to its work.
BATCH = 64


def _rows(catalog: Catalog, start: int) -> list[list]:
    """The CSV rows of the BATCH families from family_id start on, built
    as one batch."""
    pool = catalog.pool
    names = [format_poly(p) for p in pool.members]
    items = list(itertools.islice(catalog.walk(start), BATCH))
    return [
        [fid, catalog.spread_type, pool.spec.l, pool.b, ";".join(names[i] for i in combo),
         *analyze(tt, spectrum)]
        for (fid, combo), tt, spectrum in zip(items, *catalog.build(items))
    ]


def _init_worker(catalog):
    global _WORKER_CATALOG
    _WORKER_CATALOG = catalog


def _worker_rows(start):
    return _rows(_WORKER_CATALOG, start)


def _batches(catalog: Catalog, jobs: int):
    """_rows from every BATCH-th family_id of catalog, in catalog order: in
    this process for jobs=1, else over jobs worker processes that each hold
    the catalog and are sent only start offsets.

    At most 2*jobs batches are out at once: a new one goes out only as the
    caller takes the rows of the oldest, so a caller that stops reading (a
    stalled pipe) stops the workers instead of piling up their results.
    Closing the generator cancels the queued batches and waits for those a
    worker already holds. A worker that dies (kill -9, the OOM killer)
    breaks the pool: the next result raises BrokenProcessPool, instead of
    waiting forever for the dead worker's batch.
    """
    starts = range(0, catalog.size, BATCH)
    if jobs == 1:
        yield from (_rows(catalog, start) for start in starts)
        return
    from concurrent.futures import ProcessPoolExecutor  # deferred: 8 ms to import

    workers = ProcessPoolExecutor(jobs, initializer=_init_worker, initargs=(catalog,))
    try:
        out = collections.deque()
        for start in starts:
            out.append(workers.submit(_worker_rows, start))
            if len(out) == 2 * jobs:
                yield out.popleft().result()
        while out:
            yield out.popleft().result()
    finally:
        workers.shutdown(cancel_futures=True)


def sweep(pool: CandidatePool, sizes, jobs: int):
    """Yield the CSV row (family_id, type, l, b, polys, then analyze's
    fields) of every function of the pool's size-t catalog for each t in
    sizes, in catalog order; the rows are the same for every jobs >= 1.

    Each row is yielded as its batch arrives and none is kept, so a caller
    that writes each row out holds at most a few batches, whatever the
    catalog size. Progress goes to stderr. Close the generator to stop
    early: that ends the walk and stops any worker processes once their
    current batches finish.
    """
    for t in sizes:
        catalog = enumerate_families(pool, t)
        print(f"catalog l={pool.spec.l} b={pool.b} t={t}: {catalog.size} families", file=sys.stderr)
        with contextlib.closing(_batches(catalog, jobs)) as batches:
            for done, row in enumerate(itertools.chain.from_iterable(batches), 1):
                yield row
                if done % 2000 == 0:
                    print(f"  analyzed {done}/{catalog.size}", file=sys.stderr)


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
        raise SpreadbentError(f"m must be >= 2, got {m}")
    spec = field(m)
    out = []
    for a in range(spec.q):
        vectors = tuple(sorted(x | (fe_mul(spec, a, x) << m) for x in range(spec.q)))
        out.append(Subspace(n=2 * m, vectors=vectors))
    e_inf = tuple(y << m for y in range(spec.q))
    out.append(Subspace(n=2 * m, vectors=e_inf))
    return out


def verify_desarguesian_equivalence(m: int) -> bool:
    """Executable equivalence check for window size 1 over GF(2^m).

    The window-1 pool must hold one map a + X for each a in GF(q) (X
    itself for a = 0), and the kernel of each, solved once by the pool,
    must equal the graph subspace E_a vector for vector. Returns True only
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
    return all(k.vectors == graphs[a].vectors for k, a in zip(pool.kernels, graph_of))
