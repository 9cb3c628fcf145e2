"""The four workloads: their seeded inputs and their output checks.

Each workload turns a seed into a list of passes, a pass being a fixed
batch of spreadbent command lines that the driver sends one at a time and
waits for (a closed loop with a single caller). wall_s is the mean time of
one pass, so every pass of a workload does the same amount of work.

`host_probe` is None for a workload reported in raw wall time, or
(kernel runs before each request, sensitivity) for one scaled to a
reference host speed, 0 kernel runs meaning a sampling thread during each
request; see hostspeed.py.

Why these four (BENCHMARK.json lists all but build-wide, whose
memory-bound n=12 builds follow neither the host-speed kernel nor a raw
clock steadily enough to gate on; run it by name):
  table1         the paper's Table 1 as users run it: 12870 small functions
                 through the worker fan-out; rank2 dominates.
  build-catalog  single catalog lookups; family enumeration dominates, so
                 lazy lookup or a clique search shows here and nowhere else.
  build-wide     ad-hoc n=10 and n=12 functions: no enumeration, rank2 on a
                 working set far beyond cache, memory-bound.
  verify         the self-check suite: lrs/poly/gf2e/families, never rank2.
"""

from __future__ import annotations

import csv
import hashlib
import io
import random
from collections import Counter

from spreadbent import boolfun, cli, families, gf2e, lrs, rank2
from spreadbent.poly import format_poly

import oracle

TABLE1_SHA256 = "7f0d2d87571cabe0ec88f2250fce035beaf50a4ca686a75603edf22d9e81cc97"
TABLE1_HISTOGRAM = {30: 270, 36: 2160, 40: 1080, 42: 9360}
TABLE1_FUNCTIONS = 12870
# Bent truth tables one verify builds: the two golden n=4 tables, the
# 174 + 64 window-2 catalog and the 5 + 1 window-3 catalog.
VERIFY_FUNCTIONS = 2 + 174 + 64 + 5 + 1


def parse_build(out: str) -> dict[str, str]:
    """`build` output: a manifest line of `k=v; ...`, then `key=value` lines."""
    lines = out.splitlines()
    fields = dict(part.split("=", 1) for part in lines[0].split("; "))
    fields.update(line.split("=", 1) for line in lines[1:])
    return fields


class Table1:
    """`table1 --format csv` over the full window-1 catalog. The inputs are
    fixed, so the seed is unused."""

    name = "table1"
    host_probe = (0, 0.45)

    def generate(self, seed: int, jobs: int):
        return [[["table1", "--format", "csv", "--jobs", str(jobs)]]]

    functions_per_pass = TABLE1_FUNCTIONS

    def check(self, argv, out: str):
        digest = hashlib.sha256(out.encode()).hexdigest()
        if digest != TABLE1_SHA256:
            return f"table1 csv sha256 {digest}"
        ranks = Counter(int(row["rank"]) for row in csv.DictReader(io.StringIO(out)))
        if dict(ranks) != TABLE1_HISTOGRAM:
            return f"table1 histogram {dict(sorted(ranks.items()))}"
        return None


class BuildCatalog:
    """A seeded stream of `build --family-id k` lookups.

    Each deck of 46 requests draws every catalog-backed (l, b, type) that
    finishes today, in seeded order, with k uniform within the drawn
    catalog. The weights place p50 at the centre of the l=2, b=2 PS-
    lookups (the catalog where 174 of 3003 scanned tuples survive, so a
    clique search shows) and p90 at the centre of the n=8 window-1 lookups
    (12870 or 11440 families enumerated per lookup, so a lazy lookup shows)
    instead of on a boundary between two cost levels, which keeps both
    steady from run to run.
    """

    name = "build-catalog"
    host_probe = (1, 0.9)
    WEIGHTS = {
        (4, 1, "ps-"): 5, (4, 1, "ps+"): 5,
        (2, 2, "ps-"): 27, (2, 2, "ps+"): 1,
        (3, 1, "ps-"): 1, (3, 1, "ps+"): 1,
        (2, 1, "ps-"): 1, (2, 1, "ps+"): 1,
        (1, 2, "ps-"): 1, (1, 2, "ps+"): 1,
        (1, 3, "ps-"): 1, (1, 3, "ps+"): 1,
    }
    DECK = [key for key, weight in WEIGHTS.items() for _ in range(weight)]
    DECKS = 16
    functions_per_pass = len(DECK)

    def __init__(self):
        self._sweeps = {}

    @staticmethod
    def _catalog(key):
        l, b, spread_type = key
        pool = families.candidate_pool(gf2e.field(l), b)
        return pool, families.enumerate_families(pool, (1 << (l * b - 1)) + (spread_type == "ps+"))

    def generate(self, seed: int, jobs: int):
        # Only the sizes are kept: holding ~24k catalog entries through the
        # timed phase would slow every garbage collection inside it.
        sizes = {key: len(self._catalog(key)[1]) for key in self.WEIGHTS}
        rng = random.Random(seed)
        passes = []
        for _ in range(self.DECKS):
            deck = list(self.DECK)
            rng.shuffle(deck)
            passes.append([
                ["build", "--l", str(l), "--b", str(b), "--type", spread_type,
                 "--family-id", str(rng.randrange(sizes[l, b, spread_type]))]
                for l, b, spread_type in deck
            ])
        return passes

    def _reference(self, key, family_id: int) -> dict[str, str]:
        """The catalog's CSV row for one family, computed the way the
        table1/table2 sweep computes it: from the pool's kernels, looked up
        by member index, without build_bent. Runs after the timed phase,
        only for the families the stream drew."""
        if key not in self._sweeps:
            pool, catalog = self._catalog(key)
            kernels = [lrs.kernel(lrs.build_matrix(p, pool.b)) for p in pool.members]
            self._sweeps[key] = (pool, catalog, kernels, {})
        pool, catalog, kernels, rows = self._sweeps[key]
        if family_id in rows:
            return rows[family_id]
        fs = catalog[family_id]
        tt = boolfun.from_spread(
            [kernels[pool.members.index(p)] for p in fs.polys],
            plus_type=fs.spread_type == "PS+",
        )
        rank = rank2.development_rank(tt)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(cli.CSV_HEADER)
        writer.writerow([
            fs.family_id, fs.spread_type, fs.l, fs.b,
            ";".join(format_poly(p) for p in fs.polys),
            tt.hex(), tt.weight(),
            boolfun.algebraic_degree(boolfun.anf(tt)),
            boolfun.nonlinearity(boolfun.walsh_transform(tt)),
            rank, rank2.classify(rank, fs.m),
        ])
        rows[family_id] = next(csv.DictReader(io.StringIO(buf.getvalue())))
        return rows[family_id]

    def check(self, argv, out: str):
        got = parse_build(out)
        key = (int(argv[2]), int(argv[4]), argv[6])
        want = self._reference(key, int(argv[8]))
        if got["id"] != want["family_id"] or got["polys"] != want["polys"]:
            return f"{' '.join(argv)}: family {got['id']} {got['polys']}"
        for field in ("tt_hex", "weight", "degree", "nonlinearity", "rank", "classification"):
            if got[field] != want[field]:
                return f"{' '.join(argv)}: {field}={got[field]}, sweep row has {want[field]}"
        return None


class BuildWide:
    """A seeded stream of ad-hoc `build --polys` requests at n=10 (l=5) and
    n=12 (l=6), window 1. Each request is a random set of 2^(m-1) distinct
    linears a + X (one more for ps+), so it is always a valid partial
    spread, and it skips the catalog entirely. Every deck of 8 holds three
    n=10 requests of each type and one n=12 of each type, in seeded order:
    p50 then falls among the n=10 builds and p90 among the n=12 builds.
    """

    name = "build-wide"
    host_probe = None
    DECK = [(5, False)] * 3 + [(5, True)] * 3 + [(6, False), (6, True)]
    DECKS = 64
    functions_per_pass = len(DECK)

    def __init__(self):
        self._expected = {}

    def generate(self, seed: int, jobs: int):
        rng = random.Random(seed)
        passes = []
        for _ in range(self.DECKS):
            deck = list(self.DECK)
            rng.shuffle(deck)
            batch = []
            for l, plus in deck:
                coeffs = rng.sample(range(1 << l), (1 << (l - 1)) + plus)
                batch.append([
                    "build", "--l", str(l), "--b", "1", "--type", "ps+" if plus else "ps-",
                    "--polys", ";".join(f"[{a},1]" for a in coeffs),
                ])
            passes.append(batch)
        return passes

    def _oracle(self, argv) -> dict[str, str]:
        """Expected reply fields for one request, from the oracle alone."""
        key = tuple(argv)
        if key not in self._expected:
            l, plus = int(argv[2]), argv[6] == "ps+"
            coeffs = [int(p.strip("[]").split(",")[0]) for p in argv[8].split(";")]
            n = 2 * l
            h = oracle.window1_table(l, coeffs, plus)
            self._expected[key] = {
                "tt_hex": format(h, f"0{(1 << n) // 4}x"),
                "weight": str((1 << (n - 1)) + (1 << (l - 1)) * (1 if plus else -1)),
                "nonlinearity": str((1 << (n - 1)) - (1 << (l - 1))),
                "bent": "true",
                "rank": str(oracle.translate_rank(h, n)),
            }
        return self._expected[key]

    def check(self, argv, out: str):
        got = parse_build(out)
        for field, value in self._oracle(argv).items():
            if got.get(field) != value:
                shown = got.get(field, "")[:16]
                return f"build --l {argv[2]} {argv[6]}: {field}={shown}, oracle says {value[:16]}"
        return None


class Verify:
    """`spreadbent verify`, the self-check suite. Inputs are fixed."""

    name = "verify"
    host_probe = (8, 0.75)

    def generate(self, seed: int, jobs: int):
        return [[["verify"]]]

    functions_per_pass = VERIFY_FUNCTIONS

    def check(self, argv, out: str):
        lines = out.splitlines()
        bad = [line for line in lines if not line.endswith(": PASS")]
        if not lines or bad:
            return f"verify: {bad[0] if bad else 'no output'}"
        return None


WORKLOADS = {w.name: w for w in (Table1, BuildCatalog, BuildWide, Verify)}
