"""Span recording for the traced run.

The tracer wraps the public functions of each spreadbent layer at every
module that imported them, records one span per call (name, start, end,
parent, operation id), keeps the spans in memory and folds them into
per-layer metrics at the end. Nothing inside the program changes; the
wrappers are installed only for the traced passes and removed after.

Self time of a span is its busy time minus the busy time of the spans it
directly caused. A generator function (coprime_subsets) is busy only while
its consumer is inside next(); its span runs from creation to exhaustion
and accumulates the inside time.
"""

from __future__ import annotations

import csv
import importlib
import time
from contextlib import contextmanager
from math import comb

# Traced span name -> (module, function). The metric names are the span
# names; boolfun.algebraic_degree folds into boolfun.anf ("anf including
# degree") and the cli.main spans are opened by the driver around each
# request.
WRAPPED = {
    "rank2.rank_gf2": ("rank2", "rank_gf2"),
    "rank2.development_matrix": ("rank2", "development_matrix"),
    "boolfun.from_spread": ("boolfun", "from_spread"),
    "boolfun.walsh_transform": ("boolfun", "walsh_transform"),
    "boolfun.anf": ("boolfun", "anf"),
    "boolfun.algebraic_degree": ("boolfun", "algebraic_degree"),
    "boolfun.is_bent": ("boolfun", "is_bent"),
    "families.candidate_pool": ("families", "candidate_pool"),
    "families.enumerate_families": ("families", "enumerate_families"),
    "families.build_bent": ("families", "build_bent"),
    "families.coprime_subsets": ("families", "coprime_subsets"),
    "lrs.kernel": ("lrs", "kernel"),
    "lrs.build_partial_spread": ("lrs", "build_partial_spread"),
    "lrs.sylvester_resultant_nonzero": ("lrs", "sylvester_resultant_nonzero"),
    "poly.poly_gcd": ("poly", "poly_gcd"),
    "gf2e.fe_mul": ("gf2e", "fe_mul"),
}
GENERATORS = {"families.coprime_subsets"}
# Leaf functions called hundreds of thousands of times per request (verify
# makes about 700k fe_mul calls): their calls and busy time are summed in
# place instead of kept as one span record each.
ROLLED_UP = {"gf2e.fe_mul"}
FOLDED = {"boolfun.algebraic_degree": "boolfun.anf"}
ROOT = "cli.main"
LAYERS = [ROOT] + [name for name in WRAPPED if name not in FOLDED]
FIELDS = ("calls", "busy_s", "self_s", "share")
FIELD_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "share": "fraction"}
COMPUTED = {
    "families.enumerate_families.yield_ratio": "fraction",
    "rank2.rank_gf2.rank_per_column": "fraction",
    "rank2.development_matrix.temp_bytes": "bytes",
}
MODULES = ("gf2e", "poly", "lrs", "boolfun", "rank2", "families", "cli")


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{layer}.{field}": FIELD_UNITS[field] for layer in LAYERS for field in FIELDS}
    units.update(COMPUTED)
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    def __init__(self):
        # span record: [id, name, start, end, busy, child, parent, op]
        self.spans: list[list] = []
        self._stack: list[list] = []
        self.op = 0
        self.rolled_up = {name: [0, 0.0] for name in ROLLED_UP}
        self.yielded = 0
        self.scanned = 0
        self.rank_sum = 0
        self.columns = 0
        self.temp_bytes = 0

    # ------------------------------------------------------------ spans

    def _open(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        rec = [len(self.spans), name, time.perf_counter(), 0.0, 0.0, 0.0, parent, self.op]
        self.spans.append(rec)
        return rec

    def _close(self, rec, busy):
        rec[4] += busy
        if self._stack:
            self._stack[-1][5] += busy

    def _enter(self, name):
        rec = self._open(name)
        self._stack.append(rec)
        return rec

    def _exit(self, rec):
        self._stack.pop()
        rec[3] = time.perf_counter()
        self._close(rec, rec[3] - rec[2])

    @contextmanager
    def span(self, name):
        rec = self._enter(name)
        try:
            yield
        finally:
            self._exit(rec)

    def _wrap(self, name, fn):
        observe = self._observers().get(name)

        def traced(*args, **kwargs):
            rec = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(rec)
            if observe:
                observe(args, result)
            return result

        return traced

    def _wrap_rolled_up(self, name, fn):
        totals = self.rolled_up[name]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args):
            t0 = clock()
            result = fn(*args)
            busy = clock() - t0
            totals[0] += 1
            totals[1] += busy
            if stack:
                stack[-1][5] += busy
            return result

        return traced

    def _wrap_generator(self, name, fn):
        def traced(*args, **kwargs):
            rec = self._open(name)
            gen = fn(*args, **kwargs)
            try:
                while True:
                    self._stack.append(rec)
                    t0 = time.perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._stack.pop()
                        self._close(rec, time.perf_counter() - t0)
                    yield item
            finally:
                rec[3] = time.perf_counter()
                gen.close()

        return traced

    # ------------------------------------------------- computed counts

    def _observers(self):
        def families(args, result):
            pool, t = args[0], args[1]
            self.yielded += len(result)
            self.scanned += comb(len(pool.members), t)

        def rank(args, result):
            self.rank_sum += result
            self.columns += args[1]

        def temp(args, result):
            self.temp_bytes = max(self.temp_bytes, 9 * 4 ** args[0].n)

        return {
            "families.enumerate_families": families,
            "rank2.rank_gf2": rank,
            "rank2.development_matrix": temp,
        }

    # ------------------------------------------------------- patching

    @contextmanager
    def installed(self):
        """Swap every import site of each wrapped function for its wrapper."""
        modules = [importlib.import_module(f"spreadbent.{m}") for m in MODULES]
        undo = []
        for name, (home, attr) in WRAPPED.items():
            orig = getattr(importlib.import_module(f"spreadbent.{home}"), attr)
            if name in GENERATORS:
                wrap = self._wrap_generator
            elif name in ROLLED_UP:
                wrap = self._wrap_rolled_up
            else:
                wrap = self._wrap
            traced = wrap(name, orig)
            for module in modules:
                if getattr(module, attr, None) is orig:
                    setattr(module, attr, traced)
                    undo.append((module, attr, orig))
        try:
            yield self
        finally:
            for module, attr, orig in undo:
                setattr(module, attr, orig)

    # -------------------------------------------------------- reports

    def metrics(self, traced_wall_s: float) -> dict[str, float]:
        """calls/busy_s/self_s/share per layer plus the computed counts."""
        agg = {layer: [0, 0.0, 0.0] for layer in LAYERS}
        for _, name, _, _, busy, child, _, _ in self.spans:
            folded = FOLDED.get(name)
            entry = agg[folded or name]
            if not folded:
                entry[0] += 1
            entry[1] += busy
            entry[2] += busy - child
        for name, (calls, busy) in self.rolled_up.items():
            agg[name] = [calls, busy, busy]
        out: dict[str, float] = {}
        for layer, (calls, busy, self_s) in agg.items():
            out[f"{layer}.calls"] = calls
            out[f"{layer}.busy_s"] = busy
            out[f"{layer}.self_s"] = self_s
            out[f"{layer}.share"] = busy / traced_wall_s
        out["families.enumerate_families.yield_ratio"] = (
            self.yielded / self.scanned if self.scanned else 0.0
        )
        out["rank2.rank_gf2.rank_per_column"] = (
            self.rank_sum / self.columns if self.columns else 0.0
        )
        out["rank2.development_matrix.temp_bytes"] = self.temp_bytes
        return out

    def write(self, path) -> None:
        """One CSV line per span record; ROLLED_UP calls have none."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("id", "name", "start", "end", "busy", "self", "parent", "op"))
            for sid, name, start, end, busy, child, parent, op in self.spans:
                writer.writerow((sid, name, f"{start:.9f}", f"{end:.9f}",
                                 f"{busy:.9f}", f"{busy - child:.9f}", parent, op))
