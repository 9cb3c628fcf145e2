"""Survey the 2-ranks of the window-2 catalogs at n = 8.

The GF(2) rank of the development matrix A[x,y] = f(x xor y) is an
invariant under extended-affine equivalence, so it separates construction
families: Maiorana-McFarland functions live in one rank window, functions
from the Desarguesian spread in another. This survey shows how far the
recurrence-kernel catalog reaches beyond both.
"""

from collections import Counter

from spreadbent.families import (
    build_bent,
    candidate_pool,
    enumerate_families,
    manifest_line,
)
from spreadbent.gf2e import field
from spreadbent.rank2 import classify, development_rank, ds_rank_bounds, mm_rank_bounds

spec = field(2)
pool = candidate_pool(spec, 2)
m = spec.l * 2

lo_mm, hi_mm = mm_rank_bounds(m)
lo_ds, hi_ds = ds_rank_bounds(m)
print(f"n = {4 * spec.l}, m = {m}")
print(f"Maiorana-McFarland rank window: [{lo_mm}, {hi_mm}]")
print(f"Desarguesian spread rank window: [{lo_ds}, {hi_ds}]")

for t, label in ((8, "negative type"), (9, "positive type")):
    families = enumerate_families(pool, t)
    ranks = []
    extremal = {}
    for fs in families:
        rank = development_rank(build_bent(fs))
        ranks.append(rank)
        extremal.setdefault(rank, fs)

    print(f"\n{label}: {len(families)} families")
    hist = Counter(ranks)
    for rank in sorted(hist):
        marker = classify(rank, m)
        print(f"  rank {rank}: {hist[rank]:4d}  ({marker})")

    beyond = sum(c for r, c in hist.items() if r > hi_ds)
    print(f"  {beyond} of {len(families)} exceed the Desarguesian ceiling {hi_ds}")
    top = max(hist)
    print(f"  an extremal family at rank {top}:")
    print(f"    {manifest_line(extremal[top])}")
