"""Build the smallest interesting functions by hand, step by step.

Walks the n=4 construction from the raw recurrence matrices up to the
algebraic normal form, then lets the catalog machinery produce the six
n=6 functions of the mixed-degree window-3 pool.
"""

from spreadbent.boolfun import (
    algebraic_degree,
    anf,
    format_anf,
    from_spread,
    nonlinearity,
    walsh_transform,
)
from spreadbent.families import (
    build_bent,
    candidate_pool,
    enumerate_families,
    manifest_line,
)
from spreadbent.gf2e import field
from spreadbent.lrs import build_matrix, kernel, window
from spreadbent.poly import format_poly, poly

spec = field(1)

# Two coprime quadratics over GF(2). Their recurrence kernels are
# 4-element subspaces of F_2^4 that meet only in zero.
f1 = poly(spec, (1, 0, 1))   # X^2 + 1
f2 = poly(spec, (1, 1, 1))   # X^2 + X + 1

print("feedback polynomials:", format_poly(f1), format_poly(f2))
for f in (f1, f2):
    # the band over F_q: row i holds the coefficient window of f at offset i
    rows = tuple((0,) * i + window(f, 2) + (0,) * (1 - i) for i in range(2))
    ker = kernel(build_matrix(f, 2))
    print(f"  {format_poly(f)}: rows {rows} -> kernel {ker.vectors}")

spread = [kernel(build_matrix(f, 2)) for f in (f1, f2)]
g = from_spread(spread, plus_type=False)
print("\nnegative type: union minus zero vector")
print("  truth table:", [g.bits >> k & 1 for k in range(1 << g.n)])
print("  hex:", g.hex(), " weight:", g.weight())
print("  anf:", format_anf(anf(g)), " degree:", algebraic_degree(anf(g)))
print("  nonlinearity:", nonlinearity(walsh_transform(g)))

# The positive type needs one more kernel and keeps the zero vector.
# X^2 qualifies: it is coprime to both quadratics above.
f3 = poly(spec, (0, 0, 1))
spread.append(kernel(build_matrix(f3, 2)))
h = from_spread(spread, plus_type=True)
print("\npositive type: add the kernel of", format_poly(f3))
print("  truth table:", [h.bits >> k & 1 for k in range(1 << h.n)])
print("  hex:", h.hex(), " weight:", h.weight())
print("  anf:", format_anf(anf(h)))

# Window size 3 over GF(2): the pool gains (X+1)(X^2+X+1) = X^3 + 1,
# a reducible member that is still coprime to everything else there.
print("\nwindow-3 catalog over GF(2):")
pool = candidate_pool(spec, 3)
for p, tag in zip(pool.members, pool.tags):
    print(f"  {format_poly(p):12s} {tag}")

for t in (4, 5):
    for fs in enumerate_families(pool, t):
        tt = build_bent(fs)
        print(f"  {manifest_line(fs)}")
        print(f"    hex={tt.hex()} weight={tt.weight()} "
              f"degree={algebraic_degree(anf(tt))}")
