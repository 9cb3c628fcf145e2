"""Window size 1 reproduces the Desarguesian spread, member by member.

With b = 1 the recurrence matrix of a + X is the single equation
x1 = a*x0, so its kernel is the graph {(x, ax)} of multiplication by a.
Those graphs, together with {(0, y)}, are exactly the Desarguesian spread
of F_{2^m} x F_{2^m}. This script shows the match explicitly at m = 2 and
then has the library confirm it exhaustively at m = 4, where the
negative-type catalog is the classical one in different clothes.
"""

from spreadbent.families import (
    candidate_pool,
    desarguesian_spread,
    verify_desarguesian_equivalence,
)
from spreadbent.gf2e import field
from spreadbent.lrs import build_matrix, kernel
from spreadbent.poly import format_poly, one

spec = field(2)
graphs = desarguesian_spread(2)

print("m = 2: kernels of a + X against multiplication graphs")
# the pool holds the q maps a + X, X itself for a = 0; the constant 1,
# whose kernel is the last spread member E_inf, is added by hand
pool = candidate_pool(spec, 1)
members = [(p, graphs[p.coeffs[0]], f"E_{p.coeffs[0]}") for p in pool.members]
members.append((one(spec), graphs[-1], "E_inf"))
for p, graph, name in members:
    ker = kernel(build_matrix(p, 1))
    status = "==" if ker.vectors == graph.vectors else "!="
    print(f"  ker({format_poly(p)}) = {ker.vectors} {status} {name}")

# the spread partitions the nonzero vectors: 2^m + 1 members, 2^m - 1
# nonzero vectors each, (2^m + 1)(2^m - 1) + 1 = 4^m in total
total = set()
for s in graphs:
    total |= set(s.vectors)
print(f"\nspread covers {len(total)} of {4**2} vectors with {len(graphs)} members")

for m in (2, 4):
    ok = verify_desarguesian_equivalence(m)
    print(f"m = {m}: kernels and all negative-type unions match:", ok)
