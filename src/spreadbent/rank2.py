"""GF(2) rank of the XOR-development matrix and the derived classification.

The development of a Boolean function f is the 2^n x 2^n binary matrix with
entry (x, y) = f(x XOR y). Its GF(2) rank is invariant under affine input
changes plus addition of affine functions, so differing ranks prove two
functions inequivalent. Rows are bit-packed eight columns per byte and the
elimination XORs whole packed rows at once. One 256 x 256 rank is most
of the work per function of the table1 sweep: 1.1 ms, 85% of the pass, in
the traced perfbench run that README § Performance cites (--trace 1,
seed 1, one worker, unscaled; a shared 2-vCPU Xeon, numpy 2.4.6).

Known rank windows for two reference families, for half-arity m >= 2: bent
functions of Maiorana-McFarland type have ranks in [2m+2, 2^(m+1)-2], and
bent functions from the Desarguesian spread have ranks in
[2^(m+1)-2, sum_i C(m,i) 2^min(i,m-i)]. A computed rank strictly above a
window's upper bound certifies inequivalence to everything in that window;
a boundary value certifies nothing, so classification is conservative. At
m=1 every bent function is x1*x2 plus affine terms, in both families.
"""

from __future__ import annotations

from math import comb

# the package's one numpy import, at module level: perfbench/run.py reads
# numpy's version from sys.modules on runs that never rank
import numpy as np

from .boolfun import TruthTable
from .errors import check_int

WITHIN_MM_RANGE = "within-MM-range"
BEYOND_MM = "beyond-MM"
BEYOND_DS = "beyond-DS"
# The largest arity ranked: development_matrix's index is 2 GiB at n = 14
MAX_RANK_ARITY = 14


def development_matrix(tt: TruthTable) -> np.ndarray:
    """Bit-packed rows of f(x XOR y); row x, bit y. A table above
    MAX_RANK_ARITY, the bound the CLI's builds read too, is refused before
    anything is allocated."""
    check_int("development matrix arity n", tt.n, 0, MAX_RANK_ARITY)
    size = 1 << tt.n
    # f(8j + i) is bit i of byte j
    raw = np.frombuffer(tt.bits.to_bytes(max(size >> 3, 1), "little"), dtype=np.uint8)
    table = np.unpackbits(raw, bitorder="little")[:size]
    idx = np.arange(size, dtype=np.int64)
    return np.packbits(table[idx[:, None] ^ idx[None, :]], axis=1)


def rank_gf2(packed: np.ndarray, ncols: int) -> int:
    """GF(2) rank of a bit-packed matrix by column-sweep elimination."""
    p = np.array(packed, dtype=np.uint8)
    nrows = p.shape[0]
    r = 0
    for col in range(ncols):
        byte, mask = col >> 3, 0x80 >> (col & 7)
        hits = np.nonzero(p[r:, byte] & mask)[0]
        if hits.size == 0:
            continue
        pivot = r + int(hits[0])
        if pivot != r:
            tmp = p[r].copy()
            p[r] = p[pivot]
            p[pivot] = tmp
        p[r + hits[1:]] ^= p[r]
        r += 1
        if r == nrows:
            break
    return r


def development_rank(tt: TruthTable) -> int:
    return rank_gf2(development_matrix(tt), 1 << tt.n)


def mm_rank_bounds(m: int) -> tuple[int, int]:
    check_int("m", m, 2)
    return 2 * m + 2, (1 << (m + 1)) - 2


def ds_rank_bounds(m: int) -> tuple[int, int]:
    check_int("m", m, 2)
    upper = sum(comb(m, i) * (1 << min(i, m - i)) for i in range(m + 1))
    return (1 << (m + 1)) - 2, upper


def classify(rank: int, m: int) -> str:
    """Strict-exceedance classification against the two rank windows."""
    if m == 1:
        return WITHIN_MM_RANGE
    if rank > ds_rank_bounds(m)[1]:
        return BEYOND_DS
    if rank > mm_rank_bounds(m)[1]:
        return BEYOND_MM
    return WITHIN_MM_RANGE
