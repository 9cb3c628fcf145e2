"""Partial-spread bent functions from kernels of linear recurring sequences.

The pipeline: pick a window size b and a coefficient field GF(2^l), collect
feedback polynomials that are pairwise coprime, take the kernel of each
polynomial's banded recurrence matrix, and read the union of those kernels
as the support of a Boolean function on 2*l*b variables. Coprimality makes
the kernels intersect trivially, so the union is a partial spread and the
function is bent. The rest of the package measures what came out: Walsh
spectrum, algebraic normal form, degree, and the GF(2) rank of the bit
development, which separates these functions from the classical families.

The package root exports nothing: import each name from the module that
defines it. gf2e holds the field arithmetic, poly the polynomials over it,
lrs the recurrence kernels, boolfun the truth tables and their transforms,
rank2 the development rank, families the pools, catalogs and sweeps, errors
the two exception types, and cli the command line.
"""

__version__ = "0.1.0"
