"""Partial-spread bent functions from kernels of linear recurring sequences.

The pipeline: pick a window size b and a coefficient field GF(2^l), collect
feedback polynomials that are pairwise coprime, take the kernel of each
polynomial's banded recurrence matrix, and read the union of those kernels
as the support of a Boolean function on 2*l*b variables. Coprimality makes
the kernels intersect trivially, so the union is a partial spread and the
function is bent. The rest of the package measures what came out: Walsh
spectrum, algebraic normal form, degree, and the GF(2) rank of the bit
development, which separates these functions from the classical families.
"""

from .boolfun import (
    Anf,
    TruthTable,
    WalshSpectrum,
    algebraic_degree,
    anf,
    format_anf,
    from_spread,
    is_bent,
    is_flat,
    mobius,
    nonlinearity,
    truth_table_of_anf,
    walsh_transform,
)
from .errors import (
    BentCheckFailed,
    BothZero,
    DegenerateMap,
    DegreeTooSmall,
    DimensionMismatch,
    DivisionByZeroPoly,
    NotCoprime,
    OddArity,
    OverlapDetected,
    ParameterMismatch,
    SpecMismatch,
    SpreadbentError,
    UnsupportedDegree,
    UnsupportedParameters,
    WrongSpreadSize,
    ZeroInverse,
)
from .families import (
    TAG_IRREDUCIBLE,
    TAG_MIXED,
    TAG_ONE,
    TAG_PRODUCT,
    TAG_SQUARE,
    TAG_XPOW,
    CandidatePool,
    Catalog,
    FamilySpec,
    bent_from_kernels,
    build_bent,
    candidate_pool,
    coprime_subsets,
    desarguesian_spread,
    enumerate_families,
    manifest_line,
    nonzero_constant_members,
    verify_desarguesian_equivalence,
)
from .gf2e import CANONICAL_MODULI, FieldSpec, describe, fe_add, fe_inv, fe_mul, field
from .lrs import (
    LrsMap,
    Subspace,
    build_matrix,
    build_partial_spread,
    gf2_basis,
    kernel,
    sylvester_resultant_nonzero,
    trivial_intersection,
    window,
)
from .poly import (
    Poly,
    closed_form_family_count,
    enumerate_irreducibles,
    feasible_degrees,
    format_poly,
    gauss_count,
    is_irreducible,
    max_family_size,
    monic,
    one,
    pairwise_coprime,
    parse_poly,
    poly,
    poly_add,
    poly_divmod,
    poly_gcd,
    poly_mul,
    x_power,
    zero,
)
from .rank2 import (
    BEYOND_DS,
    BEYOND_MM,
    WITHIN_MM_RANGE,
    classify,
    development_matrix,
    development_rank,
    ds_rank_bounds,
    mm_rank_bounds,
    rank_gf2,
)

__version__ = "0.1.0"
