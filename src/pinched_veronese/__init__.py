"""Exact Betti tables, Hilbert series and classification of pinched Veronese rings.

The ring is the monomial subalgebra on all degree-d monomials in n variables
except one; its graded Betti numbers are dimensions of reduced homology of
squarefree divisor complexes, computed here with exact linear algebra over
prime fields or the rationals.
"""

from .betti import (
    BettiTable,
    ClassificationReport,
    NonCmWitness,
    classify,
    graded_betti,
    multigraded_betti,
    witness_non_cm,
)
from .cache import HomologyCache, SCHEMA_VERSION
from .complexes import (
    SimplicialComplex,
    alexander_dual,
    build_divisor_complex,
    build_veronese_complex,
    decomposition_check,
    link,
    veronese_generators,
)
from .errors import ResourceLimitExceeded, UncertifiedTableError
from .homology import (
    HomologyProfile,
    boundary_matrix,
    boundary_square_is_zero,
    euler_characteristic_matches,
    reduced_homology,
)
from .linalg import DEFAULT_FIELD, GF2, RATIONALS, FieldSpec, matrix_rank
from .semigroup import (
    Multidegree,
    PinchClass,
    PinchConfig,
    enumerate_degree,
    generate_generators,
    is_member_bruteforce,
    is_member_closed,
    is_normal,
)
from .series import (
    Polynomial,
    Series,
    canonical_partner,
    canonical_series_check,
    h_polynomial,
    hilbert_closed,
    hilbert_function,
    k_polynomial_check,
    veronese_module_series,
)
from .theorems import (
    Check,
    ExpectedTable,
    VerificationReport,
    expected_interior,
    expected_max_d,
    expected_max_d_minus_1,
    expected_table,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "BettiTable",
    "Check",
    "ClassificationReport",
    "DEFAULT_FIELD",
    "ExpectedTable",
    "FieldSpec",
    "GF2",
    "HomologyCache",
    "HomologyProfile",
    "Multidegree",
    "NonCmWitness",
    "PinchClass",
    "PinchConfig",
    "Polynomial",
    "RATIONALS",
    "ResourceLimitExceeded",
    "SCHEMA_VERSION",
    "Series",
    "SimplicialComplex",
    "UncertifiedTableError",
    "VerificationReport",
    "alexander_dual",
    "boundary_matrix",
    "boundary_square_is_zero",
    "build_divisor_complex",
    "build_veronese_complex",
    "canonical_partner",
    "canonical_series_check",
    "classify",
    "decomposition_check",
    "enumerate_degree",
    "euler_characteristic_matches",
    "expected_interior",
    "expected_max_d",
    "expected_max_d_minus_1",
    "expected_table",
    "generate_generators",
    "graded_betti",
    "h_polynomial",
    "hilbert_closed",
    "hilbert_function",
    "is_member_bruteforce",
    "is_member_closed",
    "is_normal",
    "k_polynomial_check",
    "link",
    "matrix_rank",
    "multigraded_betti",
    "reduced_homology",
    "verify",
    "veronese_generators",
    "veronese_module_series",
    "witness_non_cm",
]
