"""Exact Betti tables, Hilbert series and classification of pinched Veronese rings.

The ring is the monomial subalgebra on all degree-d monomials in n variables
except one; its graded Betti numbers are dimensions of reduced homology of
squarefree divisor complexes, computed here with exact linear algebra over
prime fields or the rationals.

Importing the package loads none of its modules.  Each name in `__all__` is
looked up in the module that `_EXPORTS` names when it is first read (PEP 562),
so `from pinched_veronese import graded_betti` loads `betti` and what it
imports, and a CLI process loads only what its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {name: module for module, names in (
    ("betti", "BettiTable ClassificationReport NonCmWitness classify graded_betti "
              "multigraded_betti witness_non_cm"),
    ("cache", "HomologyCache SCHEMA_VERSION"),
    ("complexes", "SimplicialComplex alexander_dual build_divisor_complex "
                  "build_veronese_complex decomposition_check link veronese_generators"),
    ("errors", "ResourceLimitExceeded UncertifiedTableError"),
    ("homology", "HomologyProfile boundary_matrix boundary_square_is_zero "
                 "euler_characteristic_matches reduced_homology"),
    ("linalg", "DEFAULT_FIELD GF2 RATIONALS FieldSpec"),
    ("semigroup", "Multidegree PinchClass PinchConfig enumerate_degree generate_generators "
                  "is_member_bruteforce is_member_closed is_normal"),
    ("series", "Polynomial Series canonical_partner canonical_series_check h_polynomial "
               "hilbert_closed hilbert_function k_polynomial_check veronese_module_series"),
    ("theorems", "Check ExpectedTable VerificationReport expected_interior expected_max_d "
                 "expected_max_d_minus_1 expected_table verify"),
) for name in names.split()}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
