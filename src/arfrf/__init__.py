"""Exact-arithmetic toolkit for numerical semigroups, row-factorization
matrices, integer lattices, and toric genericity checks."""

from .errors import (
    ArfrfError,
    DimensionMismatch,
    GridTooLarge,
    InvalidFamily,
    NotNumerical,
    NotPseudoFrobenius,
    NotSublattice,
    TooManyMatrices,
    UnknownClaim,
)
from .factorization import count_factorizations, factorization_vectors
from .families import FamilySpec, build_family, closed_form_pf, closed_form_rf
from .lattice import (
    GenericityReport,
    degree,
    first_row_differences,
    is_generic,
    kernel_lattice,
    lattice_coordinates,
    lattice_index,
    rf_difference_lattice,
    rf_relations,
)
from .rfmatrix import (
    check_sign_conjecture,
    column_zero_pair,
    determinant,
    find_frobenius_det_witness,
    is_rf_matrix,
    rf_matrices,
    sign_target,
)
from .semigroup import NumericalSemigroup, from_generators
from .verifier import VerifyConfig, verify_all, verify_claim

__version__ = "0.1.0"

__all__ = [
    "ArfrfError",
    "DimensionMismatch",
    "FamilySpec",
    "GenericityReport",
    "GridTooLarge",
    "InvalidFamily",
    "NotNumerical",
    "NotPseudoFrobenius",
    "NotSublattice",
    "NumericalSemigroup",
    "TooManyMatrices",
    "UnknownClaim",
    "VerifyConfig",
    "build_family",
    "check_sign_conjecture",
    "closed_form_pf",
    "closed_form_rf",
    "column_zero_pair",
    "count_factorizations",
    "degree",
    "determinant",
    "factorization_vectors",
    "find_frobenius_det_witness",
    "first_row_differences",
    "from_generators",
    "is_generic",
    "is_rf_matrix",
    "kernel_lattice",
    "lattice_coordinates",
    "lattice_index",
    "rf_difference_lattice",
    "rf_matrices",
    "rf_relations",
    "sign_target",
    "verify_all",
    "verify_claim",
    "__version__",
]
