"""Multiplication-theorem toolkit for multivariate Hermite polynomials.

Evaluates Hermite polynomial families (probabilists', physicists',
variance-scaled, and general SPD-covariance), computes the expansion
coefficients that rewrite a polynomial of a linearly mapped argument over
polynomials of the original argument, and verifies every identity against
an exact symbolic-polynomial oracle.
"""

from . import errors
from .coeffs import (
    CoeffVariant,
    ExpansionTerm,
    TransformedMap,
    coeff_from_map,
    coeff_general,
    coeff_univariate,
    coeff_vec,
    evaluate_expansion,
    expand_from_map,
    expand_general,
    transformed_map,
    transformed_map_from_inverses,
)
from .hermite import (
    PHYSICISTS,
    PROBABILISTS,
    HermiteFamily,
    gf_partial_sum,
    hermite_multi,
    hermite_multi_batch,
    hermite_multi_product,
    hermite_uni,
    hermite_uni_grid,
)
from .multiindex import (
    MultiIndex,
    ascending_tuple,
    enumerate_fixed_degree,
    index_tuples,
    mi_factorial,
    q_support,
)
from .polyoracle import (
    MPoly,
    OracleComparison,
    SymbolicHermiteFamily,
    oracle_compare,
    rational_matrix,
)
from .tensorlin import (
    DenseMatrix,
    DenseVector,
    SpdMatrix,
    colwise_kron_power,
    covariance,
    invert_matrix,
    kron_power,
    spd_factorize,
)
from .verify import (
    TrialConfig,
    VerifyReport,
    verify_generating_function,
    verify_kron_identity,
    verify_main_identity,
    verify_selector_orthonormality,
    verify_univariate_closed_forms,
)

__version__ = "0.1.0"

__all__ = [
    "CoeffVariant",
    "DenseMatrix",
    "DenseVector",
    "ExpansionTerm",
    "HermiteFamily",
    "MPoly",
    "MultiIndex",
    "OracleComparison",
    "PHYSICISTS",
    "PROBABILISTS",
    "SpdMatrix",
    "SymbolicHermiteFamily",
    "TransformedMap",
    "TrialConfig",
    "VerifyReport",
    "ascending_tuple",
    "coeff_from_map",
    "coeff_general",
    "coeff_univariate",
    "coeff_vec",
    "colwise_kron_power",
    "covariance",
    "enumerate_fixed_degree",
    "errors",
    "evaluate_expansion",
    "expand_from_map",
    "expand_general",
    "gf_partial_sum",
    "hermite_multi",
    "hermite_multi_batch",
    "hermite_multi_product",
    "hermite_uni",
    "hermite_uni_grid",
    "index_tuples",
    "invert_matrix",
    "kron_power",
    "mi_factorial",
    "oracle_compare",
    "q_support",
    "rational_matrix",
    "spd_factorize",
    "transformed_map",
    "transformed_map_from_inverses",
    "verify_generating_function",
    "verify_kron_identity",
    "verify_main_identity",
    "verify_selector_orthonormality",
    "verify_univariate_closed_forms",
]
