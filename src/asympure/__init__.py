"""Exact cohomology growth and asymptotic purity on products of projective spaces.

Two independent engines compute the kernel and cokernel of the symmetric-power
contraction map that controls the middle cohomology of divisors restricted to
bidegree-(k, k) hypersurfaces of P^n x P^n: a representation-theoretic
prediction (Pieri decompositions plus Weyl dimensions) and a brute-force exact
matrix rank.  On top of them sit the asymptotic cohomological functions and
their purity verdicts.
"""

from .asymptotics import (
    AsymptoticVector,
    CaseLabel,
    PurityVerdict,
    SeriesNotStabilized,
    asymptotic_product,
    asymptotic_special_fiber,
    classify,
    fit_leading_coefficient,
    intersection_number,
    purity_report,
    stable_start,
)
from .oracle import (
    ContractionOperator,
    Monomial,
    RankResult,
    SizeCapError,
    SparseIntMatrix,
    apply_term,
    build_matrix,
    exact_rank,
    load_operator,
    monomial_basis,
    oracle_series,
    special_fiber_operator,
)
from .projspace import (
    CohomologyVector,
    DivisorClass,
    binomial,
    bott_cohomology,
    euler_characteristic,
    feasible_multiples,
    kunneth_cohomology,
    series_exponents,
    source_target_dims,
    sym_dim,
)
from .reptheory import (
    IrrepLabel,
    MapAnalysis,
    PieriDecomposition,
    kernel_series_rep,
    pieri_decompose,
    predict_map_analysis,
    series_polynomials,
    weyl_dimension,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticVector",
    "CaseLabel",
    "CohomologyVector",
    "ContractionOperator",
    "DivisorClass",
    "IrrepLabel",
    "MapAnalysis",
    "Monomial",
    "PieriDecomposition",
    "PurityVerdict",
    "RankResult",
    "SeriesNotStabilized",
    "SizeCapError",
    "SparseIntMatrix",
    "apply_term",
    "asymptotic_product",
    "asymptotic_special_fiber",
    "binomial",
    "bott_cohomology",
    "build_matrix",
    "classify",
    "euler_characteristic",
    "exact_rank",
    "feasible_multiples",
    "fit_leading_coefficient",
    "intersection_number",
    "kernel_series_rep",
    "kunneth_cohomology",
    "load_operator",
    "monomial_basis",
    "oracle_series",
    "pieri_decompose",
    "predict_map_analysis",
    "purity_report",
    "series_exponents",
    "series_polynomials",
    "source_target_dims",
    "special_fiber_operator",
    "stable_start",
    "sym_dim",
    "weyl_dimension",
]
