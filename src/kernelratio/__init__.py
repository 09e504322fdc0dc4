"""Kernel density-ratio estimation with adaptive regularization.

Fits ratio models g(f) with f in an RKHS by minimizing a regularized
classification risk over four proper composite loss families, and picks
the regularization strength with a balancing principle over empirical
curvature norms.  Ground truth for synthetic Gaussian pairs comes from a
quadrature oracle.
"""

from .balancing import (
    BalanceRule,
    BoundConstants,
    LambdaGrid,
    SelectionReport,
    SelectionRule,
    a_term,
    balance_lambda,
    empirical_h_norm,
    hessian_trace,
    hessian_weights,
    rate_exponent,
    s_term,
    select_lambda,
)
from .data import DEFAULT_PAIR, GaussianPairSpec, LabeledDataset, load_two_csv, sample_pair
from .errors import InputError, NumericalError
from .kernel import GramMatrix, KernelFamily, KernelSpec, gram_matrix, kernel_eval
from .losses import LossFamily, ratio_map
from .oracle import (
    OracleContext,
    QuadratureSpec,
    bayes_margin,
    bregman_error_direct,
    bregman_error_via_risk,
    grid_mse,
    hessian_sandwich_test,
    population_risk,
    true_ratio,
)
from .solver import (
    FitOptions,
    FitReport,
    RatioModel,
    fit,
    load_model,
    margins_at,
    objective_and_gradient,
    predict_margin,
    predict_ratio,
    save_model,
)

__version__ = "0.1.0"

__all__ = [
    "BalanceRule",
    "BoundConstants",
    "DEFAULT_PAIR",
    "FitOptions",
    "FitReport",
    "GaussianPairSpec",
    "GramMatrix",
    "InputError",
    "KernelFamily",
    "KernelSpec",
    "LabeledDataset",
    "LambdaGrid",
    "LossFamily",
    "NumericalError",
    "OracleContext",
    "QuadratureSpec",
    "RatioModel",
    "SelectionReport",
    "SelectionRule",
    "a_term",
    "balance_lambda",
    "bayes_margin",
    "bregman_error_direct",
    "bregman_error_via_risk",
    "empirical_h_norm",
    "fit",
    "gram_matrix",
    "grid_mse",
    "hessian_sandwich_test",
    "hessian_trace",
    "hessian_weights",
    "kernel_eval",
    "load_model",
    "load_two_csv",
    "margins_at",
    "objective_and_gradient",
    "population_risk",
    "predict_margin",
    "predict_ratio",
    "rate_exponent",
    "ratio_map",
    "s_term",
    "sample_pair",
    "save_model",
    "select_lambda",
    "true_ratio",
]
