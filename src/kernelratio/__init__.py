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
    HessianWeights,
    LambdaGrid,
    SelectionReport,
    SelectionRule,
    a_term,
    balance_lambda,
    empirical_h_norm,
    hessian_trace,
    hessian_weights,
    known_norm_select,
    rate_exponent,
    s_term,
    select_lambda,
)
from .data import DEFAULT_PAIR, GaussianPairSpec, LabeledDataset, load_two_csv, sample_pair
from .errors import InputError, NumericalError
from .kernel import GramMatrix, KernelFamily, KernelSpec, gram_matrix, kernel_eval
from .losses import (
    LossFamily,
    MarginDerivatives,
    bregman_generator,
    link,
    link_inv,
    loss_derivs,
    ratio_map,
    self_concordance_check,
)
from .oracle import (
    OracleContext,
    QuadratureSpec,
    QuadScheme,
    bayes_margin,
    bregman_error_direct,
    bregman_error_via_risk,
    grid_mse,
    hessian_sandwich_test,
    population_h_form,
    population_risk,
    true_ratio,
)
from .solver import (
    FitOptions,
    FitReport,
    RatioModel,
    closed_form_fit,
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
    "HessianWeights",
    "InputError",
    "KernelFamily",
    "KernelSpec",
    "LabeledDataset",
    "LambdaGrid",
    "LossFamily",
    "MarginDerivatives",
    "NumericalError",
    "OracleContext",
    "QuadScheme",
    "QuadratureSpec",
    "RatioModel",
    "SelectionReport",
    "SelectionRule",
    "a_term",
    "balance_lambda",
    "bayes_margin",
    "bregman_error_direct",
    "bregman_error_via_risk",
    "bregman_generator",
    "closed_form_fit",
    "empirical_h_norm",
    "fit",
    "gram_matrix",
    "grid_mse",
    "hessian_sandwich_test",
    "hessian_trace",
    "hessian_weights",
    "kernel_eval",
    "known_norm_select",
    "link",
    "link_inv",
    "load_model",
    "load_two_csv",
    "loss_derivs",
    "margins_at",
    "objective_and_gradient",
    "population_h_form",
    "population_risk",
    "predict_margin",
    "predict_ratio",
    "rate_exponent",
    "ratio_map",
    "s_term",
    "sample_pair",
    "save_model",
    "select_lambda",
    "self_concordance_check",
    "true_ratio",
]
