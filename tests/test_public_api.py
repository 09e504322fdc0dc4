import kernelratio

# Any change to the public API shows up here as a one-line diff.
PUBLIC_API = [
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


def test_all_is_the_pinned_sorted_list():
    assert sorted(PUBLIC_API) == PUBLIC_API
    assert list(kernelratio.__all__) == PUBLIC_API
    assert all(hasattr(kernelratio, name) for name in PUBLIC_API)
