import concurrent.futures
import math
import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernelratio import (
    BalanceRule,
    BoundConstants,
    InputError,
    KernelFamily,
    KernelSpec,
    LabeledDataset,
    LambdaGrid,
    LossFamily,
    NumericalError,
    SelectionRule,
    a_term,
    balance_lambda,
    empirical_h_norm,
    fit,
    gram_matrix,
    hessian_trace,
    hessian_weights,
    rate_exponent,
    s_term,
    sample_pair,
    select_lambda,
)
from kernelratio.balancing import (
    MAX_GRID_LENGTH,
    MIN_THREADED_N,
    balance_eta,
    curvature_operator_norm,
    fit_and_select,
    fit_grid,
    select_from_fits,
)
from kernelratio.losses import loss_d2
from kernelratio.solver import predict_margin

GRID5 = LambdaGrid(lambda0=1e-4, xi=10.0, l=5)


class TestLambdaGrid:
    def test_values_are_the_geometric_sequence(self):
        np.testing.assert_allclose(GRID5.values, [1e-3, 1e-2, 1e-1, 1.0, 10.0], rtol=1e-14)
        assert np.all(np.diff(GRID5.values) > 0)

    def test_from_first(self):
        grid = LambdaGrid.from_first(1e-3, 10.0, 5)
        assert grid.values[0] == pytest.approx(1e-3, rel=1e-14)

    @pytest.mark.parametrize("kwargs", [
        {"lambda0": 0.0, "xi": 10.0, "l": 5},
        {"lambda0": 1e-4, "xi": 1.0, "l": 5},
        {"lambda0": 1e-4, "xi": 10.0, "l": 0},
        {"lambda0": 1.0, "xi": 1e300, "l": 3},  # xi**2 overflows
        {"lambda0": 1e290, "xi": 1e10, "l": 3},  # the last value is inf
        {"lambda0": float("nan"), "xi": 10.0, "l": 3},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(InputError):
            LambdaGrid(**kwargs)

    def test_a_grid_over_the_length_bound_is_refused_before_its_values_are_built(self, monkeypatch):
        # Listing 10^9 values alone takes minutes and tens of GB.
        def build(grid):
            pytest.fail("built the grid's values")

        with monkeypatch.context() as patch:
            patch.setattr(LambdaGrid, "values", property(build))
            with pytest.raises(InputError, match=r"^a grid of 1000000000 values is over the limit of 1000$"):
                LambdaGrid(1e-3, 1 + 1e-9, 10**9)
            with pytest.raises(InputError, match=r"^a grid of 1001 values is over the limit of 1000$"):
                LambdaGrid(1e-3, 1.001, MAX_GRID_LENGTH + 1)
        assert len(LambdaGrid(1e-3, 1.001, MAX_GRID_LENGTH).values) == MAX_GRID_LENGTH


class TestCurvatureWeights:
    def test_kulsif_weights_are_label_indicators(self, pair, kspec):
        ds = sample_pair(pair, 4, 6, seed=0)
        model, _ = fit(LossFamily.KULSIF, kspec, ds, 0.1)
        w = hessian_weights(LossFamily.KULSIF, model, ds, gram_matrix(kspec, ds.xs))
        np.testing.assert_array_equal(w, 0.5 * (1.0 - ds.ys))
        assert set(np.unique(w)) == {0.0, 1.0}

    def test_kulsif_weights_are_model_independent(self, pair, kspec):
        ds = sample_pair(pair, 4, 6, seed=0)
        m1, _ = fit(LossFamily.KULSIF, kspec, ds, 1e-3)
        m2, _ = fit(LossFamily.KULSIF, kspec, ds, 10.0)
        gram = gram_matrix(kspec, ds.xs)
        w1 = hessian_weights(LossFamily.KULSIF, m1, ds, gram)
        w2 = hessian_weights(LossFamily.KULSIF, m2, ds, gram)
        np.testing.assert_array_equal(w1, w2)

    def test_exp_weights_at_zero_coefficients(self, pair, kspec):
        ds = sample_pair(pair, 3, 3, seed=1)
        model, _ = fit(LossFamily.EXP, kspec, ds, 1e9)  # effectively alpha = 0
        w = hessian_weights(LossFamily.EXP, model, ds, gram_matrix(kspec, ds.xs))
        np.testing.assert_allclose(w, 1.0, atol=1e-6)

    def test_lr_weights_at_zero_are_quarter(self, pair, kspec):
        ds = sample_pair(pair, 3, 3, seed=1)
        model, _ = fit(LossFamily.LR, kspec, ds, 1e9)
        w = hessian_weights(LossFamily.LR, model, ds, gram_matrix(kspec, ds.xs))
        np.testing.assert_allclose(w, 0.25, atol=1e-6)

    @pytest.mark.parametrize("family", list(LossFamily))
    def test_gram_margins_equal_predicted_margins_bitwise(self, family, pair, kspec):
        ds = sample_pair(pair, 7, 9, seed=4)
        gram = gram_matrix(kspec, ds.xs)
        model, _ = fit(family, kspec, ds, 0.01, gram=gram)
        with_gram = hessian_weights(family, model, ds, gram)
        predicted = predict_margin(model, ds.xs)
        assert np.array_equal(with_gram, loss_d2(family, ds.ys.astype(np.float64), predicted))
        assert np.array_equal(hessian_weights(family, model, ds, gram.values), with_gram)

    def test_a_model_fitted_under_another_family_raises(self, pair, kspec):
        # It used to read sq's constant 2 off an exp fit.
        ds = sample_pair(pair, 10, 10, seed=0)
        model, _ = fit(LossFamily.EXP, kspec, ds, 1e-2)
        with pytest.raises(InputError, match=r"^the model was fitted under exp's loss, not sq's$"):
            hessian_weights(LossFamily.SQ, model, ds, gram_matrix(kspec, ds.xs))

    def test_sq_weights_are_two(self, pair, kspec):
        ds = sample_pair(pair, 3, 3, seed=1)
        model, _ = fit(LossFamily.SQ, kspec, ds, 0.5)
        w = hessian_weights(LossFamily.SQ, model, ds, gram_matrix(kspec, ds.xs))
        np.testing.assert_array_equal(w, np.full(ds.total, 2.0))

    @pytest.mark.parametrize("family", list(LossFamily))
    def test_weights_equal_ell2_at_the_k_alpha_margins_bitwise(self, family, pair, kspec):
        # The quadratic families read theirs off the labels, without K alpha.
        ds = sample_pair(pair, 7, 9, seed=3)
        gram = gram_matrix(kspec, ds.xs)
        ys = ds.ys.astype(np.float64)
        for model, _ in fit_grid(family, kspec, ds, GRID5, gram=gram):
            expected = loss_d2(family, ys, gram.values @ model.alpha).tobytes()
            weights = hessian_weights(family, model, ds, gram)
            assert type(weights) is np.ndarray and weights.dtype == np.float64
            assert weights.shape == (ds.total,) and weights.tobytes() == expected


# Each function that takes curvature weights, called on a 3-point Gram matrix.
WEIGHTED_CALLS = [
    pytest.param(lambda gram, e: empirical_h_norm(gram, e, np.ones(3), np.zeros(3), 0.1), id="empirical_h_norm"),
    pytest.param(lambda gram, e: hessian_trace(gram, e, 0.1), id="hessian_trace"),
    pytest.param(lambda gram, e: curvature_operator_norm(gram, e), id="curvature_operator_norm"),
]


class TestCurvatureVectorCheck:
    # The Gram matrix of x = 0, 1, 2 under the default kernel.  Before the
    # one check, a mis-sized vector broadcast to a wrong number here.
    @pytest.fixture
    def gram(self, kspec):
        return gram_matrix(kspec, [0.0, 1.0, 2.0])

    def test_a_short_coefficient_vector_does_not_broadcast(self, gram):
        with pytest.raises(InputError, match="beta of shape .1,. does not match the kernel matrix"):
            empirical_h_norm(gram, np.ones(3), np.ones(3), [0.5], 0.1)
        with pytest.raises(InputError, match="alpha of shape .4,. does not match the kernel matrix"):
            empirical_h_norm(gram, np.ones(3), np.ones(4), np.ones(3), 0.1)

    @pytest.mark.parametrize("length", [1, 2, 4])
    @pytest.mark.parametrize("call", WEIGHTED_CALLS)
    def test_weights_of_another_length_raise_input_error(self, call, length, gram):
        with pytest.raises(InputError, match="curvature weights of shape .* does not match the kernel matrix"):
            call(gram, np.ones(length))

    @pytest.mark.parametrize("call", WEIGHTED_CALLS)
    def test_a_negative_weight_raises_input_error(self, call, gram):
        with pytest.raises(InputError, match="curvature weights must be nonnegative"):
            call(gram, [1.0, -1e-300, 1.0])
        with pytest.raises(InputError, match="does not match the kernel matrix"):
            call(gram, np.ones((3, 1)))  # only a flat vector of length N is a weight vector
        call(gram, [1.0, 0.0, 2.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_curvature_operator_norm_names_a_non_finite_weight(self, gram, bad):
        # eigvalsh would raise numpy's "Eigenvalues did not converge".
        with pytest.raises(NumericalError, match=f"^curvature weight 1 is {bad}, so the operator norm is undefined$"):
            curvature_operator_norm(gram, [1.0, bad, 1.0])

    def test_inf_and_nan_weights_pass_through(self, gram):
        # A diverged exp fit makes them, and selection still chooses.
        assert empirical_h_norm(gram, [1.0, math.inf, 1.0], np.ones(3), np.zeros(3), 0.1) == math.inf
        assert math.isnan(empirical_h_norm(gram, [1.0, math.nan, 1.0], np.ones(3), np.zeros(3), 0.1))
        assert hessian_trace(gram, [1.0, math.inf, 1.0]) == math.inf
        assert math.isnan(hessian_trace(gram, [math.nan, 1.0, 1.0]))

    def test_hessian_trace_rejects_a_negative_or_non_finite_lambda(self, gram):
        for lam in (-5.0, -1e-300, math.inf, math.nan):
            with pytest.raises(InputError, match="lam must be nonnegative and finite"):
                hessian_trace(gram, np.ones(3), lam)
        assert hessian_trace(gram, np.ones(3), 0.0) == hessian_trace(gram, np.ones(3))
        assert hessian_trace(gram, np.ones(3), 0.1) == pytest.approx(2.3, rel=1e-15)


class TestEmpiricalNorm:
    def _setup(self, pair, kspec, seed=2, m=4, n=4):
        ds = sample_pair(pair, m, n, seed=seed)
        gram = gram_matrix(kspec, ds.xs)
        model, _ = fit(LossFamily.EXP, kspec, ds, 0.1)
        weights = hessian_weights(LossFamily.EXP, model, ds, gram)
        return ds, gram, weights

    def test_zero_at_equal_coefficients(self, pair, kspec):
        ds, gram, weights = self._setup(pair, kspec)
        alpha = np.arange(ds.total, dtype=float)
        assert empirical_h_norm(gram, weights, alpha, alpha, 0.1) == 0.0

    def test_symmetric_in_the_two_fits(self, pair, kspec):
        ds, gram, weights = self._setup(pair, kspec)
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=ds.total), rng.normal(size=ds.total)
        assert empirical_h_norm(gram, weights, a, b, 0.2) == pytest.approx(
            empirical_h_norm(gram, weights, b, a, 0.2), rel=1e-14
        )

    def test_zero_weights_leave_pure_rkhs_term(self, pair, kspec):
        ds, gram, _ = self._setup(pair, kspec)
        zero = np.zeros(ds.total)
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=ds.total), rng.normal(size=ds.total)
        delta = a - b
        expected = 0.2 * float(delta @ (gram.values @ delta))
        assert empirical_h_norm(gram, zero, a, b, 0.2) == pytest.approx(expected, rel=1e-12)
        assert expected >= 0.0

    @pytest.mark.parametrize("family", [LossFamily.KULSIF, LossFamily.EXP])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matrix_form_equals_operator_expansion(self, family, seed, pair, kspec):
        # Independent route: sum_i e_i h(x_i)^2 / N + lam ||h||_H^2 with
        # h(x_i) accumulated by explicit loops over kernel evaluations.
        rng = np.random.default_rng(seed)
        n_half = int(rng.integers(1, 6))
        ds = sample_pair(pair, n_half, n_half, seed=seed)
        gram = gram_matrix(kspec, ds.xs)
        model, _ = fit(family, kspec, ds, 0.05)
        weights = hessian_weights(family, model, ds, gram)
        a = rng.normal(size=ds.total)
        b = rng.normal(size=ds.total)
        lam = float(rng.uniform(0.01, 1.0))

        delta = a - b
        n_total = ds.total
        h_at = [sum(delta[j] * gram.values[i, j] for j in range(n_total)) for i in range(n_total)]
        by_hand = sum(weights[i] * h_at[i] ** 2 for i in range(n_total)) / n_total
        by_hand += lam * sum(
            delta[i] * delta[j] * gram.values[i, j] for i in range(n_total) for j in range(n_total)
        )
        assert empirical_h_norm(gram, weights, a, b, lam) == pytest.approx(by_hand, abs=1e-10)

    def test_rejects_a_bad_lambda_or_lengths_that_miss_the_kernel_matrix(self, pair, kspec):
        ds, gram, weights = self._setup(pair, kspec)
        alpha = np.zeros(ds.total)
        for lam in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(InputError, match="lambda_t must be positive"):
                empirical_h_norm(gram, weights, alpha, alpha, lam)
        with pytest.raises(InputError, match="does not match the kernel matrix"):
            empirical_h_norm(gram, weights, alpha[:-1], alpha[:-1], 0.1)
        with pytest.raises(InputError, match="does not match the kernel matrix"):
            empirical_h_norm(gram, weights[:-1], alpha, alpha, 0.1)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_nonnegative(self, seed, pair, kspec):
        rng = np.random.default_rng(seed)
        ds = sample_pair(pair, 3, 3, seed=seed % 7)
        gram = gram_matrix(kspec, ds.xs)
        model, _ = fit(LossFamily.KULSIF, kspec, ds, 0.1)
        weights = hessian_weights(LossFamily.KULSIF, model, ds, gram)
        a, b = rng.normal(size=6), rng.normal(size=6)
        assert empirical_h_norm(gram, weights, a, b, 0.3) >= 0.0


class TestTrace:
    def test_zero_weights(self, pair, kspec):
        ds = sample_pair(pair, 2, 2, seed=0)
        gram = gram_matrix(kspec, ds.xs)
        assert hessian_trace(gram, np.zeros(4)) == 0.0

    def test_kulsif_balanced_trace_is_one(self, pair, kspec):
        ds = sample_pair(pair, 5, 5, seed=0)
        gram = gram_matrix(kspec, ds.xs)
        model, _ = fit(LossFamily.KULSIF, kspec, ds, 0.1)
        w = hessian_weights(LossFamily.KULSIF, model, ds, gram)
        assert hessian_trace(gram, w) == pytest.approx(1.0, rel=1e-14)

    def test_exp_zero_coefficients_trace_is_two(self, pair, kspec):
        ds = sample_pair(pair, 5, 5, seed=0)
        gram = gram_matrix(kspec, ds.xs)
        model, _ = fit(LossFamily.EXP, kspec, ds, 1e9)
        w = hessian_weights(LossFamily.EXP, model, ds, gram)
        assert hessian_trace(gram, w) == pytest.approx(2.0, abs=1e-6)

    def test_identity_part_adds_n_lambda(self, pair, kspec):
        ds = sample_pair(pair, 5, 5, seed=0)
        gram = gram_matrix(kspec, ds.xs)
        model, _ = fit(LossFamily.KULSIF, kspec, ds, 0.1)
        w = hessian_weights(LossFamily.KULSIF, model, ds, gram)
        base = hessian_trace(gram, w)
        assert hessian_trace(gram, w, 0.01) == pytest.approx(base + 10 * 0.01, rel=1e-14)

    def test_curvature_operator_norm_positive(self, pair, kspec):
        ds = sample_pair(pair, 5, 5, seed=0)
        gram = gram_matrix(kspec, ds.xs)
        model, _ = fit(LossFamily.KULSIF, kspec, ds, 0.1)
        w = hessian_weights(LossFamily.KULSIF, model, ds, gram)
        assert curvature_operator_norm(gram, w) > 0.0


    def test_curvature_operator_norm_matches_the_full_decomposition(self, pair, kspec):
        # Only rows with e_i != 0 are decomposed; the zero rows add only
        # zero eigenvalues to the full matrix.
        ds = sample_pair(pair, 20, 20, seed=1)
        gram = gram_matrix(kspec, ds.xs)
        for family in (LossFamily.KULSIF, LossFamily.EXP):
            model, _ = fit(family, kspec, ds, 0.1)
            w = hessian_weights(family, model, ds, gram)
            root = np.sqrt(w)
            full = np.linalg.eigvalsh(root[:, None] * gram.values * root[None, :] / ds.total)
            assert curvature_operator_norm(gram, w) == pytest.approx(np.max(np.abs(full)), rel=1e-13)
        assert curvature_operator_norm(gram, np.zeros(ds.total)) == 0.0

    @pytest.mark.parametrize("rule", [SelectionRule.PRACTICAL_MJ, SelectionRule.THEORETICAL_ETA_S])
    @pytest.mark.parametrize("family", [LossFamily.KULSIF, LossFamily.EXP])
    def test_selection_decomposes_nothing(self, family, rule, pair, kspec, monkeypatch):
        # No rule reads a spectral norm, so selection must not pay for one.
        ds = sample_pair(pair, 8, 8, seed=2)
        gram = gram_matrix(kspec, ds.xs)
        grid = LambdaGrid(lambda0=1e-2, xi=10.0, l=4)
        fits = fit_grid(family, kspec, ds, grid, gram=gram)

        def no_eigvalsh(*args, **kwargs):
            raise AssertionError("selection called np.linalg.eigvalsh")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        report = select_from_fits(family, gram, ds, grid, fits, rule)
        assert all("curvature_norm" not in entry for entry in report.per_lambda)


class TestBoundCalculators:
    def test_monotone_in_lambda(self):
        consts = BoundConstants()
        grid = np.geomspace(1e-4, 10.0, 12)
        for rule in BalanceRule:
            s_values = [s_term(rule, consts, 100, float(lam)) for lam in grid]
            a_values = [a_term(rule, consts, float(lam)) for lam in grid]
            assert np.all(np.diff(s_values) < 0)
            assert np.all(np.diff(a_values) > 0)

    def test_slow_rate_plug_in(self):
        consts = BoundConstants(delta=2.0 / math.e)  # log(2/delta) = 1
        n_effective = 168.0 * consts.b1**2 * consts.log_term
        assert s_term(BalanceRule.SLOW_RATE, consts, n_effective, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_slow_rate_balance_value(self):
        consts = BoundConstants(b1=1.0, radius=1.0, delta=2.0 / math.e)
        assert balance_lambda(BalanceRule.SLOW_RATE, consts, 256) == pytest.approx(1.0, rel=1e-12)

    def test_fast_rate_balance_value(self):
        consts = BoundConstants(q0=1.0, source_scale=1.0, source_r=0.5, capacity_alpha=1.0)
        assert balance_lambda(BalanceRule.FAST_RATE, consts, 1296) == pytest.approx(1.0, rel=1e-12)

    def test_slow_rate_scaling_in_n(self):
        consts = BoundConstants(b1=2.0, radius=0.7, target_norm=1.3, delta=0.05)
        lam_n = balance_lambda(BalanceRule.SLOW_RATE, consts, 500)
        lam_4n = balance_lambda(BalanceRule.SLOW_RATE, consts, 2000)
        assert lam_4n / lam_n == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_balance_postcondition(self, seed):
        rng = np.random.default_rng(seed)
        b1 = float(rng.uniform(0.1, 5.0))
        rng.uniform(0.1, 5.0)  # an unused draw, so the constants below keep their values
        consts = BoundConstants(
            b1=b1,
            radius=float(rng.uniform(0.1, 5.0)),
            target_norm=float(rng.uniform(0.1, 5.0)),
            q0=float(rng.uniform(0.1, 5.0)),
            source_scale=float(rng.uniform(0.1, 5.0)),
            source_r=float(rng.uniform(0.01, 0.5)),
            capacity_alpha=float(rng.uniform(1.0, 4.0)),
            delta=float(rng.uniform(0.01, 0.5)),
        )
        n_total = int(rng.integers(10, 100_000))
        for rule in BalanceRule:
            lam = balance_lambda(rule, consts, n_total)
            eta = balance_eta(rule, consts)
            lhs = eta * s_term(rule, consts, n_total, lam)
            rhs = a_term(rule, consts, lam)
            assert abs(lhs - rhs) <= 1e-10 * rhs

    @pytest.mark.parametrize("rule", list(BalanceRule))
    def test_calculators_reject_a_nonpositive_lambda_or_sample_count(self, rule):
        consts = BoundConstants()
        with pytest.raises(InputError, match=r"^lambda must be positive, got 0\.0$"):
            s_term(rule, consts, 100, 0.0)
        with pytest.raises(InputError, match=r"^sample count must be >= 1, got 0$"):
            s_term(rule, consts, 0, 0.1)
        with pytest.raises(InputError, match=r"^lambda must be positive, got -1\.0$"):
            a_term(rule, consts, -1.0)
        with pytest.raises(InputError, match=r"^sample count must be >= 1, got 0$"):
            balance_lambda(rule, consts, 0)

    def test_a_balance_the_floats_cannot_verify_raises(self):
        # b1^2 = 1e-600 underflows to 0 in the variance term, so eta S(lambda)
        # reads 0 against A(lambda) = 1.2e-299 at the closed-form lambda.
        with pytest.raises(NumericalError, match=r"^balance postcondition violated: residual -1\.229"):
            balance_lambda(BalanceRule.SLOW_RATE, BoundConstants(b1=1e-300), 100)

    @pytest.mark.parametrize(
        "rule, kwargs",
        [
            (BalanceRule.SLOW_RATE, {"b1": 1e160}),  # b1^2 overflows
            (BalanceRule.SLOW_RATE, {"target_norm": 1e200}),  # target_norm^2 overflows
            (BalanceRule.FAST_RATE, {"q0": 1e200}),  # q0^2 overflows
            (BalanceRule.FAST_RATE, {"source_scale": 1e-200}),  # source_scale^2 underflows to 0, then divides
            (BalanceRule.SLOW_RATE, {"b1": 1e-200, "radius": 1e-200}),  # lambda underflows to 0
        ],
    )
    def test_a_balancing_lambda_past_the_float_range_raises_input_error_naming_the_rule(self, rule, kwargs):
        message = rf"^the {rule.value} balancing lambda for these constants leaves the float range$"
        with pytest.raises(InputError, match=message):
            balance_lambda(rule, BoundConstants(**kwargs), 100)

    def test_constants_validation(self):
        with pytest.raises(InputError):
            BoundConstants(source_r=0.7)
        with pytest.raises(InputError):
            BoundConstants(capacity_alpha=0.5)
        with pytest.raises(InputError, match="capacity_alpha must be finite and >= 1, got inf"):
            BoundConstants(capacity_alpha=math.inf)
        with pytest.raises(InputError):
            BoundConstants(delta=1.5)
        with pytest.raises(InputError):
            BoundConstants(b1=-1.0)


class TestRateExponent:
    def test_reference_values(self):
        assert rate_exponent(0.5, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert rate_exponent(0.5, 2.0) == pytest.approx(4.0 / 5.0, rel=1e-15)

    def test_low_regularity_limit(self):
        assert rate_exponent(1e-12, 1.0) == pytest.approx(0.5, rel=1e-9)

    def test_domain(self):
        with pytest.raises(InputError):
            rate_exponent(0.0, 1.0)
        with pytest.raises(InputError):
            rate_exponent(0.25, 0.9)
        with pytest.raises(InputError, match="capacity_alpha must be finite and >= 1, got inf"):
            rate_exponent(0.25, math.inf)


class TestSelection:
    def test_single_element_grid(self, pair, kspec):
        ds = sample_pair(pair, 10, 10, seed=0)
        grid = LambdaGrid(lambda0=1e-3, xi=10.0, l=1)
        report = select_lambda(ds, LossFamily.KULSIF, kspec, grid, SelectionRule.PRACTICAL_MJ)
        assert report.chosen_lambda == pytest.approx(1e-2, rel=1e-12)
        assert report.pairwise == ()

    def test_fits_must_match_the_grid(self, pair, kspec):
        ds = sample_pair(pair, 3, 3, seed=0)
        gram = gram_matrix(kspec, ds.xs)
        fits = fit_grid(LossFamily.KULSIF, kspec, ds, GRID5, gram=gram)
        with pytest.raises(InputError, match="got 4 fits for a grid of length 5"):
            select_from_fits(LossFamily.KULSIF, gram, ds, GRID5, fits[:-1], SelectionRule.PRACTICAL_MJ)

    def test_fit_k_must_be_made_at_the_grid_s_kth_lambda(self, pair, kspec):
        ds = sample_pair(pair, 3, 3, seed=0)
        gram = gram_matrix(kspec, ds.xs)
        fits = fit_grid(LossFamily.EXP, kspec, ds, GRID5, gram=gram)
        shifted = LambdaGrid(1e-1, 10.0, 5)
        message = r"^fit 1 is exp at lambda=0\.001; the selection needs exp at the grid's lambda=1\.0$"
        with pytest.raises(InputError, match=message):
            select_from_fits(LossFamily.EXP, gram, ds, shifted, fits, SelectionRule.PRACTICAL_MJ)
        reordered = [fits[0], fits[2], fits[1], *fits[3:]]
        with pytest.raises(InputError, match=r"^fit 2 is exp at lambda=0\.1; "):
            select_from_fits(LossFamily.EXP, gram, ds, GRID5, reordered, SelectionRule.PRACTICAL_MJ)

    def test_fits_must_be_of_the_selected_family(self, pair, kspec):
        ds = sample_pair(pair, 3, 3, seed=0)
        gram = gram_matrix(kspec, ds.xs)
        fits = fit_grid(LossFamily.EXP, kspec, ds, GRID5, gram=gram)
        with pytest.raises(InputError, match=r"^fit 1 is exp at lambda=0\.001; the selection needs lr at "):
            select_from_fits(LossFamily.LR, gram, ds, GRID5, fits, SelectionRule.PRACTICAL_MJ)

    def test_pairwise_count(self, pair, kspec):
        ds = sample_pair(pair, 20, 20, seed=1)
        report = select_lambda(ds, LossFamily.KULSIF, kspec, GRID5, SelectionRule.PRACTICAL_MJ)
        assert len(report.pairwise) == 10  # l(l-1)/2

    def test_large_sample_benchmark_choice(self, pair, kspec):
        # At m = n = 100 on the default pair the practical rule lands on
        # 1e-2, which sits in the top two grid values by oracle MSE.
        from kernelratio.oracle import OracleContext, grid_mse

        ds = sample_pair(pair, 100, 100, seed=0)
        gram = gram_matrix(kspec, ds.xs)
        fits = fit_grid(LossFamily.KULSIF, kspec, ds, GRID5, gram=gram)
        report = select_from_fits(
            LossFamily.KULSIF, gram, ds, GRID5, fits, SelectionRule.PRACTICAL_MJ
        )
        assert report.chosen_lambda == pytest.approx(1e-2, rel=1e-12)
        ctx = OracleContext.default(pair)
        mses = [grid_mse(ctx, model) for model, _ in fits]
        rank = 1 + sum(1 for v in mses if v < mses[report.chosen_index - 1])
        assert rank <= 2

    @pytest.mark.parametrize("family", [LossFamily.KULSIF, LossFamily.EXP])
    @pytest.mark.parametrize("rule", [SelectionRule.PRACTICAL_MJ, SelectionRule.THEORETICAL_ETA_S])
    def test_fit_and_select_returns_select_lambdas_report_and_the_grid_fits(self, pair, kspec, family, rule):
        ds = sample_pair(pair, 15, 15, seed=4)
        consts = BoundConstants(delta=0.1, q0=2.0)
        fits, report = fit_and_select(ds, family, kspec, GRID5, rule, consts)
        assert report == select_lambda(ds, family, kspec, GRID5, rule, consts)
        ref_fits = fit_grid(family, kspec, ds, GRID5, gram=gram_matrix(kspec, ds.xs))
        for (model, fit_report), (ref_model, ref_report) in zip(fits, ref_fits, strict=True):
            np.testing.assert_array_equal(model.alpha, ref_model.alpha)
            assert fit_report == ref_report

    def test_grid_monotone_truncation(self, pair, kspec):
        ds = sample_pair(pair, 30, 30, seed=2)
        full = select_lambda(ds, LossFamily.KULSIF, kspec, GRID5, SelectionRule.PRACTICAL_MJ)
        truncated = LambdaGrid(lambda0=GRID5.lambda0, xi=GRID5.xi, l=full.chosen_index)
        again = select_lambda(ds, LossFamily.KULSIF, kspec, truncated, SelectionRule.PRACTICAL_MJ)
        assert again.chosen_lambda == full.chosen_lambda

    @given(
        family=st.sampled_from(list(LossFamily)),
        rule=st.sampled_from(list(SelectionRule)),
        seed=st.integers(0, 10_000),
        q0=st.floats(0.1, 10.0),
        m=st.integers(0, 6),
        n=st.integers(1, 6),
    )
    # Row (3, 1) fails while (3, 2) passes: the last row alone would choose 3, not 2.
    @example(family=LossFamily.KULSIF, rule=SelectionRule.PRACTICAL_MJ, seed=1, q0=1.0, m=2, n=2)
    @settings(max_examples=40, deadline=None)
    def test_each_pair_passes_by_its_comparison_and_the_choice_is_the_largest_all_pass_index(
        self, pair, kspec, family, rule, seed, q0, m, n
    ):
        # Together these make the choice monotone in the thresholds: raising
        # one can only turn a row's pass on, and so move the choice up.
        ds = sample_pair(pair, m, n, seed=seed)
        report = select_lambda(ds, family, kspec, GRID5, rule, BoundConstants(q0=q0))
        for row in report.pairwise:
            assert row["pass"] is (row["norm_sq"] <= row["threshold"])
        failed = {row["i"] for row in report.pairwise if not row["pass"]}
        assert report.chosen_index == max(i for i in range(1, GRID5.l + 1) if i not in failed)

    def test_eta_s_threshold_formula(self, pair, kspec):
        ds = sample_pair(pair, 10, 10, seed=3)
        consts = BoundConstants(delta=0.05, q0=1.0, capacity_alpha=1.0)
        report = select_lambda(
            ds, LossFamily.KULSIF, kspec, GRID5, SelectionRule.THEORETICAL_ETA_S, consts
        )
        for idx, lam in enumerate(GRID5.values):
            expected = (
                48.0
                * balance_eta(BalanceRule.FAST_RATE, consts)
                * s_term(BalanceRule.FAST_RATE, consts, ds.total, float(lam))
            )
            assert report.thresholds_used[idx] == pytest.approx(expected, rel=1e-12)
        assert report.params["delta"] == 0.05

    @pytest.mark.parametrize("family", list(LossFamily))
    def test_fit_grid_calls_fit_once_per_grid_value(self, family, pair, kspec, monkeypatch):
        # The benchmark's traced run counts fits by wrapping solver.fit by
        # name, so the shared closed-form setup must still go through it.
        from kernelratio import balancing

        calls = []

        def counting_fit(*args, **kwargs):
            calls.append((args[0], args[3]))
            return fit(*args, **kwargs)

        monkeypatch.setattr(balancing, "fit", counting_fit)
        ds = sample_pair(pair, 5, 6, seed=1)
        fit_grid(family, kspec, ds, GRID5, gram=gram_matrix(kspec, ds.xs))
        assert calls == [(family, float(lam)) for lam in GRID5.values]

    def test_fit_failure_names_lambda(self, pair, kspec, monkeypatch):
        from kernelratio import balancing
        from kernelratio.errors import NumericalError

        def broken_fit(*args, **kwargs):
            raise NumericalError("boom")

        monkeypatch.setattr(balancing, "fit", broken_fit)
        ds = sample_pair(pair, 3, 3, seed=0)
        with pytest.raises(NumericalError, match="lambda=0.001"):
            select_lambda(ds, LossFamily.KULSIF, kspec, GRID5, SelectionRule.PRACTICAL_MJ)


class TestConcurrentGrid:
    # The CG grid fits run on threads from MIN_THREADED_N points on, given
    # two usable cores; each test patches the affinity to the core count it
    # needs, so that it holds on any host.
    GRID = LambdaGrid.from_first(0.1, 10.0, 3)

    @staticmethod
    def _cores(monkeypatch, count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)

    @pytest.mark.parametrize("family", [LossFamily.LR, LossFamily.EXP])
    def test_threaded_fits_equal_one_lambda_fits_bitwise(self, family, pair, kspec, monkeypatch):
        # One thread per grid value, more than this host may have cores, and
        # a short switch interval, so the threads interleave finely.
        self._cores(monkeypatch, 8)
        started = []

        class Recording(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                super().__init__(max_workers)
                started.append(max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
        half = MIN_THREADED_N // 2 + 4
        ds = sample_pair(pair, half, half, seed=0)
        gram = gram_matrix(kspec, ds.xs)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            fits = fit_grid(family, kspec, ds, self.GRID, gram=gram)
        finally:
            sys.setswitchinterval(interval)
        assert started == [self.GRID.l]
        expected = [fit(family, kspec, ds, float(lam), gram=gram) for lam in self.GRID.values]
        assert [model.lam for model, _ in fits] == [float(lam) for lam in self.GRID.values]
        assert [model.alpha.tobytes() for model, _ in fits] == [model.alpha.tobytes() for model, _ in expected]
        assert [report for _, report in fits] == [report for _, report in expected]

    def test_a_failure_names_the_first_failing_lambda_in_grid_order_and_leaves_no_thread(
        self, pair, kspec, monkeypatch
    ):
        # With two threads, the 2nd value's fit waits until the 5th has
        # started on the other thread, after the 4th failed there; the 5th
        # is still running when the 2nd fails.
        from kernelratio import balancing

        self._cores(monkeypatch, 2)
        grid = LambdaGrid.from_first(1e-3, 10.0, 5)
        values = [float(lam) for lam in grid.values]
        fifth_started = threading.Event()
        finished = []

        def failing_fit(family, kernel, dataset, lam, **kwargs):
            if lam == values[1]:
                assert fifth_started.wait(timeout=10)
            if lam == values[4]:
                fifth_started.set()
                time.sleep(0.3)
            finished.append(lam)
            if lam in (values[1], values[3]):
                raise NumericalError("boom")
            return lam

        monkeypatch.setattr(balancing, "fit", failing_fit)
        half = MIN_THREADED_N // 2
        ds = sample_pair(pair, half, half, seed=0)
        threads = threading.active_count()
        with pytest.raises(NumericalError, match=rf"^fit failed at lambda={values[1]}: boom$"):
            fit_grid(LossFamily.LR, kspec, ds, grid, gram=gram_matrix(kspec, ds.xs))
        assert threading.active_count() == threads
        assert values[4] in finished

    @pytest.mark.parametrize(
        "family, half, cores",
        [
            (LossFamily.EXP, 100, 2),  # below MIN_THREADED_N
            (LossFamily.KULSIF, 300, 2),  # closed form
            (LossFamily.SQ, 300, 2),  # closed form
            (LossFamily.LR, 300, 1),  # one usable core
        ],
        ids=["exp at N=200", "kulsif at N=600", "sq at N=600", "one core"],
    )
    def test_the_serial_cases_start_no_pool(self, family, half, cores, pair, kspec, monkeypatch):
        from kernelratio import balancing

        self._cores(monkeypatch, cores)

        def no_pool(*args, **kwargs):
            pytest.fail("fit_grid started a thread pool")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        calls = []
        monkeypatch.setattr(balancing, "fit", lambda *args, **kwargs: calls.append(args[3]))
        ds = sample_pair(pair, half, half, seed=0)
        fit_grid(family, kspec, ds, self.GRID, gram=gram_matrix(kspec, ds.xs))
        assert calls == [float(lam) for lam in self.GRID.values]


class TestPowerOfTwoScaling:
    # Scaling every point and the bandwidth by 2**k scales each squared
    # difference and 2 sigma^2 by 4**k without rounding, so the Gram matrix,
    # and with it every fit and the selection, stays bitwise the same.
    FACTORS = [2.0**-6, 2.0**-1, 2.0**3, 2.0**9]

    @pytest.mark.parametrize("kernel_family", list(KernelFamily))
    @pytest.mark.parametrize("bandwidth", [0.5, 1.0, 3.0])
    def test_the_gram_matrix_is_unchanged(self, kernel_family, bandwidth):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            for m, n, dim in [(2, 3, 1), (5, 5, 2), (10, 12, 3)]:
                xs = LabeledDataset.from_blocks(rng.normal(0.5, size=(m, dim)), rng.normal(size=(n, dim))).xs
                gram = gram_matrix(KernelSpec(kernel_family, bandwidth), xs).values
                for factor in self.FACTORS:
                    scaled = gram_matrix(KernelSpec(kernel_family, bandwidth * factor), xs * factor).values
                    assert scaled.tobytes() == gram.tobytes()

    @pytest.mark.parametrize("family", list(LossFamily))
    def test_every_fit_and_the_choice_are_unchanged(self, family, pair):
        grid = LambdaGrid(lambda0=1e-3, xi=10.0, l=3)
        for seed in range(3):
            ds = sample_pair(pair, 5, 5, seed=seed)
            fits, report = fit_and_select(ds, family, KernelSpec(), grid, SelectionRule.PRACTICAL_MJ)
            for factor in (2.0**-3, 2.0**5):
                scaled = LabeledDataset(xs=ds.xs * factor, ys=ds.ys)
                scaled_fits, scaled_report = fit_and_select(
                    scaled, family, KernelSpec(bandwidth=factor), grid, SelectionRule.PRACTICAL_MJ
                )
                assert [m.alpha.tobytes() for m, _ in scaled_fits] == [m.alpha.tobytes() for m, _ in fits]
                assert scaled_report.to_dict() == report.to_dict()


class TestLabelFlip:
    # Negating every label in place, points kept in their order, maps each
    # symmetric loss's objective at alpha to its objective at -alpha, bit
    # for bit, so every grid fit negates exactly and the selection, which
    # reads only the fits' curvatures and differences, does not move.
    # KuLSIF is not symmetric under the flip.
    @pytest.mark.parametrize("family", [f for f in LossFamily if f is not LossFamily.KULSIF])
    def test_every_fit_negates_and_the_selection_is_unchanged(self, family, pair):
        grid = LambdaGrid(lambda0=1e-3, xi=10.0, l=3)
        for kernel_family in KernelFamily:
            kernel = KernelSpec(kernel_family)
            for m, n in [(3, 3), (10, 10), (7, 13), (40, 40)]:
                for seed in range(2):
                    ds = sample_pair(pair, m, n, seed=seed)
                    flipped = LabeledDataset(ds.xs, -ds.ys)
                    gram = gram_matrix(kernel, ds.xs)
                    fits = fit_grid(family, kernel, ds, grid, gram=gram)
                    flipped_fits = fit_grid(family, kernel, flipped, grid, gram=gram)
                    for (model, _), (flipped_model, _) in zip(fits, flipped_fits):
                        assert np.array_equal(flipped_model.alpha, -model.alpha)
                    for rule in SelectionRule:
                        report = select_from_fits(family, gram, ds, grid, fits, rule)
                        flipped_report = select_from_fits(family, gram, flipped, grid, flipped_fits, rule)
                        assert flipped_report.to_dict() == report.to_dict()
