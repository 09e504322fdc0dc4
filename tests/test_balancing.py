import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelratio import (
    BalanceRule,
    BoundConstants,
    InputError,
    LambdaGrid,
    LossFamily,
    SelectionRule,
    a_term,
    balance_lambda,
    empirical_h_norm,
    fit,
    gram_matrix,
    hessian_trace,
    hessian_weights,
    known_norm_select,
    rate_exponent,
    s_term,
    sample_pair,
    select_lambda,
)
from kernelratio import balancing
from kernelratio.balancing import (
    HessianWeights,
    balance_eta,
    choose_max_qualifying,
    curvature_operator_norm,
    fit_grid,
    select_from_fits,
)
from kernelratio.oracle import OracleContext, bayes_margin, population_h_form

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
    ])
    def test_validation(self, kwargs):
        with pytest.raises(InputError):
            LambdaGrid(**kwargs)


class TestHessianWeights:
    def test_kulsif_weights_are_label_indicators(self, pair, kspec):
        ds = sample_pair(pair, 4, 6, seed=0)
        model, _ = fit(LossFamily.KULSIF, kspec, ds, 0.1)
        w = hessian_weights(LossFamily.KULSIF, model, ds)
        np.testing.assert_array_equal(w.e, 0.5 * (1.0 - ds.ys))
        assert set(np.unique(w.e)) == {0.0, 1.0}

    def test_kulsif_weights_are_model_independent(self, pair, kspec):
        ds = sample_pair(pair, 4, 6, seed=0)
        m1, _ = fit(LossFamily.KULSIF, kspec, ds, 1e-3)
        m2, _ = fit(LossFamily.KULSIF, kspec, ds, 10.0)
        w1 = hessian_weights(LossFamily.KULSIF, m1, ds)
        w2 = hessian_weights(LossFamily.KULSIF, m2, ds)
        np.testing.assert_array_equal(w1.e, w2.e)

    def test_exp_weights_at_zero_coefficients(self, pair, kspec):
        ds = sample_pair(pair, 3, 3, seed=1)
        model, _ = fit(LossFamily.EXP, kspec, ds, 1e9)  # effectively alpha = 0
        w = hessian_weights(LossFamily.EXP, model, ds)
        np.testing.assert_allclose(w.e, 1.0, atol=1e-6)

    def test_lr_weights_at_zero_are_quarter(self, pair, kspec):
        ds = sample_pair(pair, 3, 3, seed=1)
        model, _ = fit(LossFamily.LR, kspec, ds, 1e9)
        w = hessian_weights(LossFamily.LR, model, ds)
        np.testing.assert_allclose(w.e, 0.25, atol=1e-6)

    @pytest.mark.parametrize("family", list(LossFamily))
    def test_gram_margins_equal_predicted_margins_bitwise(self, family, pair, kspec):
        ds = sample_pair(pair, 7, 9, seed=4)
        gram = gram_matrix(kspec, ds.xs)
        model, _ = fit(family, kspec, ds, 0.01, gram=gram)
        with_gram = hessian_weights(family, model, ds, gram)
        assert np.array_equal(with_gram.e, hessian_weights(family, model, ds).e)
        assert np.array_equal(hessian_weights(family, model, ds, gram.values).e, with_gram.e)

    def test_sq_weights_are_two(self, pair, kspec):
        ds = sample_pair(pair, 3, 3, seed=1)
        model, _ = fit(LossFamily.SQ, kspec, ds, 0.5)
        w = hessian_weights(LossFamily.SQ, model, ds)
        np.testing.assert_array_equal(w.e, np.full(ds.total, 2.0))


class TestEmpiricalNorm:
    def _setup(self, pair, kspec, seed=2, m=4, n=4):
        ds = sample_pair(pair, m, n, seed=seed)
        gram = gram_matrix(kspec, ds.xs)
        model, _ = fit(LossFamily.EXP, kspec, ds, 0.1)
        weights = hessian_weights(LossFamily.EXP, model, ds)
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
        from kernelratio.balancing import HessianWeights

        zero = HessianWeights(e=np.zeros(ds.total))
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
        weights = hessian_weights(family, model, ds)
        a = rng.normal(size=ds.total)
        b = rng.normal(size=ds.total)
        lam = float(rng.uniform(0.01, 1.0))

        delta = a - b
        n_total = ds.total
        h_at = [sum(delta[j] * gram.values[i, j] for j in range(n_total)) for i in range(n_total)]
        by_hand = sum(weights.e[i] * h_at[i] ** 2 for i in range(n_total)) / n_total
        by_hand += lam * sum(
            delta[i] * delta[j] * gram.values[i, j] for i in range(n_total) for j in range(n_total)
        )
        assert empirical_h_norm(gram, weights, a, b, lam) == pytest.approx(by_hand, abs=1e-10)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_nonnegative(self, seed, pair, kspec):
        rng = np.random.default_rng(seed)
        ds = sample_pair(pair, 3, 3, seed=seed % 7)
        gram = gram_matrix(kspec, ds.xs)
        model, _ = fit(LossFamily.KULSIF, kspec, ds, 0.1)
        weights = hessian_weights(LossFamily.KULSIF, model, ds)
        a, b = rng.normal(size=6), rng.normal(size=6)
        assert empirical_h_norm(gram, weights, a, b, 0.3) >= 0.0


class TestTrace:
    def test_zero_weights(self, pair, kspec):
        from kernelratio.balancing import HessianWeights

        ds = sample_pair(pair, 2, 2, seed=0)
        gram = gram_matrix(kspec, ds.xs)
        assert hessian_trace(gram, HessianWeights(e=np.zeros(4))) == 0.0

    def test_kulsif_balanced_trace_is_one(self, pair, kspec):
        ds = sample_pair(pair, 5, 5, seed=0)
        gram = gram_matrix(kspec, ds.xs)
        model, _ = fit(LossFamily.KULSIF, kspec, ds, 0.1)
        w = hessian_weights(LossFamily.KULSIF, model, ds)
        assert hessian_trace(gram, w) == pytest.approx(1.0, rel=1e-14)

    def test_exp_zero_coefficients_trace_is_two(self, pair, kspec):
        ds = sample_pair(pair, 5, 5, seed=0)
        gram = gram_matrix(kspec, ds.xs)
        model, _ = fit(LossFamily.EXP, kspec, ds, 1e9)
        w = hessian_weights(LossFamily.EXP, model, ds)
        assert hessian_trace(gram, w) == pytest.approx(2.0, abs=1e-6)

    def test_identity_part_adds_n_lambda(self, pair, kspec):
        ds = sample_pair(pair, 5, 5, seed=0)
        gram = gram_matrix(kspec, ds.xs)
        model, _ = fit(LossFamily.KULSIF, kspec, ds, 0.1)
        w = hessian_weights(LossFamily.KULSIF, model, ds)
        base = hessian_trace(gram, w)
        assert hessian_trace(gram, w, 0.01) == pytest.approx(base + 10 * 0.01, rel=1e-14)

    def test_curvature_operator_norm_positive(self, pair, kspec):
        ds = sample_pair(pair, 5, 5, seed=0)
        gram = gram_matrix(kspec, ds.xs)
        model, _ = fit(LossFamily.KULSIF, kspec, ds, 0.1)
        w = hessian_weights(LossFamily.KULSIF, model, ds)
        assert curvature_operator_norm(gram, w) > 0.0


    def test_curvature_operator_norm_matches_the_full_decomposition(self, pair, kspec):
        # Only rows with e_i != 0 are decomposed; the zero rows add only
        # zero eigenvalues to the full matrix.
        ds = sample_pair(pair, 20, 20, seed=1)
        gram = gram_matrix(kspec, ds.xs)
        for family in (LossFamily.KULSIF, LossFamily.EXP):
            model, _ = fit(family, kspec, ds, 0.1)
            w = hessian_weights(family, model, ds)
            root = np.sqrt(w.e)
            full = np.linalg.eigvalsh(root[:, None] * gram.values * root[None, :] / ds.total)
            assert curvature_operator_norm(gram, w) == pytest.approx(np.max(np.abs(full)), rel=1e-13)
        assert curvature_operator_norm(gram, HessianWeights(e=np.zeros(ds.total))) == 0.0

    @pytest.mark.parametrize("family, decompositions", [(LossFamily.KULSIF, 1), (LossFamily.EXP, 4)])
    def test_selection_decomposes_each_distinct_weight_once(self, family, decompositions, pair, kspec, monkeypatch):
        # kulsif's weights depend only on the labels; exp's move with the fit.
        ds = sample_pair(pair, 8, 8, seed=2)
        gram = gram_matrix(kspec, ds.xs)
        grid = LambdaGrid(lambda0=1e-2, xi=10.0, l=4)
        fits = fit_grid(family, kspec, ds, grid, gram=gram)
        calls = []
        monkeypatch.setattr(
            balancing, "curvature_operator_norm", lambda g, w: calls.append(w) or curvature_operator_norm(g, w)
        )
        report = select_from_fits(family, gram, ds, grid, fits, SelectionRule.PRACTICAL_MJ)
        assert len(calls) == decompositions
        for (model, _), entry in zip(fits, report.per_lambda):
            w = hessian_weights(family, model, ds, gram)
            assert entry["curvature_norm"] == curvature_operator_norm(gram, w)


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
        consts = BoundConstants(
            b1=float(rng.uniform(0.1, 5.0)),
            b2=float(rng.uniform(0.1, 5.0)),
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

    def test_constants_validation(self):
        with pytest.raises(InputError):
            BoundConstants(source_r=0.7)
        with pytest.raises(InputError):
            BoundConstants(capacity_alpha=0.5)
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


class TestSelection:
    def test_single_element_grid(self, pair, kspec):
        ds = sample_pair(pair, 10, 10, seed=0)
        grid = LambdaGrid(lambda0=1e-3, xi=10.0, l=1)
        report = select_lambda(ds, LossFamily.KULSIF, kspec, grid, SelectionRule.PRACTICAL_MJ)
        assert report.chosen_lambda == pytest.approx(1e-2, rel=1e-12)
        assert report.pairwise == ()

    def test_all_pass_chooses_largest(self):
        norms = {(i, j): 0.0 for i in range(2, 6) for j in range(1, i)}
        assert choose_max_qualifying(5, norms, [1.0] * 5) == 5

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

    def test_grid_monotone_truncation(self, pair, kspec):
        ds = sample_pair(pair, 30, 30, seed=2)
        full = select_lambda(ds, LossFamily.KULSIF, kspec, GRID5, SelectionRule.PRACTICAL_MJ)
        truncated = LambdaGrid(lambda0=GRID5.lambda0, xi=GRID5.xi, l=full.chosen_index)
        again = select_lambda(ds, LossFamily.KULSIF, kspec, truncated, SelectionRule.PRACTICAL_MJ)
        assert again.chosen_lambda == full.chosen_lambda

    @given(seed=st.integers(0, 100_000), raises=st.lists(st.floats(0.0, 2.0), min_size=6, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_choice_monotone_in_thresholds(self, seed, raises):
        # Raising any subset of the thresholds, each by its own amount,
        # can only move the choice up.
        rng = np.random.default_rng(seed)
        l = int(rng.integers(2, 7))
        norms = {(i, j): float(rng.uniform(0, 2)) for i in range(2, l + 1) for j in range(1, i)}
        thresholds = [float(rng.uniform(0, 2)) for _ in range(l)]
        base = choose_max_qualifying(l, norms, thresholds)
        bigger = choose_max_qualifying(l, norms, [t + r for t, r in zip(thresholds, raises)])
        assert bigger >= base

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

    def test_fit_failure_names_lambda(self, pair, kspec, monkeypatch):
        from kernelratio import balancing
        from kernelratio.errors import NumericalError

        def broken_fit(*args, **kwargs):
            raise NumericalError("boom")

        monkeypatch.setattr(balancing, "fit", broken_fit)
        ds = sample_pair(pair, 3, 3, seed=0)
        with pytest.raises(NumericalError, match="lambda=0.001"):
            select_lambda(ds, LossFamily.KULSIF, kspec, GRID5, SelectionRule.PRACTICAL_MJ)


class TestKnownNormSelection:
    def _oracle_form(self, ctx, family, kspec, ds):
        center = lambda xs: bayes_margin(ctx, family, xs)
        return lambda coeffs, lam: population_h_form(ctx, family, center, lam, coeffs, kspec, ds.xs)

    def test_single_element_grid(self, pair, kspec):
        ds = sample_pair(pair, 10, 10, seed=0)
        ctx = OracleContext.default(pair)
        grid = LambdaGrid(lambda0=1e-3, xi=10.0, l=1)
        fits = fit_grid(LossFamily.KULSIF, kspec, ds, grid)
        report = known_norm_select(
            grid, fits, self._oracle_form(ctx, LossFamily.KULSIF, kspec, ds), BoundConstants(), ds.total
        )
        assert report.chosen_index == 1

    def test_identical_fits_choose_largest(self, pair, kspec):
        ds = sample_pair(pair, 5, 5, seed=1)
        ctx = OracleContext.default(pair)
        model, _ = fit(LossFamily.KULSIF, kspec, ds, 0.1)
        fits = [(model, None)] * GRID5.l
        report = known_norm_select(
            GRID5, fits, self._oracle_form(ctx, LossFamily.KULSIF, kspec, ds), BoundConstants(), ds.total
        )
        assert report.chosen_index == GRID5.l

    def test_nested_grid_monotonicity(self, pair, kspec):
        ds = sample_pair(pair, 100, 100, seed=4)
        ctx = OracleContext.default(pair)
        fits = fit_grid(LossFamily.KULSIF, kspec, ds, GRID5)
        form = self._oracle_form(ctx, LossFamily.KULSIF, kspec, ds)
        consts = BoundConstants()
        full = known_norm_select(GRID5, fits, form, consts, ds.total)
        for l_prefix in range(1, GRID5.l):
            prefix = LambdaGrid(lambda0=GRID5.lambda0, xi=GRID5.xi, l=l_prefix)
            sub = known_norm_select(prefix, fits[:l_prefix], form, consts, ds.total)
            assert sub.chosen_index <= full.chosen_index
