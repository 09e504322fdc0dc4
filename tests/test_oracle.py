import math

import numpy as np
import pytest
from scipy import integrate

from kernelratio import (
    GaussianPairSpec,
    InputError,
    LossFamily,
    NumericalError,
    OracleContext,
    QuadratureSpec,
    QuadScheme,
    bayes_margin,
    bregman_error_direct,
    bregman_error_via_risk,
    fit,
    grid_mse,
    hessian_sandwich_test,
    population_h_form,
    population_risk,
    predict_ratio,
    sample_pair,
    true_ratio,
)
from kernelratio.losses import ratio_map
from kernelratio.oracle import (
    bayes_risk,
    default_eval_grid,
    default_quadrature,
    densities,
    reference_margin,
)
from kernelratio.solver import RatioModel, predict_margin

ALL = list(LossFamily)


@pytest.fixture(scope="module")
def ctx(pair):
    return OracleContext.default(pair)


def fitted_model(pair, kspec, family, seed=0, m=8, n=8, lam=0.05):
    ds = sample_pair(pair, m, n, seed=seed)
    model, report = fit(family, kspec, ds, lam)
    assert report.converged
    return model


class TestQuadrature:
    def test_trapezoid_weights_sum_to_length(self):
        spec = QuadratureSpec(-1.0, 3.0, 9)
        nodes, weights = spec.nodes_weights()
        assert weights.sum() == pytest.approx(4.0, rel=1e-14)
        assert nodes[0] == -1.0 and nodes[-1] == 3.0

    def test_gauss_legendre_integrates_cubics_exactly(self):
        spec = QuadratureSpec(-2.0, 5.0, 40, QuadScheme.GAUSS_LEGENDRE_COMPOSITE)
        nodes, weights = spec.nodes_weights()
        value = float(weights @ (nodes**3 - 2.0 * nodes + 1.0))
        exact = (5.0**4 - (-2.0) ** 4) / 4.0 - (5.0**2 - (-2.0) ** 2) + 7.0
        assert value == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lo": 1.0, "hi": 0.0, "n_nodes": 11},
            {"lo": 0.0, "hi": 1.0, "n_nodes": 2},
            {"lo": 0.0, "hi": 1.0, "n_nodes": 10},  # trapezoid wants odd counts
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(InputError):
            QuadratureSpec(**kwargs)

    def test_default_domain_covers_both_components(self, pair):
        quad = default_quadrature(pair)
        assert quad.lo == pytest.approx(pair.mu_q - 8.0 * pair.sigma_q)
        assert quad.hi == pytest.approx(pair.mu_q + 8.0 * pair.sigma_q)
        assert quad.lo < pair.mu_p - 8.0 * pair.sigma_p
        assert quad.hi > pair.mu_p + 8.0 * pair.sigma_p

    def test_default_eval_grid(self, pair):
        grid = default_eval_grid(pair)
        assert grid.shape == (500,)
        assert grid[0] == pytest.approx(pair.mu_q - 3.0 * pair.sigma_q)
        assert grid[-1] == pytest.approx(pair.mu_p + 3.0 * pair.sigma_p)

    @pytest.mark.parametrize("family", [LossFamily.KULSIF, LossFamily.EXP])
    def test_doubling_nodes_barely_moves_the_risk(self, family, pair, kspec):
        model = fitted_model(pair, kspec, family)
        coarse = OracleContext(pair, default_quadrature(pair, 20001), default_eval_grid(pair))
        fine = OracleContext(pair, default_quadrature(pair, 40001), default_eval_grid(pair))
        a = population_risk(coarse, family, model)
        b = population_risk(fine, family, model)
        assert abs(a - b) <= 1e-7

    def test_trapezoid_agrees_with_gauss_legendre(self, pair, kspec):
        model = fitted_model(pair, kspec, LossFamily.KULSIF)
        quad_gl = QuadratureSpec(
            default_quadrature(pair).lo,
            default_quadrature(pair).hi,
            4000,
            QuadScheme.GAUSS_LEGENDRE_COMPOSITE,
        )
        trap = OracleContext.default(pair)
        gl = OracleContext(pair, quad_gl, default_eval_grid(pair))
        assert population_risk(trap, LossFamily.KULSIF, model) == pytest.approx(
            population_risk(gl, LossFamily.KULSIF, model), abs=1e-9
        )


class TestTrueRatio:
    def test_equal_pair_is_identically_one(self):
        same = GaussianPairSpec(1.0, 2.0, 1.0, 2.0)
        xs = np.linspace(-5.0, 5.0, 11)
        np.testing.assert_allclose(true_ratio(same, xs), 1.0, rtol=0, atol=0)

    def test_reference_point_value(self, pair):
        assert true_ratio(pair, 3.0) == pytest.approx(math.sqrt(10.0) * math.exp(-0.9), rel=1e-12)

    def test_integrates_to_one_under_q(self, pair, ctx):
        nodes, weights = ctx.quad.nodes_weights()
        _, q = densities(pair, nodes)
        total = float(weights @ (true_ratio(pair, nodes) * q))
        assert total == pytest.approx(1.0, abs=1e-6)


class TestPopulationRisk:
    def test_zero_margin_reference_values(self, ctx):
        zero = lambda xs: np.zeros_like(np.asarray(xs, dtype=float))
        assert population_risk(ctx, LossFamily.LR, zero) == pytest.approx(math.log(2.0), abs=1e-12)
        assert population_risk(ctx, LossFamily.KULSIF, zero) == pytest.approx(0.0, abs=1e-12)
        assert population_risk(ctx, LossFamily.EXP, zero) == pytest.approx(1.0, abs=1e-12)

    def test_non_finite_integrand_names_the_node(self, ctx):
        bad = lambda xs: np.full(np.shape(xs), np.nan)
        with pytest.raises(NumericalError, match="node"):
            population_risk(ctx, LossFamily.KULSIF, bad)

    def test_bayes_margin_minimizes_risk(self, ctx):
        # Perturbing the optimal margin can only increase the risk.
        for family in ALL:
            base = bayes_risk(ctx, family)
            for shift in (-0.15, 0.2):
                bumped = lambda xs, s=shift: bayes_margin(ctx, family, xs) + s
                assert population_risk(ctx, family, bumped) >= base - 1e-12


class TestBayesMargin:
    def test_balance_point_values(self, ctx, pair):
        # x* where the densities cross: log ratio vanishes.
        from scipy.optimize import brentq

        from kernelratio.oracle import log_true_ratio

        x_star = brentq(lambda x: log_true_ratio(pair, x), 2.0, 4.0)
        assert bayes_margin(ctx, LossFamily.LR, x_star) == pytest.approx(0.0, abs=1e-9)
        assert bayes_margin(ctx, LossFamily.KULSIF, x_star) == pytest.approx(1.0, abs=1e-9)
        assert bayes_margin(ctx, LossFamily.SQ, x_star) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("family", ALL)
    def test_ratio_map_recovers_the_true_ratio(self, family, ctx, pair):
        xs = ctx.eval_grid
        beta = true_ratio(pair, xs)
        recovered = ratio_map(family, bayes_margin(ctx, family, xs))
        if family is LossFamily.SQ:
            # The affine link compresses tiny ratios into margins that
            # round to -1, so the round trip only resolves beta above
            # float granularity; check relative accuracy there and
            # absolute smallness below.
            resolvable = beta >= 1e-6
            np.testing.assert_allclose(recovered[resolvable], beta[resolvable], rtol=1e-9)
            assert np.all(recovered[~resolvable] <= 1e-6)
        else:
            np.testing.assert_allclose(recovered, beta, rtol=1e-9)


class TestBregmanRoutes:
    @pytest.mark.parametrize("family", ALL)
    def test_zero_at_the_true_ratio(self, family, ctx):
        center = lambda xs: bayes_margin(ctx, family, xs)
        assert abs(bregman_error_direct(ctx, family, center)) <= 1e-10

    @pytest.mark.parametrize("family", ALL)
    def test_nonnegative_and_routes_agree(self, family, ctx, pair, kspec):
        model = fitted_model(pair, kspec, family, seed=3, lam=0.08)
        direct = bregman_error_direct(ctx, family, model)
        via = bregman_error_via_risk(ctx, family, model)
        assert direct >= 0.0
        assert via >= -1e-8
        assert abs(direct - via) <= 1e-4

    def test_kulsif_divergence_is_half_l2q_distance(self, ctx, pair, kspec):
        model = fitted_model(pair, kspec, LossFamily.KULSIF, seed=5, lam=0.02)
        nodes, weights = ctx.quad.nodes_weights()
        _, q = densities(pair, nodes)
        resid = true_ratio(pair, nodes) - predict_margin(model, nodes)
        half_l2 = 0.5 * float(weights @ (resid**2 * q))
        assert bregman_error_direct(ctx, LossFamily.KULSIF, model) == pytest.approx(
            half_l2, abs=1e-10
        )

    def test_kulsif_divergence_against_adaptive_quadrature(self, ctx, pair, kspec):
        # Fully independent route: adaptive quadrature on the integrand.
        model = fitted_model(pair, kspec, LossFamily.KULSIF, seed=5, lam=0.02)

        def integrand(x):
            p, q = densities(pair, x)
            return 0.5 * (true_ratio(pair, x) - predict_margin(model, np.array([x]))[0]) ** 2 * q

        value, _ = integrate.quad(integrand, ctx.quad.lo, ctx.quad.hi, limit=300)
        assert bregman_error_direct(ctx, LossFamily.KULSIF, model) == pytest.approx(value, abs=1e-8)

    def test_exp_exclusion_mass_reported(self, ctx, pair, kspec):
        model = fitted_model(pair, kspec, LossFamily.EXP, seed=2, lam=0.05)
        value, excluded = bregman_error_direct(ctx, LossFamily.EXP, model, with_diagnostics=True)
        assert value >= 0.0
        assert 0.0 <= excluded < 1e-6  # fitted margins stay far from the pole


class TestPopulationHForm:
    def test_zero_coefficients(self, ctx, pair, kspec):
        ds = sample_pair(pair, 4, 4, seed=0)
        zero_center = lambda xs: np.zeros(np.shape(np.asarray(xs))[0])
        value = population_h_form(
            ctx, LossFamily.KULSIF, zero_center, 0.1, np.zeros(ds.total), kspec, ds.xs
        )
        assert value == 0.0

    def test_kulsif_form_is_q_weighted_l2_plus_rkhs(self, ctx, pair, kspec):
        ds = sample_pair(pair, 4, 4, seed=1)
        rng = np.random.default_rng(0)
        coeffs = rng.normal(size=ds.total)
        lam = 0.3
        zero_center = lambda xs: np.zeros(np.shape(np.asarray(xs))[0])
        value = population_h_form(ctx, LossFamily.KULSIF, zero_center, lam, coeffs, kspec, ds.xs)

        from kernelratio.kernel import cross_matrix, gram_matrix

        nodes, weights = ctx.quad.nodes_weights()
        _, q = densities(pair, nodes)
        h_values = cross_matrix(kspec, nodes.reshape(-1, 1), ds.xs) @ coeffs
        expected = 0.5 * float(weights @ (h_values**2 * q))
        expected += lam * float(coeffs @ (gram_matrix(kspec, ds.xs).values @ coeffs))
        assert value == pytest.approx(expected, rel=1e-12)


class TestGridMse:
    def test_flat_lr_model_matches_direct_loop(self, ctx, pair, kspec):
        ds = sample_pair(pair, 3, 3, seed=0)
        model = RatioModel(
            kernel=kspec, points=ds.xs, alpha=np.zeros(ds.total), lam=0.1, family=LossFamily.LR
        )
        by_hand = sum((1.0 - true_ratio(pair, float(x))) ** 2 for x in ctx.eval_grid)
        by_hand /= ctx.eval_grid.size
        assert grid_mse(ctx, model) == pytest.approx(by_hand, rel=1e-12)

    def test_mean_is_order_free(self, ctx, pair, kspec):
        ds = sample_pair(pair, 3, 3, seed=0)
        model, _ = fit(LossFamily.KULSIF, kspec, ds, 0.1)
        errors = (predict_ratio(model, ctx.eval_grid) - true_ratio(pair, ctx.eval_grid)) ** 2
        rng = np.random.default_rng(1)
        shuffled = rng.permutation(errors)
        assert grid_mse(ctx, model) == pytest.approx(float(shuffled.mean()), rel=1e-12)


    def test_precomputed_margins_score_bitwise_like_the_model(self, ctx, pair, kspec):
        for family in ALL:
            model = fitted_model(pair, kspec, family)
            nodes, _ = ctx.quad.nodes_weights()
            node_margins = predict_margin(model, nodes)
            grid_margins = predict_margin(model, ctx.eval_grid)
            assert grid_mse(ctx, model, grid_margins) == grid_mse(ctx, model)
            assert population_risk(ctx, family, node_margins) == population_risk(ctx, family, model)
            with pytest.raises(InputError):
                population_risk(ctx, family, grid_margins)


class TestSandwich:
    def test_tiny_dataset_is_diagnostic_only(self, ctx, pair, kspec):
        ds = sample_pair(pair, 1, 1, seed=0)
        ref = reference_margin(ctx, LossFamily.KULSIF, kspec)
        report = hessian_sandwich_test(ctx, LossFamily.KULSIF, ds, 0.1, ref, 16, seed=0)
        assert report.n_directions == 16
        assert 0.0 <= report.fraction_pass <= 1.0

    def test_direction_count_validated(self, ctx, pair, kspec):
        ds = sample_pair(pair, 2, 2, seed=0)
        ref = reference_margin(ctx, LossFamily.KULSIF, kspec)
        with pytest.raises(InputError):
            hessian_sandwich_test(ctx, LossFamily.KULSIF, ds, 0.1, ref, 0, seed=0)

    def test_reference_margin_for_quadratic_families_is_zero(self, ctx, kspec):
        ref = reference_margin(ctx, LossFamily.SQ, kspec)
        np.testing.assert_array_equal(ref(np.linspace(-1, 1, 5)), np.zeros(5))

    def test_curved_family_reference_fit_runs(self, ctx, kspec):
        ref = reference_margin(ctx, LossFamily.EXP, kspec, n_ref=40, lambda_ref=1e-3, seed=1)
        values = ref(np.linspace(0.0, 4.0, 7))
        assert np.all(np.isfinite(values))
