import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from kernelratio import (
    GaussianPairSpec,
    InputError,
    KernelSpec,
    LossFamily,
    NumericalError,
    OracleContext,
    QuadratureSpec,
    bayes_margin,
    bregman_error_direct,
    bregman_error_via_risk,
    fit,
    gram_matrix,
    grid_mse,
    hessian_sandwich_test,
    kernel_eval,
    population_risk,
    predict_ratio,
    sample_pair,
    true_ratio,
)
from kernelratio import oracle, solver
from kernelratio.losses import loss_value, ratio_map
from kernelratio.oracle import (
    _h_form_integrals,
    _integrate,
    bayes_risk,
    densities,
    population_risks,
)
from kernelratio.solver import RatioModel, predict_margin

ALL = list(LossFamily)


def gauss_legendre(lo, hi, n_nodes):
    """Composite 10-point Gauss-Legendre panels totalling about n_nodes nodes.

    A rule independent of the library's trapezoid, kept here as a reference.
    """
    panels = max(1, round(n_nodes / 10))
    base_x, base_w = np.polynomial.legendre.leggauss(10)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    weights = (half[:, None] * base_w[None, :]).ravel()
    return nodes, weights


def risk_by_rule(ctx, family, model, nodes, weights):
    """The population risk of a model by a given fixed quadrature rule."""
    margins = predict_margin(model, nodes)
    p, q = densities(ctx.pair, nodes)
    integrand = 0.5 * loss_value(family, 1.0, margins) * p + 0.5 * loss_value(family, -1.0, margins) * q
    return float(weights @ integrand)


def noise_rows(seen, rows=1):
    """An integrand of seeded noise, which no level converges on; records its nodes."""
    rng = np.random.default_rng(0)

    def integrand(nodes):
        seen.append(nodes.copy())
        return rng.random((rows, nodes.shape[0]))

    return integrand


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
        nodes, weights = gauss_legendre(-2.0, 5.0, 40)
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
        quad = OracleContext.default(pair).quad
        assert quad.lo == pytest.approx(pair.mu_q - 8.0 * pair.sigma_q)
        assert quad.hi == pytest.approx(pair.mu_q + 8.0 * pair.sigma_q)
        assert quad.lo < pair.mu_p - 8.0 * pair.sigma_p
        assert quad.hi > pair.mu_p + 8.0 * pair.sigma_p

    def test_default_eval_grid(self, pair):
        grid = OracleContext.default(pair).eval_grid
        assert grid.shape == (500,)
        assert grid[0] == pytest.approx(pair.mu_q - 3.0 * pair.sigma_q)
        assert grid[-1] == pytest.approx(pair.mu_p + 3.0 * pair.sigma_p)

    @pytest.mark.parametrize("family", [LossFamily.KULSIF, LossFamily.EXP])
    def test_doubling_nodes_barely_moves_the_risk(self, family, pair, kspec):
        model = fitted_model(pair, kspec, family)
        coarse = OracleContext.default(pair)
        fine = OracleContext(pair, QuadratureSpec(*pair.span(), 40001), coarse.eval_grid)
        a = population_risk(coarse, family, model)
        b = population_risk(fine, family, model)
        assert abs(a - b) <= 1e-7

    def test_trapezoid_agrees_with_gauss_legendre(self, pair, kspec):
        model = fitted_model(pair, kspec, LossFamily.KULSIF)
        trap = OracleContext.default(pair)
        nodes, weights = gauss_legendre(trap.quad.lo, trap.quad.hi, 4000)
        assert population_risk(trap, LossFamily.KULSIF, model) == pytest.approx(
            risk_by_rule(trap, LossFamily.KULSIF, model, nodes, weights), abs=1e-9
        )


class TestNestedQuadrature:
    def test_rows_together_equal_rows_alone_bitwise(self, ctx, pair):
        # The narrow-bandwidth fit refines past the first level; the others stop there.
        models = [
            fitted_model(pair, KernelSpec(bandwidth=bandwidth), LossFamily.EXP, lam=lam)
            for bandwidth, lam in ((1.0, 0.05), (0.01, 0.05), (1.0, 0.5))
        ]
        together = population_risks(
            ctx, LossFamily.EXP, lambda nodes: np.stack([predict_margin(model, nodes) for model in models])
        )
        alone = [population_risk(ctx, LossFamily.EXP, model) for model in models]
        assert together.tolist() == alone

    def test_rows_stopping_at_different_levels_keep_their_values(self):
        quad = QuadratureSpec(-10.0, 10.0, 20001)
        rows = [lambda x: np.exp(-0.5 * x * x), lambda x: np.exp(-0.5 * (x / 0.01) ** 2)]
        together = _integrate(lambda x: np.stack([row(x) for row in rows]), quad, "test")
        alone = [_integrate(lambda x, row=row: row(x)[None, :], quad, "test")[0] for row in rows]
        assert together.tolist() == alone
        assert together == pytest.approx([math.sqrt(2.0 * math.pi), 0.01 * math.sqrt(2.0 * math.pi)], rel=1e-12)

    @pytest.mark.parametrize("family", ALL)
    def test_matches_the_finest_rule_at_the_default_pair(self, family, ctx, pair, kspec):
        model = fitted_model(pair, kspec, family)
        nodes, weights = ctx.quad.nodes_weights()
        fixed = risk_by_rule(ctx, family, model, nodes, weights)
        assert population_risk(ctx, family, model) == pytest.approx(fixed, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("family", [LossFamily.KULSIF, LossFamily.LR, LossFamily.EXP])
    @pytest.mark.parametrize(
        "sigma_p, bandwidth",
        [(0.05, 1.0), (0.01, 1.0), (0.003, 1.0), (2.0**-0.5, 0.1), (2.0**-0.5, 0.03), (2.0**-0.5, 0.01)],
    )
    def test_matches_the_finest_rule_on_narrow_cases(self, family, sigma_p, bandwidth):
        narrow = GaussianPairSpec(mu_p=4.0, sigma_p=sigma_p, mu_q=2.0, sigma_q=5.0**0.5)
        narrow_ctx = OracleContext.default(narrow)
        model = fitted_model(narrow, KernelSpec(bandwidth=bandwidth), family)
        nodes, weights = narrow_ctx.quad.nodes_weights()
        fixed = risk_by_rule(narrow_ctx, family, model, nodes, weights)
        assert population_risk(narrow_ctx, family, model) == pytest.approx(fixed, rel=1e-10, abs=0.0)

    def test_node_count_adapts_up_to_the_finest_rule(self, ctx, pair, monkeypatch):
        entries = []

        def counted(*args):
            block = kernel_cross_matrix(*args)
            entries.append(block.size)
            return block

        kernel_cross_matrix = solver.cross_matrix
        monkeypatch.setattr(solver, "cross_matrix", counted)

        def nodes_evaluated(bandwidth):
            ds = sample_pair(pair, 100, 100, seed=0)
            model, _ = fit(LossFamily.KULSIF, KernelSpec(bandwidth=bandwidth), ds, 0.01)
            entries.clear()
            population_risk(ctx, LossFamily.KULSIF, model)
            return sum(entries) // ds.total

        assert nodes_evaluated(1.0) == 1251
        assert 1251 < nodes_evaluated(0.01) <= ctx.quad.n_nodes

    def test_never_evaluates_more_than_the_finest_rule(self, ctx):
        seen = []
        _integrate(noise_rows(seen, rows=3), ctx.quad, "noise")
        assert [level.size for level in seen] == [1251, 1250, 2500, 5000, 10000]
        assert sum(level.size for level in seen) == ctx.quad.n_nodes

    def test_non_finite_value_names_the_integrand_and_its_first_node(self):
        quad = QuadratureSpec(0.0, 16.0, 17)

        def integrand(nodes):
            rows = np.stack([nodes * nodes, nodes * nodes])  # no level converges
            rows[0, nodes == 13.0] = np.nan  # both among the last level's midpoints
            rows[1, nodes == 11.0] = np.inf
            return rows

        with pytest.raises(NumericalError, match=r"^non-finite test integrand at node x=11\.0$"):
            _integrate(integrand, quad, "test")

    @given(
        lo=st.floats(-1e3, 1e3),
        width=st.floats(1e-3, 1e3),
        n_nodes=st.integers(1, 5000).map(lambda k: 2 * k + 1),
    )
    def test_levels_partition_the_finest_nodes(self, lo, width, n_nodes):
        quad = QuadratureSpec(lo, lo + width, n_nodes)
        seen = []
        _integrate(noise_rows(seen), quad, "noise")
        union = np.sort(np.concatenate(seen))
        finest, _ = quad.nodes_weights()
        assert np.array_equal(union, finest)


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

    def test_exp_loss_overflowing_where_a_density_has_no_mass_adds_nothing(self):
        # Under a narrow P, the optimal exp margin's loss and curvature
        # e^{-v} = sqrt(q/p) overflow in Q's tails, where p has underflowed
        # to 0.  The Bayes risk is still int sqrt(pq), the Bhattacharyya
        # coefficient sqrt(2 sigma_p sigma_q / (sigma_p^2 + sigma_q^2)).
        pair = GaussianPairSpec(mu_p=0.0, sigma_p=0.1, mu_q=0.0, sigma_q=1.0)
        ctx = OracleContext.default(pair)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert bayes_risk(ctx, LossFamily.EXP) == pytest.approx(math.sqrt(0.2 / 1.01), rel=1e-12)
            report = hessian_sandwich_test(ctx, LossFamily.EXP, sample_pair(pair, 5, 5, seed=0), 0.1, 4, 0)
        assert report.n_directions == 4

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
            # tanh(r/2) compresses tiny ratios into margins that
            # round to -1, so the round trip only resolves beta above
            # float granularity; check relative accuracy there and
            # absolute smallness below.
            resolvable = beta >= 1e-6
            np.testing.assert_allclose(recovered[resolvable], beta[resolvable], rtol=1e-9)
            assert np.all(recovered[~resolvable] <= 1e-6)
        else:
            np.testing.assert_allclose(recovered, beta, rtol=1e-9)


class TestInfiniteBayesRisk:
    # P twice as wide as Q: E_q[beta^2] = int p^2/q diverges, and kulsif's
    # optimal margin is beta itself.
    CHI2_PAIR = GaussianPairSpec(mu_p=0.0, sigma_p=2.0, mu_q=0.0, sigma_q=1.0)

    def test_kulsif_rejects_a_pair_with_infinite_chi2_naming_it(self):
        ctx = OracleContext.default(self.CHI2_PAIR)
        zero = lambda xs: np.zeros(np.shape(xs))
        message = (
            r"^kulsif's Bayes risk and divergence need a finite E_q\[beta\^2\], so sigma_p\^2 < 2 sigma_q\^2, "
            r"which fails for the pair mu_p=0\.0, sigma_p=2\.0, mu_q=0\.0, sigma_q=1\.0$"
        )
        with pytest.raises(InputError, match=message):
            bayes_risk(ctx, LossFamily.KULSIF)
        for route in (bregman_error_direct, bregman_error_via_risk):
            with pytest.raises(InputError, match=message):
                route(ctx, LossFamily.KULSIF, zero)

    @pytest.mark.parametrize("family", [LossFamily.LR, LossFamily.EXP, LossFamily.SQ])
    def test_the_other_families_score_the_same_pair(self, family):
        ctx = OracleContext.default(self.CHI2_PAIR)
        zero = lambda xs: np.zeros(np.shape(xs))
        via = bregman_error_via_risk(ctx, family, zero)
        assert math.isfinite(bayes_risk(ctx, family))
        assert bregman_error_direct(ctx, family, zero) == pytest.approx(via, rel=1e-9)

    def test_a_kulsif_margin_past_the_float_range_names_the_risk_node(self):
        # p^2/q peaks at x = 0.2, well inside the interval, but its integral
        # is e^806, so the optimal margin is refused before any quadrature.
        # A margin of 1e200 overflows kulsif's loss at every node instead,
        # and the first node is named.
        ctx = OracleContext.default(GaussianPairSpec(mu_p=0.0, sigma_p=0.1, mu_q=-40.0, sigma_q=1.0))
        with pytest.raises(InputError, match=r"^kulsif's Bayes risk integrates p\^2/q, whose integral e\^806 is past"):
            bayes_risk(ctx, LossFamily.KULSIF)
        huge = lambda xs: np.full(np.shape(xs), 1e200)
        with pytest.raises(NumericalError, match=r"^non-finite risk integrand at node x=-48\.0$"):
            population_risk(ctx, LossFamily.KULSIF, huge)


def kulsif_closed_form_bayes_risk(pair):
    """-1/4 int p^2/q for a Gaussian pair with sigma_p^2 < 2 sigma_q^2."""
    room = 2.0 * pair.sigma_q**2 - pair.sigma_p**2
    chi2 = pair.sigma_q**2 / (pair.sigma_p * math.sqrt(room)) * math.exp((pair.mu_p - pair.mu_q) ** 2 / room)
    return -0.25 * chi2


class TestTruncatedKulsifIntegrand:
    # kulsif's Bayes integrand is -1/4 p^2/q.  With sigma_q = 1 and sigma_p
    # near sqrt(2), p^2/q reaches past the 8-sigma interval, and the share
    # of its mass left outside is the Bayes risk's relative error.
    @pytest.mark.parametrize("sigma_p, mass", [(1.2, "2.1e-09"), (1.3, "8.4e-06"), (1.4, "0.11")])
    def test_kulsif_rejects_a_pair_whose_p2_over_q_the_interval_truncates(self, sigma_p, mass):
        pair = GaussianPairSpec(mu_p=0.0, sigma_p=sigma_p, mu_q=0.0, sigma_q=1.0)
        ctx = OracleContext.default(pair)
        message = (
            rf"^kulsif's Bayes risk integrates p\^2/q, which has {re.escape(mass)} of its mass outside the "
            rf"oracle's interval \[{-8 * sigma_p!r}, {8 * sigma_p!r}\], over the bound 1e-10, for the pair "
            rf"mu_p=0\.0, sigma_p={sigma_p!r}, mu_q=0\.0, sigma_q=1\.0$"
        )
        zero = lambda xs: np.zeros(np.shape(xs))
        with pytest.raises(InputError, match=message):
            bayes_risk(ctx, LossFamily.KULSIF)
        for route in (bregman_error_direct, bregman_error_via_risk):
            with pytest.raises(InputError, match=message):
                route(ctx, LossFamily.KULSIF, zero)

    @pytest.mark.parametrize(
        "pair",
        [GaussianPairSpec(mu_p=1.0, sigma_p=1.0, mu_q=0.0, sigma_q=1.0), GaussianPairSpec()],
        ids=["mu_p=1", "default"],
    )
    def test_an_admitted_pair_matches_the_closed_form(self, pair):
        # mu_p = 1 leaves 1.3e-12 of p^2/q outside the interval.
        assert bayes_risk(OracleContext.default(pair), LossFamily.KULSIF) == pytest.approx(
            kulsif_closed_form_bayes_risk(pair), rel=1e-11, abs=0.0
        )

    @pytest.mark.parametrize("family", [LossFamily.LR, LossFamily.EXP, LossFamily.SQ])
    def test_the_other_families_score_a_pair_kulsif_refuses(self, family):
        ctx = OracleContext.default(GaussianPairSpec(mu_p=0.0, sigma_p=1.4, mu_q=0.0, sigma_q=1.0))
        zero = lambda xs: np.zeros(np.shape(xs))
        via = bregman_error_via_risk(ctx, family, zero)
        assert math.isfinite(bayes_risk(ctx, family)) and math.isfinite(via)
        assert bregman_error_direct(ctx, family, zero) == pytest.approx(via, rel=1e-9)


class TestModelFamily:
    @pytest.mark.parametrize("route", [population_risk, bregman_error_via_risk, bregman_error_direct])
    def test_a_model_scored_under_another_family_raises_before_any_quadrature(
        self, ctx, pair, kspec, route, monkeypatch
    ):
        # Scored under lr's loss, this exp fit read 0.0720 on both routes;
        # under its own it reads 0.1468.
        model = fitted_model(pair, kspec, LossFamily.EXP, m=10, n=10, lam=1e-2)
        integrated = []
        monkeypatch.setattr(oracle, "_integrate", lambda *args: integrated.append(args))
        with pytest.raises(InputError, match=r"^the model was fitted under exp's loss, not lr's$"):
            route(ctx, LossFamily.LR, model)
        assert integrated == []


class TestBregmanRoutes:
    @pytest.mark.parametrize("family", ALL)
    def test_zero_at_the_true_ratio(self, family, ctx):
        center = lambda xs: bayes_margin(ctx, family, xs)
        assert abs(bregman_error_direct(ctx, family, center)) <= 1e-10

    def test_exp_divergence_is_zero_at_its_optimal_margin_under_a_narrow_p(self):
        # In Q's tails the true ratio underflows to 0 while the optimal
        # margin's e^{-v/2} overflows: that term adds nothing, not 0 * inf.
        ctx = OracleContext.default(GaussianPairSpec(mu_p=0.0, sigma_p=0.1, mu_q=0.0, sigma_q=1.0))
        center = lambda xs: bayes_margin(ctx, LossFamily.EXP, xs)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert abs(bregman_error_direct(ctx, LossFamily.EXP, center)) <= 1e-10
            assert bregman_error_via_risk(ctx, LossFamily.EXP, center) == 0.0

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

    def test_exp_divergence_of_a_fitted_model_is_nonnegative(self, ctx, pair, kspec):
        model = fitted_model(pair, kspec, LossFamily.EXP, seed=2, lam=0.05)
        assert bregman_error_direct(ctx, LossFamily.EXP, model) >= 0.0

    @pytest.mark.parametrize(
        "family, coeff, value",
        [(LossFamily.LR, 40.0, 54.228), (LossFamily.EXP, -10.0, 9.06e7), (LossFamily.EXP, -30.0, 1.134e25)],
    )
    def test_routes_agree_on_a_bump_at_three(self, ctx, family, coeff, value):
        # lr's margins reach 80, where phi(g(v)) and phi'(g(v)) cancel, and
        # exp's ratio e^{2v} falls below 1e-12, near phi''s pole at zero, on
        # 7.8% and 100% of the nodes.
        model = RatioModel(KernelSpec(), [[3.0]], [coeff], 0.1, family)
        direct = bregman_error_direct(ctx, family, model)
        assert direct == pytest.approx(bregman_error_via_risk(ctx, family, model), rel=1e-12)
        assert direct == pytest.approx(value, rel=1e-3)

    def test_routes_agree_on_an_sq_fit_past_the_ratio_pole(self, ctx, pair, kspec):
        # The sq ratio g(v) = (1 + v)/(1 - v) has a pole at margin 1, which
        # this fit's margins pass.
        model = fitted_model(pair, kspec, LossFamily.SQ, seed=13, m=3, n=3, lam=1e-3)
        assert np.max(predict_margin(model, ctx.quad.nodes_weights()[0])) > 1.0
        direct = bregman_error_direct(ctx, LossFamily.SQ, model)
        assert direct == pytest.approx(bregman_error_via_risk(ctx, LossFamily.SQ, model), rel=1e-12)
        assert direct == pytest.approx(21.375, rel=1e-4)

    @pytest.mark.parametrize("family", ALL)
    @given(bumps=st.lists(st.tuples(st.floats(-2.0, 8.0), st.floats(-30.0, 30.0)), min_size=1, max_size=3))
    @example(bumps=[(3.0, 30.0)])  # lr margins to 60, sq margins past 1
    @example(bumps=[(3.0, -30.0)])  # exp ratios below 1e-12 on every node
    @settings(max_examples=25)
    def test_routes_agree_on_any_small_model(self, ctx, family, bumps):
        # Acceptance 03's tolerance, on models whose margins leave every
        # family's comfortable range.
        points, coeffs = zip(*bumps)
        model = RatioModel(KernelSpec(), [[x] for x in points], list(coeffs), 0.1, family)
        via = bregman_error_via_risk(ctx, family, model)
        assert abs(bregman_error_direct(ctx, family, model) - via) <= 1e-4 * max(1.0, abs(via))

    def test_a_risk_past_the_float_range_raises_on_both_routes(self, ctx):
        # exp's loss and divergence at this bump leave the float range from
        # margin 709.78 on, first at node 2.77; at a bump of 300 both routes
        # still give the same finite value.
        bump = lambda height: RatioModel(KernelSpec(), [[3.0]], [height], 0.1, LossFamily.EXP)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            via = bregman_error_via_risk(ctx, LossFamily.EXP, bump(300.0))
            assert bregman_error_direct(ctx, LossFamily.EXP, bump(300.0)) == pytest.approx(via, rel=1e-12)
            for route, integrand in ((bregman_error_via_risk, "risk"), (bregman_error_direct, "divergence")):
                message = rf"^non-finite {integrand} integrand at node x=2\.772785093023927$"
                with pytest.raises(NumericalError, match=message):
                    route(ctx, LossFamily.EXP, bump(360.0))

    def test_non_finite_divergence_integrand_names_the_node(self, ctx):
        start = ctx.quad.nodes_weights()[0][::16]  # the first level's nodes
        first = start[start > 1.0][0]
        bad = lambda xs: np.where(xs > 1.0, np.nan, 0.0)
        with pytest.raises(NumericalError, match=rf"^non-finite divergence integrand at node x={first}$"):
            bregman_error_direct(ctx, LossFamily.KULSIF, bad)


class TestPopulationHForm:
    def test_zero_coefficients(self, ctx, pair, kspec):
        ds = sample_pair(pair, 4, 4, seed=0)
        value = _h_form_integrals(ctx, LossFamily.KULSIF, kspec, ds.xs, [np.zeros(ds.total)])[0]
        assert value == 0.0

    def test_kulsif_form_is_q_weighted_l2_plus_rkhs(self, ctx, pair, kspec):
        ds = sample_pair(pair, 4, 4, seed=1)
        rng = np.random.default_rng(0)
        coeffs = rng.normal(size=ds.total)
        lam = 0.3
        value = _h_form_integrals(ctx, LossFamily.KULSIF, kspec, ds.xs, [coeffs])[0]
        value += lam * float(coeffs @ (gram_matrix(kspec, ds.xs).values @ coeffs))

        from kernelratio.kernel import cross_matrix

        nodes, weights = ctx.quad.nodes_weights()
        _, q = densities(pair, nodes)
        h_values = cross_matrix(kspec, nodes.reshape(-1, 1), ds.xs) @ coeffs
        expected = 0.5 * float(weights @ (h_values**2 * q))
        expected += lam * sum(
            ci * cj * kernel_eval(kspec, xi, xj) for ci, xi in zip(coeffs, ds.xs) for cj, xj in zip(coeffs, ds.xs)
        )
        assert value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("family", [LossFamily.KULSIF, LossFamily.EXP])
    def test_rows_share_one_kernel_pass_yet_equal_one_row_calls(self, ctx, pair, kspec, family):
        ds = sample_pair(pair, 6, 6, seed=2)
        rows = np.random.default_rng(5).normal(size=(4, ds.total))
        joint = _h_form_integrals(ctx, family, kspec, ds.xs, rows)
        for k, row in enumerate(rows):
            assert joint[k] == _h_form_integrals(ctx, family, kspec, ds.xs, [row])[0]


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

    @pytest.mark.parametrize("eval_grid, message", [([], "nonempty"), ([0.0, 2.0, 1.0], "sorted ascending")])
    def test_eval_grid_must_be_nonempty_and_sorted(self, ctx, eval_grid, message):
        with pytest.raises(InputError, match=f"eval_grid must be {message}"):
            OracleContext(pair=ctx.pair, quad=ctx.quad, eval_grid=np.array(eval_grid))

    def test_precomputed_margins_score_bitwise_like_the_model(self, ctx, pair, kspec):
        for family in ALL:
            model = fitted_model(pair, kspec, family)
            grid_margins = predict_margin(model, ctx.eval_grid)
            assert grid_mse(ctx, model, grid_margins) == grid_mse(ctx, model)
            with pytest.raises(InputError):
                grid_mse(ctx, model, grid_margins[:-1])
            with pytest.raises(InputError):  # the risk takes a model, not margins
                population_risk(ctx, family, grid_margins)


class TestSandwich:
    def test_tiny_dataset_is_diagnostic_only(self, ctx, pair):
        ds = sample_pair(pair, 1, 1, seed=0)
        report = hessian_sandwich_test(ctx, LossFamily.KULSIF, ds, 0.1, 16, seed=0)
        assert report.n_directions == 16
        assert 0.0 <= report.fraction_pass <= 1.0

    def test_direction_count_validated(self, ctx, pair):
        ds = sample_pair(pair, 2, 2, seed=0)
        with pytest.raises(InputError):
            hessian_sandwich_test(ctx, LossFamily.KULSIF, ds, 0.1, 0, seed=0)

    def test_non_finite_curvature_form_raises_naming_the_node(self, ctx, pair, monkeypatch):
        ds = sample_pair(pair, 3, 3, seed=0)
        monkeypatch.setattr(oracle, "bayes_margin", lambda ctx, family, xs: np.full(np.shape(xs), np.nan))
        with pytest.raises(NumericalError, match=f"^non-finite curvature form integrand at node x={ctx.quad.lo}$"):
            hessian_sandwich_test(ctx, LossFamily.LR, ds, 0.1, 4, seed=0)

    def test_an_unconverged_fit_is_not_scored(self, ctx, pair, monkeypatch):
        ds = sample_pair(pair, 3, 3, seed=0)
        real_fit = oracle.fit

        def unconverged_fit(*args, **kwargs):
            model, report = real_fit(*args, **kwargs)
            return model, dataclasses.replace(report, converged=False, grad_norm=0.25)

        monkeypatch.setattr(oracle, "fit", unconverged_fit)
        with pytest.raises(NumericalError, match=r"lambda=0\.1 did not converge \(grad_norm=0\.25\)"):
            hessian_sandwich_test(ctx, LossFamily.KULSIF, ds, 0.1, 4, seed=0)
