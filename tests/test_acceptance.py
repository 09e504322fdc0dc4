"""End-to-end acceptance checks, one test per shipping criterion.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or in
captured output) and enforces the stated tolerance and runtime budget.
Run the module alone with:  pytest tests/test_acceptance.py -s
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from kernelratio import (
    BalanceRule,
    BoundConstants,
    FitOptions,
    KernelSpec,
    LossFamily,
    SelectionRule,
    balance_lambda,
    bregman_error_direct,
    bregman_error_via_risk,
    empirical_h_norm,
    fit,
    gram_matrix,
    hessian_sandwich_test,
    hessian_weights,
    objective_and_gradient,
    rate_exponent,
    sample_pair,
)
from kernelratio.balancing import balance_eta, s_term
from kernelratio.data import DEFAULT_PAIR
from kernelratio.experiment import ExperimentConfig, run_experiment, run_rate_sweep
from kernelratio.losses import loss_d2, loss_d3
from kernelratio.oracle import OracleContext, densities, true_ratio
from kernelratio.solver import predict_margin

PAIR = DEFAULT_PAIR
KERNEL = KernelSpec()


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {title}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {title}: PASS")


@pytest.fixture(scope="module")
def ctx():
    return OracleContext.default(PAIR)


def test_01_closed_form_cg_equivalence():
    with criterion(1, "closed-form/CG objective equivalence"):
        start = time.monotonic()
        rng = np.random.default_rng(7)
        lams = (1e-3, 1e-1, 1.0)
        worst = 0.0
        idx = 0
        for family in (LossFamily.KULSIF, LossFamily.SQ):
            for k in range(10):
                n_half = int(rng.integers(4, 31))  # N = 2*n_half <= 60
                lam = lams[idx % 3]
                idx += 1
                ds = sample_pair(PAIR, n_half, n_half, seed=700 + k)
                _, closed = fit(family, KERNEL, ds, lam)
                _, iterated = fit(
                    family,
                    KERNEL,
                    ds,
                    lam,
                    FitOptions(method="cg", tol_grad=1e-12 * ds.total, max_iters=30000),
                )
                assert closed.method == "ClosedForm" and iterated.method == "NonlinearCG"
                worst = max(worst, abs(closed.objective - iterated.objective))
        elapsed = time.monotonic() - start
        assert worst <= 1e-9, f"worst objective gap {worst}"
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_02_gradient_finite_differences():
    with criterion(2, "objective gradient matches finite differences"):
        start = time.monotonic()
        for family in LossFamily:
            for seed in range(3):
                rng = np.random.default_rng(100 + seed)
                n_half = int(rng.integers(1, 4))  # N <= 6
                ds = sample_pair(PAIR, n_half, n_half, seed=seed)
                gram = gram_matrix(KERNEL, ds.xs)
                alpha = rng.normal(scale=0.5, size=ds.total)
                lam = float(rng.uniform(0.01, 1.0))
                _, grad = objective_and_gradient(family, gram, ds.ys, alpha, lam)
                for i in range(ds.total):
                    h = 1e-6
                    up, dn = alpha.copy(), alpha.copy()
                    up[i] += h
                    dn[i] -= h
                    vu, _ = objective_and_gradient(family, gram, ds.ys, up, lam)
                    vd, _ = objective_and_gradient(family, gram, ds.ys, dn, lam)
                    fd = (vu - vd) / (2 * h)
                    assert abs(fd - grad[i]) <= 1e-5 * max(1.0, abs(grad[i]))
        assert time.monotonic() - start < 1.0


def _seeded_models(family, count=10):
    # The sq ratio map has a pole at margin 1; the divergence identity is
    # only defined while fitted margins stay below it, so sq gets a
    # slightly stronger regularization cycle.
    models = []
    lams = (0.1, 0.3, 1.0) if family is LossFamily.SQ else (0.03, 0.1, 0.3)
    for k in range(count):
        ds = sample_pair(PAIR, 6 + 2 * k, 6 + 2 * k, seed=300 + k)
        model, report = fit(family, KERNEL, ds, lams[k % 3])
        assert report.converged
        models.append(model)
    return models


def test_03_divergence_equals_twice_excess_risk(ctx):
    with criterion(3, "divergence identity across both oracle routes"):
        start = time.monotonic()
        worst = 0.0
        for family in LossFamily:
            for model in _seeded_models(family):
                direct = bregman_error_direct(ctx, family, model)
                via = bregman_error_via_risk(ctx, family, model)
                worst = max(worst, abs(direct - via))
        elapsed = time.monotonic() - start
        assert worst <= 1e-4, f"worst route disagreement {worst}"
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_04_kulsif_divergence_is_half_l2q(ctx):
    with criterion(4, "kulsif divergence equals half the L2(Q) distance"):
        nodes, weights = ctx.quad.nodes_weights()
        _, q = densities(PAIR, nodes)
        beta = true_ratio(PAIR, nodes)
        for model in _seeded_models(LossFamily.KULSIF, count=5):
            resid = beta - predict_margin(model, nodes)
            half_l2 = 0.5 * float(weights @ (resid**2 * q))
            direct = bregman_error_direct(ctx, LossFamily.KULSIF, model)
            assert abs(direct - half_l2) <= 1e-10


def test_05_self_concordance():
    with criterion(5, "pointwise self-concordance of the loss families"):
        grid = np.linspace(-10.0, 10.0, 4001)
        for y in (-1, 1):
            for family in (LossFamily.LR, LossFamily.EXP):
                d2 = loss_d2(family, y, grid)
                d3 = loss_d3(family, y, grid)
                assert np.all(np.abs(d3) <= d2)
            for family in (LossFamily.KULSIF, LossFamily.SQ):
                assert np.all(loss_d3(family, y, grid) == 0.0)


def test_06_empirical_norm_matrix_vs_operator_form():
    with criterion(6, "empirical curvature norm matches operator expansion"):
        for family in (LossFamily.KULSIF, LossFamily.EXP):
            for seed in range(5):
                rng = np.random.default_rng(600 + seed)
                n_half = int(rng.integers(1, 6))  # N <= 10
                ds = sample_pair(PAIR, n_half, n_half, seed=seed)
                gram = gram_matrix(KERNEL, ds.xs)
                model, _ = fit(family, KERNEL, ds, 0.05)
                weights = hessian_weights(family, model, ds, gram)
                a = rng.normal(size=ds.total)
                b = rng.normal(size=ds.total)
                lam = float(rng.uniform(0.01, 1.0))

                delta = a - b
                n_total = ds.total
                h_at = [
                    sum(delta[j] * gram.values[i, j] for j in range(n_total))
                    for i in range(n_total)
                ]
                expanded = sum(weights[i] * h_at[i] ** 2 for i in range(n_total)) / n_total
                expanded += lam * sum(
                    delta[i] * delta[j] * gram.values[i, j]
                    for i in range(n_total)
                    for j in range(n_total)
                )
                value = empirical_h_norm(gram, weights, a, b, lam)
                assert abs(value - expanded) <= 1e-10


def test_07_experiment_reproduction():
    with criterion(7, "selection picks a top-2 lambda at the largest size"):
        start = time.monotonic()
        config = ExperimentConfig(seeds=tuple(range(50)), output_dir="unused")
        report = run_experiment(config)
        for loss in ("kulsif", "exp"):
            cells = [
                c for c in report["cells"] if c["loss"] == loss and c["m"] == 100 and c["n"] == 100
            ]
            assert len(cells) == 50
            top2 = float(np.mean([c["chosen_rank_by_mse"] <= 2 for c in cells]))
            assert top2 >= 0.70, f"{loss}: top-2 fraction {top2}"
        elapsed = time.monotonic() - start
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_08_balance_closed_forms():
    with criterion(8, "balancing equation closed forms"):
        rng = np.random.default_rng(8)
        for _ in range(100):
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
                delta=float(rng.uniform(0.005, 0.5)),
            )
            n_total = int(rng.integers(2, 10_000_000))
            log_term = math.log(2.0 / consts.delta)

            slow = balance_lambda(BalanceRule.SLOW_RATE, consts, n_total)
            slow_formula = 16.0 * consts.b1 * consts.radius * math.sqrt(log_term) / math.sqrt(n_total)
            assert slow == pytest.approx(slow_formula, rel=1e-12)

            fast = balance_lambda(BalanceRule.FAST_RATE, consts, n_total)
            alpha = consts.capacity_alpha
            exponent = alpha / (1.0 + 2.0 * consts.source_r * alpha + alpha)
            fast_formula = (1296.0 * consts.q0**2 / (n_total * consts.source_scale**2)) ** exponent
            assert fast == pytest.approx(fast_formula, rel=1e-12)

            for rule, lam in ((BalanceRule.SLOW_RATE, slow), (BalanceRule.FAST_RATE, fast)):
                from kernelratio.balancing import a_term

                residual = balance_eta(rule, consts) * s_term(rule, consts, n_total, lam) - a_term(
                    rule, consts, lam
                )
                assert abs(residual) <= 1e-10 * a_term(rule, consts, lam)


def test_09_error_trend_with_sample_size():
    with criterion(9, "selected-lambda error decreases with sample size"):
        result = run_rate_sweep(
            LossFamily.KULSIF, [32, 64, 128, 256, 512], 21, SelectionRule.PRACTICAL_MJ
        )
        medians = result["median_error"]
        decreasing = sum(1 for a, b in zip(medians, medians[1:]) if b < a)
        assert decreasing >= 3, f"only {decreasing} decreasing doublings: {medians}"
        assert result["slope"] < 0.0, f"slope {result['slope']}"
        assert rate_exponent(0.5, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_10_hessian_sandwich(ctx):
    with criterion(10, "empirical/population curvature sandwich"):
        start = time.monotonic()
        ds = sample_pair(PAIR, 1000, 1000, seed=42)
        report = hessian_sandwich_test(ctx, LossFamily.KULSIF, ds, 0.1, n_directions=200, seed=7)
        elapsed = time.monotonic() - start
        assert report.fraction_pass >= 0.95, f"fraction {report.fraction_pass}"
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
