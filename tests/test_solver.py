import dataclasses
import json
import math
import os
import re
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernelratio import (
    FitOptions,
    InputError,
    LambdaGrid,
    LossFamily,
    NumericalError,
    RatioModel,
    fit,
    gram_matrix,
    load_model,
    margins_at,
    objective_and_gradient,
    predict_margin,
    predict_ratio,
    ratio_map,
    sample_pair,
    save_model,
)
from kernelratio import solver
from kernelratio.balancing import fit_grid
from kernelratio.data import LabeledDataset, dataset_sha256
from kernelratio.experiment import ExperimentConfig
from kernelratio.kernel import KernelFamily, KernelSpec, cross_matrix

ALL = list(LossFamily)

VALID_MODEL_DOC = {
    "kernel_family": "gaussian",
    "bandwidth": 1.0,
    "loss": "lr",
    "lambda": 0.1,
    "points": [[0.0], [1.0]],
    "alpha": [0.5, -0.5],
    "seed": None,
    "dataset_hash": None,
}


def dense_lu_closed_form(family, K, ys, lam):
    """Reference: one LU solve of the full system ((1/N) E K + lam I) alpha = -d0 / N."""
    ys = np.asarray(ys, dtype=np.float64)
    n_total = ys.shape[0]
    if family is LossFamily.KULSIF:
        e, d0 = np.where(ys > 0, 0.0, 1.0), np.where(ys > 0, -1.0, 0.0)
    else:
        e, d0 = np.full(n_total, 2.0), 2.0 * (0.0 - ys)
    return np.linalg.solve(e[:, None] * K / n_total + lam * np.eye(n_total), 0.0 - d0 / n_total)


@st.composite
def block_datasets(draw, p_counts=st.integers(1, 40)):
    """(dataset, kernel) with m from p_counts P points and n in [1, 40] Q points."""
    m, n, dim = draw(p_counts), draw(st.integers(1, 40)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ds = LabeledDataset.from_blocks(rng.normal(0.5, size=(m, dim)), rng.normal(size=(n, dim)))
    family = draw(st.sampled_from(list(KernelFamily)))
    return ds, KernelSpec(family, draw(st.floats(0.5, 2.0)) * math.sqrt(dim))


@st.composite
def lanczos_cases(draw):
    """(family, dataset, kernel) whose closed-form block has 128 to 300 rows, so a setup builds Lanczos bases.

    kulsif with P points, kulsif with none, and sq, in d = 1 or 3.
    """
    shapes = [(LossFamily.KULSIF, st.integers(1, 40)), (LossFamily.KULSIF, st.just(0)), (LossFamily.SQ, None)]
    family, m_counts = draw(st.sampled_from(shapes))
    curved, dim = draw(st.integers(solver.MIN_LANCZOS_ROWS, 300)), draw(st.sampled_from([1, 3]))
    m = draw(st.integers(1, curved - 1) if m_counts is None else m_counts)
    n = curved if family is LossFamily.KULSIF else curved - m
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ds = LabeledDataset.from_blocks(rng.normal(0.5, size=(m, dim)), rng.normal(size=(n, dim)))
    kernel = KernelSpec(draw(st.sampled_from(list(KernelFamily))), draw(st.floats(0.5, 2.0)) * math.sqrt(dim))
    return family, ds, kernel


def solve_outcome(system, lam):
    """The solved coefficients' bytes, or the NumericalError's message."""
    try:
        return system.solve(lam).tobytes()
    except NumericalError as exc:
        return str(exc)


def two_point_dataset():
    # One point from each class at the two component means.
    return LabeledDataset(xs=np.array([[4.0], [2.0]]), ys=np.array([1, -1]))


class TestObjective:
    def test_zero_coefficients_kulsif(self, pair, kspec):
        ds = sample_pair(pair, 5, 5, seed=0)
        K = gram_matrix(kspec, ds.xs)
        value, grad = objective_and_gradient(LossFamily.KULSIF, K, ds.ys, np.zeros(10), 0.1)
        assert value == 0.0
        assert grad.shape == (10,)

    def test_zero_coefficients_lr(self, pair, kspec):
        ds = sample_pair(pair, 5, 5, seed=0)
        K = gram_matrix(kspec, ds.xs)
        value, _ = objective_and_gradient(LossFamily.LR, K, ds.ys, np.zeros(10), 0.1)
        assert value == pytest.approx(math.log(2.0), rel=1e-15)

    @pytest.mark.parametrize("family", ALL)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradient_matches_finite_differences(self, family, seed, pair, kspec):
        rng = np.random.default_rng(seed)
        n_half = int(rng.integers(1, 4))
        ds = sample_pair(pair, n_half, n_half, seed=seed)
        K = gram_matrix(kspec, ds.xs)
        alpha = rng.normal(scale=0.5, size=ds.total)
        lam = float(rng.uniform(0.01, 1.0))
        _, grad = objective_and_gradient(family, K, ds.ys, alpha, lam)
        for i in range(ds.total):
            h = 1e-6 * max(1.0, abs(alpha[i]))
            up, dn = alpha.copy(), alpha.copy()
            up[i] += h
            dn[i] -= h
            vu, _ = objective_and_gradient(family, K, ds.ys, up, lam)
            vd, _ = objective_and_gradient(family, K, ds.ys, dn, lam)
            fd = (vu - vd) / (2 * h)
            assert abs(fd - grad[i]) <= 1e-5 * max(1.0, abs(grad[i]))


class TestClosedForm:
    def test_two_point_kulsif_matches_hand_solve(self, kspec):
        ds = two_point_dataset()
        lam = 0.1
        K = gram_matrix(kspec, ds.xs).values
        d_mat = np.diag([0.0, 1.0])
        system = d_mat @ K / 2.0 + lam * np.eye(2)
        expected = np.linalg.solve(system, np.array([1.0, 0.0]) / 2.0)
        alpha = solver.ClosedFormSystem(LossFamily.KULSIF, K, ds.ys).solve(lam)
        np.testing.assert_allclose(alpha, expected, rtol=1e-12)
        assert alpha[0] == pytest.approx(1.0 / (2.0 * lam), rel=1e-12)

    def test_single_q_point_gives_zero(self, kspec):
        ds = LabeledDataset(xs=np.array([[2.0]]), ys=np.array([-1]))
        K = gram_matrix(kspec, ds.xs).values
        alpha = solver.ClosedFormSystem(LossFamily.KULSIF, K, ds.ys).solve(0.1)
        assert alpha[0] == 0.0

    def test_sq_scalar_solve_value(self):
        # ((2/1) * 2 + 1) alpha = 2  =>  alpha = 0.4
        alpha = solver.ClosedFormSystem(LossFamily.SQ, np.array([[2.0]]), np.array([1])).solve(1.0)
        assert alpha[0] == pytest.approx(0.4, rel=1e-14)

    def test_no_closed_form_for_curved_losses(self):
        with pytest.raises(InputError):
            solver.ClosedFormSystem(LossFamily.LR, np.eye(2), np.array([1, -1]))

    @given(
        case=block_datasets(),
        family=st.sampled_from([LossFamily.KULSIF, LossFamily.SQ]),
        lam=st.floats(1e-3, 10.0),
    )
    def test_matches_a_dense_lu_solve_of_the_full_system(self, case, family, lam):
        ds, spec = case
        K = gram_matrix(spec, ds.xs).values
        alpha = solver.ClosedFormSystem(family, K, ds.ys).solve(lam)
        reference = dense_lu_closed_form(family, K, ds.ys, lam)
        if family is LossFamily.SQ:  # no flat rows: the very same system
            assert alpha.tobytes() == reference.tobytes()
        else:
            assert np.max(np.abs(alpha - reference)) <= 1e-9 * np.max(np.abs(reference))

    @given(
        case=block_datasets(),
        family=st.sampled_from([LossFamily.KULSIF, LossFamily.SQ]),
        lam=st.floats(1e-3, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_permuting_within_blocks_permutes_alpha(self, case, family, lam, seed):
        ds, spec = case
        rng = np.random.default_rng(seed)
        order = np.concatenate([rng.permutation(ds.m), ds.m + rng.permutation(ds.n)])
        alpha = solver.ClosedFormSystem(family, gram_matrix(spec, ds.xs).values, ds.ys).solve(lam)
        permuted_gram = gram_matrix(spec, ds.xs[order]).values
        permuted = solver.ClosedFormSystem(family, permuted_gram, ds.ys[order]).solve(lam)
        assert np.max(np.abs(permuted - alpha[order])) <= 1e-9 * np.max(np.abs(alpha))

    @given(case=block_datasets(p_counts=st.just(0)), lam=st.floats(1e-3, 10.0))
    @example(  # the LU of its system has a negative pivot
        case=(LabeledDataset.from_blocks([], np.random.default_rng(0).normal(size=(3, 1))), KernelSpec()),
        lam=1e-3,
    )
    def test_kulsif_with_only_q_points_is_positive_zero(self, case, lam):
        ds, spec = case
        alpha = solver.ClosedFormSystem(LossFamily.KULSIF, gram_matrix(spec, ds.xs).values, ds.ys).solve(lam)
        assert np.all(alpha == 0.0) and not np.any(np.signbit(alpha))

    @given(
        case=block_datasets(p_counts=st.integers(0, 40)),
        family=st.sampled_from([LossFamily.KULSIF, LossFamily.SQ]),
        first=st.one_of(st.floats(1e-4, 1.0), st.just(1e-320)),
        xi=st.floats(1.5, 10.0),
        length=st.integers(1, 5),
    )
    @example(  # kulsif with no P points: every coefficient is +0.0
        case=(LabeledDataset.from_blocks([], np.random.default_rng(0).normal(size=(3, 1))), KernelSpec()),
        family=LossFamily.KULSIF,
        first=1e-3,
        xi=10.0,
        length=3,
    )
    @example(  # a subnormal lambda: the kulsif P rows overflow
        case=(LabeledDataset.from_blocks([[4.0]], [[2.0], [3.0]]), KernelSpec()),
        family=LossFamily.KULSIF,
        first=1e-320,
        xi=10.0,
        length=2,
    )
    def test_grid_fits_equal_one_lambda_fits_bitwise(self, case, family, first, xi, length):
        # fit_grid shares one closed-form setup over the grid; every fit must
        # still be bitwise the fit at that lambda alone, the first failure
        # must be the one-lambda failure, and the Gram matrix, whose blocks
        # the setup copies, must be left as it was.
        ds, spec = case
        gram = gram_matrix(spec, ds.xs)
        gram_bytes = gram.values.tobytes()
        grid = LambdaGrid.from_first(first, xi, length)
        alone = []
        for lam in map(float, grid.values):
            try:
                alpha = solver.ClosedFormSystem(family, gram, ds.ys).solve(lam)
                alone.append((alpha, fit(family, spec, ds, lam)[1]))
            except NumericalError as exc:
                with pytest.raises(NumericalError) as failure:
                    fit_grid(family, spec, ds, grid, gram=gram)
                assert str(failure.value) == f"fit failed at lambda={lam}: {exc}"
                break
        else:
            fits = fit_grid(family, spec, ds, grid, gram=gram)
            for (model, report), (alpha, one_report) in zip(fits, alone):
                assert model.alpha.tobytes() == alpha.tobytes()
                assert repr(report) == repr(one_report)
            if family is LossFamily.KULSIF and ds.m == 0:
                assert all(not np.any(np.signbit(model.alpha)) for model, _ in fits)
        assert gram.values.tobytes() == gram_bytes

    def test_solve_leaves_the_shared_block_as_it_was(self, pair, kspec):
        ds = sample_pair(pair, 6, 7, seed=1)
        gram = gram_matrix(kspec, ds.xs)
        system = solver.ClosedFormSystem(LossFamily.KULSIF, gram, ds.ys)
        block = system.block.tobytes()
        fresh = solver.ClosedFormSystem(LossFamily.KULSIF, gram, ds.ys)
        assert system.solve(0.1).tobytes() == fresh.solve(0.1).tobytes()
        assert system.block.tobytes() == block
        with pytest.raises(NumericalError, match="not finite at lambda=1e-320"):
            system.solve(1e-320)
        assert system.block.tobytes() == block

    def test_setup_and_solve_hold_at_most_two_curved_blocks(self, pair, kspec):
        ds = sample_pair(pair, 200, 200, seed=4)
        K = gram_matrix(kspec, ds.xs).values
        n_curved = 200  # kulsif's Q rows
        tracemalloc.start()
        try:
            solver.ClosedFormSystem(LossFamily.KULSIF, K, ds.ys).solve(0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * n_curved**2 * 8 + 64 * 1024

    def test_fit_rejects_a_system_set_up_for_other_data(self, pair, kspec):
        ds = sample_pair(pair, 6, 7, seed=1)
        gram = gram_matrix(kspec, ds.xs)
        system = solver.ClosedFormSystem(LossFamily.KULSIF, gram, ds.ys)
        model, _ = fit(LossFamily.KULSIF, kspec, ds, 0.1, gram=gram, system=system)
        fresh = solver.ClosedFormSystem(LossFamily.KULSIF, gram, ds.ys)
        assert model.alpha.tobytes() == fresh.solve(0.1).tobytes()
        flipped = LabeledDataset(ds.xs, -ds.ys)
        other_gram = gram_matrix(kspec, ds.xs)
        for family, data, other in (
            (LossFamily.SQ, ds, gram),
            (LossFamily.KULSIF, ds, other_gram),
            (LossFamily.KULSIF, flipped, gram),
        ):
            with pytest.raises(InputError, match="set up for another family, Gram matrix or labels"):
                fit(family, kspec, data, 0.1, gram=other, system=system)

    @settings(max_examples=30)
    @given(case=lanczos_cases(), lam=st.floats(1e-3, 10.0))
    def test_lanczos_solves_match_lu_and_grid_fits_equal_one_lambda_fits(self, case, lam):
        # The cases above stay below MIN_LANCZOS_ROWS, on the LU path; these
        # blocks are large enough for the Lanczos bases.
        family, ds, spec = case
        gram = gram_matrix(spec, ds.xs)
        system = solver.ClosedFormSystem(family, gram, ds.ys)
        block = system.block.tobytes()
        alpha = system.solve(lam)
        reference = dense_lu_closed_form(family, gram.values, ds.ys, lam)
        assert np.max(np.abs(alpha - reference)) <= 1e-9 * np.max(np.abs(reference))
        grid = LambdaGrid.from_first(lam, 10.0, 3)
        fits = fit_grid(family, spec, ds, grid, gram=gram)
        for (model, _), value in zip(fits, map(float, grid.values)):
            alone = solver.ClosedFormSystem(family, gram, ds.ys).solve(value)
            assert model.alpha.tobytes() == alone.tobytes() == system.solve(value).tobytes()
            if family is LossFamily.KULSIF and ds.m == 0:
                assert np.all(model.alpha == 0.0) and not np.any(np.signbit(model.alpha))
        assert system.block.tobytes() == block

    def test_a_lambda_below_the_diagonals_resolution_solves_by_lu(self, pair, kspec, monkeypatch):
        ds = sample_pair(pair, 64, 64, seed=0)
        K = gram_matrix(kspec, ds.xs).values
        system = solver.ClosedFormSystem(LossFamily.SQ, K, ds.ys)
        assert system.lanczos is not None
        lam = 1e-20  # the diagonal entries are 2 / 128
        assert np.all(system.block.diagonal() + lam == system.block.diagonal())
        monkeypatch.setattr(solver, "MIN_LANCZOS_ROWS", 10**9)
        lu_only = solver.ClosedFormSystem(LossFamily.SQ, K, ds.ys)
        assert lu_only.lanczos is None
        assert solve_outcome(system, lam) == solve_outcome(lu_only, lam)

    def test_a_basis_that_reaches_its_cap_leaves_every_lambda_to_lu(self, monkeypatch):
        # Unit-spaced points at bandwidth 0.5: the block's spectrum fills
        # [0.73, 1.27] / 64 without decaying, so no short basis spans it.
        points = np.arange(128.0)[:, None]
        ds = LabeledDataset.from_blocks(points[::2], points[1::2])
        K = gram_matrix(KernelSpec(KernelFamily.GAUSSIAN, 0.5), ds.xs).values
        system = solver.ClosedFormSystem(LossFamily.SQ, K, ds.ys)
        assert system.lanczos is None
        monkeypatch.setattr(solver, "MIN_LANCZOS_ROWS", 10**9)
        lu_only = solver.ClosedFormSystem(LossFamily.SQ, K, ds.ys)
        for lam in (1e-3, 1e-1, 10.0):
            assert solve_outcome(system, lam) == solve_outcome(lu_only, lam)


class TestFit:
    @pytest.mark.parametrize("family", ALL)
    def test_a_plain_array_serves_as_the_gram_matrix(self, pair, kspec, family):
        ds = sample_pair(pair, 6, 7, seed=1)
        gram = gram_matrix(kspec, ds.xs)
        grid = LambdaGrid(lambda0=1e-2, xi=10.0, l=2)
        assert fit(family, kspec, ds, 0.1, gram=gram.values)[0].alpha.tobytes() == (
            fit(family, kspec, ds, 0.1, gram=gram)[0].alpha.tobytes()
        )
        from_array = fit_grid(family, kspec, ds, grid, gram=gram.values)
        from_gram = fit_grid(family, kspec, ds, grid, gram=gram)
        assert [m.alpha.tobytes() for m, _ in from_array] == [m.alpha.tobytes() for m, _ in from_gram]

    @pytest.mark.parametrize("family, method", [(LossFamily.EXP, "NonlinearCG"), (LossFamily.KULSIF, "ClosedForm")])
    def test_report_to_dict_is_asdict_in_keys_order_and_values(self, family, method, pair, kspec):
        _, report = fit(family, kspec, sample_pair(pair, 5, 5, seed=2), 0.1)
        assert report.method == method
        plain, deep = report.to_dict(), dataclasses.asdict(report)
        assert list(plain.items()) == list(deep.items())
        assert [type(value) for value in plain.values()] == [type(value) for value in deep.values()]
        assert json.dumps(plain) == json.dumps(deep)

    @pytest.mark.parametrize("family", [LossFamily.KULSIF, LossFamily.SQ])
    @pytest.mark.parametrize("lam", [1e-3, 10.0])
    @pytest.mark.parametrize("m, n, seed", [(10, 7, 1), (0, 5, 2)])
    def test_closed_form_report_is_objective_and_gradient_at_its_alpha(self, family, lam, m, n, seed, pair, kspec):
        # One gradient expression serves the report and objective_and_gradient.
        ds = sample_pair(pair, m, n, seed=seed)
        model, report = fit(family, kspec, ds, lam)
        objective, grad = objective_and_gradient(family, gram_matrix(kspec, ds.xs), ds.ys, model.alpha, lam)
        assert report.method == "ClosedForm"
        assert report.objective == objective
        assert report.grad_norm == float(np.linalg.norm(grad))

    def test_fit_two_point_kulsif_reaches_closed_form(self, kspec):
        ds = two_point_dataset()
        model, report = fit(LossFamily.KULSIF, kspec, ds, 0.1, FitOptions(method="cg"))
        K = gram_matrix(kspec, ds.xs).values
        expected = solver.ClosedFormSystem(LossFamily.KULSIF, K, ds.ys).solve(0.1)
        np.testing.assert_allclose(model.alpha, expected, atol=1e-8)
        assert report.method == "NonlinearCG"

    @pytest.mark.parametrize("family", ALL)
    def test_huge_lambda_shrinks_to_zero(self, family, pair, kspec):
        ds = sample_pair(pair, 5, 5, seed=2)
        model, _ = fit(family, kspec, ds, 1e6)
        assert np.linalg.norm(model.alpha) <= 1e-3

    @pytest.mark.parametrize("family", [LossFamily.KULSIF, LossFamily.SQ])
    @pytest.mark.parametrize("lam", [1e-1, 1.0])
    def test_cg_matches_closed_form_objective(self, family, lam, pair, kspec):
        ds = sample_pair(pair, 10, 10, seed=4)
        _, closed = fit(family, kspec, ds, lam)
        _, iterated = fit(
            family, kspec, ds, lam, FitOptions(method="cg", tol_grad=1e-12 * ds.total, max_iters=30000)
        )
        assert closed.method == "ClosedForm"
        assert abs(closed.objective - iterated.objective) <= 1e-9

    @pytest.mark.parametrize("family", [LossFamily.LR, LossFamily.EXP])
    @pytest.mark.parametrize("lam, seed", [(1e-2, 0), (1e-1, 1), (1e-1, 2)])
    def test_permuting_within_blocks_leaves_the_margin_function(self, family, lam, seed, pair, kspec):
        # K is ill-conditioned, so alpha is no invariant: a permuted fit's
        # alpha moved by up to 4.1% at this tolerance, over seeds 0-5 and
        # both lambdas.  Its margins moved by at most 1.5e-6 relative.
        ds = sample_pair(pair, 12, 15, seed=seed)
        rng = np.random.default_rng(seed)
        order = np.concatenate([rng.permutation(ds.m), ds.m + rng.permutation(ds.n)])
        opts = FitOptions(tol_grad=1e-12 * ds.total, max_iters=30000)
        model, report = fit(family, kspec, ds, lam, opts)
        permuted, permuted_report = fit(family, kspec, LabeledDataset(ds.xs[order], ds.ys[order]), lam, opts)
        assert report.converged and permuted_report.converged
        xs = np.linspace(-2.0, 8.0, 101)
        margins = predict_margin(model, xs)
        assert np.max(np.abs(predict_margin(permuted, xs) - margins)) <= 1e-5 * np.max(np.abs(margins))

    def test_sq_equivalence_at_moderate_lambda_is_tight(self, pair, kspec):
        ds = sample_pair(pair, 10, 10, seed=4)
        _, closed = fit(LossFamily.SQ, kspec, ds, 0.01)
        _, iterated = fit(
            LossFamily.SQ,
            kspec,
            ds,
            0.01,
            FitOptions(method="cg", tol_grad=1e-12 * ds.total, max_iters=30000),
        )
        assert abs(closed.objective - iterated.objective) <= 1e-10

    def test_monotone_descent(self, pair, kspec):
        # Each CG step lowers the objective, so a longer run never reports a higher one.
        ds = sample_pair(pair, 8, 8, seed=5)
        values = [
            fit(LossFamily.EXP, kspec, ds, 0.01, FitOptions(method="cg", max_iters=k))[1].objective
            for k in range(1, 101)
        ]
        assert np.all(np.diff(values) <= 0.0)

    def test_exp_trajectory_on_a_default_experiment_cell(self):
        # Pins the CG iterate sequence: reassociating its float operations
        # (say, d/N + lambda*alpha as (d + N*lambda*alpha)/N) moves these counts.
        config = ExperimentConfig()
        ds = sample_pair(config.pair, 10, 10, seed=3)
        gram = gram_matrix(config.kernel, ds.xs)
        reports = [report for _, report in fit_grid(LossFamily.EXP, config.kernel, ds, config.grid, gram=gram)]
        assert [r.iterations for r in reports] == [5000, 1030, 289, 148, 64]
        assert [r.converged for r in reports] == [False, True, True, True, True]

    @given(
        family=st.sampled_from(ALL),
        method=st.sampled_from(["auto", "cg"]),
        m=st.integers(0, 6),
        n=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        lam=st.floats(1e-3, 1.0),
        max_iters=st.integers(1, 20),
    )
    # CG's one step solves this one-point sq fit: converged, though it stopped at the cap.
    @example(family=LossFamily.SQ, method="cg", m=0, n=1, seed=0, lam=0.1, max_iters=1)
    @example(family=LossFamily.LR, method="auto", m=6, n=6, seed=6, lam=0.05, max_iters=5000)
    @example(family=LossFamily.EXP, method="auto", m=6, n=6, seed=6, lam=0.05, max_iters=5000)
    def test_converged_means_gradient_below_tolerance(self, family, method, m, n, seed, lam, max_iters, pair, kspec):
        # Whichever path solved it and wherever it stopped, a fit counts as
        # converged exactly when its final gradient norm meets the default
        # tolerance.  Only CG stops unconverged, and only at a cap below the
        # default 5000: the closed form (0 iterations) always converges here.
        ds = sample_pair(pair, m, n, seed=seed)
        _, report = fit(family, kspec, ds, lam, FitOptions(method=method, max_iters=max_iters))
        assert report.converged == (report.grad_norm <= 1e-8 * ds.total)
        assert report.converged or report.iterations == max_iters < 5000

    def test_nonconvergence_is_reported_not_raised(self, pair, kspec):
        ds = sample_pair(pair, 10, 10, seed=7)
        _, report = fit(LossFamily.EXP, kspec, ds, 1e-3, FitOptions(method="cg", max_iters=3))
        assert not report.converged

    def test_rkhs_norm_decreases_with_lambda(self, pair, kspec):
        ds = sample_pair(pair, 20, 20, seed=8)
        K = gram_matrix(kspec, ds.xs).values
        norms = []
        for lam in np.geomspace(1e-3, 10.0, 9):
            alpha = solver.ClosedFormSystem(LossFamily.KULSIF, K, ds.ys).solve(float(lam))
            norms.append(float(alpha @ (K @ alpha)))
        assert np.all(np.diff(norms) <= 1e-12)

    def test_invalid_lambda(self, pair, kspec):
        ds = sample_pair(pair, 2, 2, seed=0)
        with pytest.raises(InputError):
            fit(LossFamily.KULSIF, kspec, ds, 0.0)
        with pytest.raises(InputError, match="unknown method 'newton'"):
            fit(LossFamily.KULSIF, kspec, ds, 0.1, FitOptions(method="newton"))

    @pytest.mark.parametrize("family", [LossFamily.LR, LossFamily.KULSIF])  # CG and the closed form
    def test_gram_matrix_of_another_size_is_rejected(self, family, pair, kspec):
        ds = sample_pair(pair, 4, 4, seed=0)
        gram = gram_matrix(kspec, sample_pair(pair, 5, 5, seed=0).xs)
        with pytest.raises(InputError, match=r"the Gram matrix has shape \(10, 10\), not \(8, 8\)"):
            fit(family, kspec, ds, 0.1, gram=gram)


class TestPredict:
    @given(
        family_margin=st.one_of(
            st.tuples(st.just(LossFamily.LR), st.floats(710.0, 2000.0)),
            st.tuples(st.just(LossFamily.EXP), st.floats(355.0, 2000.0)),
        )
    )
    def test_a_ratio_past_the_float_range_is_inf(self, family_margin):
        # g(v) = e^v (lr) or e^{2v} (exp) leaves the float range past
        # 709.78: the ratio is inf, not capped at a finite value, and numpy
        # stays quiet.
        family, v = family_margin
        # A one-point Gaussian-kernel model whose margin at its point is v exactly.
        model = RatioModel(KernelSpec(KernelFamily.GAUSSIAN, 1.0), np.zeros((1, 1)), np.array([v]), 0.1, family)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert ratio_map(family, v) == math.inf
            assert predict_ratio(model, 0.0) == math.inf

    def test_zero_model_ratios(self, pair, kspec):
        ds = sample_pair(pair, 3, 3, seed=0)
        for family, expected in ((LossFamily.LR, 1.0), (LossFamily.KULSIF, 0.0)):
            model, _ = fit(family, kspec, ds, 1e6)
            model = type(model)(
                kernel=model.kernel,
                points=model.points,
                alpha=np.zeros_like(model.alpha),
                lam=model.lam,
                family=family,
            )
            grid = np.linspace(-3.0, 7.0, 11)
            np.testing.assert_allclose(predict_ratio(model, grid), expected, atol=0)

    def test_two_point_margin_expansion(self, kspec):
        ds = two_point_dataset()
        model, _ = fit(LossFamily.KULSIF, kspec, ds, 0.1)
        K = gram_matrix(kspec, ds.xs).values
        manual = model.alpha[0] * K[0, 0] + model.alpha[1] * K[1, 0]
        assert predict_margin(model, 4.0) == pytest.approx(manual, rel=1e-12)

    def test_dimension_mismatch(self, pair, kspec):
        ds = sample_pair(pair, 2, 2, seed=1)
        model, _ = fit(LossFamily.KULSIF, kspec, ds, 0.1)
        with pytest.raises(InputError):
            predict_margin(model, np.zeros((3, 2)))

    def test_two_dimensional_inputs(self, kspec):
        rng = np.random.default_rng(3)
        xp = rng.normal(loc=1.0, size=(6, 2))
        xq = rng.normal(loc=-1.0, size=(8, 2))
        ds = LabeledDataset.from_blocks(xp, xq)
        model, report = fit(LossFamily.LR, kspec, ds, 0.1)
        assert report.converged
        single = predict_ratio(model, np.array([0.5, -0.5]))
        batch = predict_ratio(model, np.array([[0.5, -0.5], [1.0, 1.0]]))
        assert single == pytest.approx(batch[0], rel=1e-12)
        assert np.all(batch >= 0.0)
        with pytest.raises(InputError, match="point has dimension 3, model expects 2"):
            predict_margin(model, np.zeros(3))


    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("chunk_entries", [None, 40])
    def test_margins_at_equals_each_model_bitwise(self, dim, chunk_entries, monkeypatch):
        rng = np.random.default_rng(dim)
        ds = LabeledDataset.from_blocks(rng.normal(0.5, size=(6, dim)), rng.normal(size=(7, dim)))
        spec = KernelSpec(bandwidth=math.sqrt(dim))
        models = [fit(family, spec, ds, lam)[0] for family in ALL for lam in (1e-2, 1.0)]
        xs = rng.normal(size=(23, dim))
        whole = [cross_matrix(spec, xs, ds.xs) @ model.alpha for model in models]
        if chunk_entries is not None:  # 40 // 13 points: tiles of 8 rows, a short last one
            monkeypatch.setattr(solver, "TILE_ENTRIES", chunk_entries)
        rows = margins_at(spec, ds.xs, [model.alpha for model in models], xs)
        assert rows.shape == (len(models), xs.shape[0])
        for row, model, reference in zip(rows, models, whole):
            assert np.array_equal(row, predict_margin(model, xs))
            np.testing.assert_allclose(row, reference, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n_points", [1, 13, 1000, 9000])
    def test_margins_at_builds_cache_sized_tiles_of_eight_rows(self, n_points, monkeypatch):
        rng = np.random.default_rng(n_points)
        points, xs = rng.normal(size=(n_points, 1)), rng.normal(size=(1001, 1))
        spec = KernelSpec()
        tiles = []

        def recording_cross_matrix(kernel, a, b):
            block = cross_matrix(kernel, a, b)
            tiles.append(block.shape)
            return block

        monkeypatch.setattr(solver, "cross_matrix", recording_cross_matrix)
        alpha = rng.normal(size=n_points)
        rows = margins_at(spec, points, [alpha], xs)
        assert sum(n_rows for n_rows, _ in tiles) == xs.shape[0]
        assert all(n_rows * n_cols <= max(solver.TILE_ENTRIES, 8 * n_points) for n_rows, n_cols in tiles)
        assert all(n_rows % 8 == 0 for n_rows, _ in tiles[:-1])
        whole = cross_matrix(spec, xs, points) @ alpha
        np.testing.assert_allclose(rows[0], whole, rtol=1e-12, atol=1e-12 * np.max(np.abs(whole)))

    def test_far_points_and_huge_coefficients_predict_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            huge = RatioModel(KernelSpec(), np.array([[0.0], [1.0]]), np.array([1e308, 1e308]), 0.1, LossFamily.LR)
            assert predict_ratio(huge, 0.5) == math.inf  # the margin overflows
            # 2e200 apart, the kernel value is the offset 1, so the margin is 1.
            far = RatioModel(KernelSpec(), np.array([[1e200]]), np.array([1.0]), 0.1, LossFamily.LR)
            assert predict_ratio(far, -1e200) == math.e

    def test_margins_at_rejects_no_points_and_a_mismatched_alpha(self):
        xs = np.zeros((3, 1))
        with pytest.raises(InputError, match=r"^an expansion needs at least one point$"):
            margins_at(KernelSpec(), np.zeros((0, 1)), [np.zeros(0)], xs)
        message = r"^alphas\[1\] has shape \(3,\), not \(2,\) for the points$"
        with pytest.raises(InputError, match=message):
            margins_at(KernelSpec(), np.zeros((2, 1)), [np.zeros(2), np.zeros(3)], xs)


@pytest.mark.parametrize("lam", [0.0, -0.1, math.inf])
def test_a_model_needs_a_positive_finite_lambda(lam):
    with pytest.raises(InputError, match=rf"^lambda must be positive, got {lam!r}$"):
        RatioModel(KernelSpec(), np.zeros((1, 1)), np.ones(1), lam, LossFamily.KULSIF)


@pytest.mark.parametrize("alpha", [[[0.5], [0.25]], [[[0.5, 0.25]]], 0.5])
def test_a_model_needs_a_flat_coefficient_vector(alpha):
    points = np.zeros((np.size(alpha), 1))
    message = f"alpha must be a flat vector, got shape {np.shape(alpha)}"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        RatioModel(KernelSpec(), points, alpha, 0.1, LossFamily.KULSIF)


class TestPersistence:
    def test_round_trip(self, pair, kspec, tmp_path):
        ds = sample_pair(pair, 4, 4, seed=3)
        model, _ = fit(LossFamily.EXP, kspec, ds, 0.1)
        path = tmp_path / "model.json"
        save_model(model, str(path), seed=3, dataset_hash=dataset_sha256(ds))
        loaded, doc = load_model(str(path))
        np.testing.assert_array_equal(loaded.alpha, model.alpha)
        np.testing.assert_array_equal(loaded.points, model.points)
        assert loaded.family is LossFamily.EXP
        assert doc["seed"] == 3

    def test_a_byte_order_mark_loads_the_same_model(self, pair, kspec, tmp_path):
        ds = sample_pair(pair, 4, 4, seed=3)
        model, _ = fit(LossFamily.EXP, kspec, ds, 0.1)
        path = tmp_path / "model.json"
        save_model(model, str(path), seed=3)
        plain = load_model(str(path))
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        marked = load_model(str(path))
        assert marked[1] == plain[1]
        assert solver.model_to_dict(marked[0]) == solver.model_to_dict(plain[0])

    @pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"])
    def test_a_file_that_is_not_utf8_is_rejected_naming_it(self, tmp_path, mark):
        path = tmp_path / "m.json"
        path.write_bytes(mark + b'{"loss": "\xe9"}')
        message = f"cannot read model file {path}: 'utf-8' codec can't decode byte 0xe9 in position 10"
        with pytest.raises(InputError, match=f"^{re.escape(message)}"):
            load_model(str(path))

    def test_a_deeply_nested_file_is_rejected_naming_it(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"points": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
        message = f"cannot read model file {path}: maximum recursion depth exceeded"
        with pytest.raises(InputError, match=f"^{re.escape(message)}"):
            load_model(str(path))

    def test_serialization_is_deterministic(self, pair, kspec, tmp_path):
        ds = sample_pair(pair, 4, 4, seed=3)
        model, _ = fit(LossFamily.EXP, kspec, ds, 0.1)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, str(p1), seed=3)
        save_model(model, str(p2), seed=3)
        assert p1.read_bytes() == p2.read_bytes()

    def test_refit_is_bit_identical(self, pair, kspec):
        ds = sample_pair(pair, 10, 10, seed=3)
        a, _ = fit(LossFamily.EXP, kspec, ds, 0.1)
        b, _ = fit(LossFamily.EXP, kspec, ds, 0.1)
        assert np.array_equal(a.alpha, b.alpha)

    def test_a_repeated_key_is_rejected_naming_it(self, tmp_path):
        path = tmp_path / "m.json"
        text = json.dumps(VALID_MODEL_DOC)
        path.write_text(text.replace('"alpha": [0.5, -0.5]', '"alpha": [0.5, -0.5], "alpha": [1.0, 2.0]'), encoding="utf-8")
        message = f"cannot read model file {path}: repeated key 'alpha'"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            load_model(str(path))

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        for doc in [
            {"loss": "kulsif"},
            [1, 2],
            {**VALID_MODEL_DOC, "points": [[0.0]], "alpha": None},
            {**VALID_MODEL_DOC, "alpha": [0.5, float("nan")]},
            {**VALID_MODEL_DOC, "points": [[0.0], [float("inf")]]},
            {**VALID_MODEL_DOC, "points": [], "alpha": []},
        ]:
            path.write_text(json.dumps(doc), encoding="utf-8")
            with pytest.raises(InputError):
                load_model(str(path))

    def test_points_without_coordinates_are_rejected_naming_the_file(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({**VALID_MODEL_DOC, "points": [[], []], "alpha": [1, 2]}), encoding="utf-8")
        message = f"malformed model file {path}: points need at least one coordinate, got shape (2, 0)"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            load_model(str(path))

    @pytest.mark.parametrize("alpha", [[[0.5], [0.25]], [[[0.5, 0.25]]], 0.5])
    def test_coefficients_that_are_not_a_flat_list_are_rejected_naming_the_file(self, tmp_path, alpha):
        path = tmp_path / "m.json"
        points = [[float(k)] for k in range(np.size(alpha))]
        path.write_text(json.dumps({**VALID_MODEL_DOC, "points": points, "alpha": alpha}), encoding="utf-8")
        message = f"malformed model file {path}: alpha must be a flat vector, got shape {np.shape(alpha)}"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            load_model(str(path))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("lambda", "0.1"),
            ("lambda", None),
            ("bandwidth", "1"),
            ("bandwidth", True),
            ("points", [["4.08"], [1.0]]),
            ("points", [[True, 2.0], [1.0, 2.0]]),  # numpy would read this row as floats
            ("alpha", [True, -0.5]),
            ("alpha", [None, -0.5]),
            # An integer JSON reads exactly but float() cannot hold.
            pytest.param("lambda", 10**400, id="lambda-huge"),
            pytest.param("bandwidth", -(10**400), id="bandwidth-huge"),
            pytest.param("points", [[10**400], [1.0]], id="points-huge"),
            pytest.param("alpha", [0.5, 10**400], id="alpha-huge"),
        ],
    )
    def test_non_numbers_are_rejected_naming_the_field(self, tmp_path, field, value):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({**VALID_MODEL_DOC, field: value}), encoding="utf-8")
        message = "(must be a JSON number, got|is an integer too large for a float)"
        with pytest.raises(InputError, match=f"malformed model file .*: {field} {message}"):
            load_model(str(path))


_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.floats()
    | st.integers()
    | st.sampled_from([10**400, "gaussian", "lr"])
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _model_files(draw):
    kind = draw(st.sampled_from(["replace", "delete", "whole", "bytes", "nested"]))
    if kind == "bytes":
        return draw(st.binary(max_size=40))
    if kind == "nested":  # the valid file's coefficients in another shape
        alpha = draw(st.sampled_from([[[0.5], [-0.5]], [[0.5, -0.5]], [[[0.5, -0.5]]], 0.5]))
        return json.dumps({**VALID_MODEL_DOC, "alpha": alpha}).encode("utf-8")
    if kind == "whole":
        doc = draw(_JSON_VALUES)
    else:
        doc = dict(VALID_MODEL_DOC)
        key = draw(st.sampled_from(sorted(doc)))
        if kind == "delete":
            del doc[key]
        else:
            doc[key] = draw(_JSON_VALUES)
    return json.dumps(doc).encode("utf-8")


@given(content=_model_files())
def test_fuzzed_model_files_load_finite_or_raise_input_error(content):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "wb") as fh:
            fh.write(content)
        try:
            model, doc = load_model(path)
        except InputError:
            return
    assert model.points.shape[0] >= 1
    assert np.all(np.isfinite(model.points)) and np.all(np.isfinite(model.alpha))
    assert model.alpha.shape == np.shape(doc["alpha"])  # the file's coefficients as written, never reshaped


_FAR = st.sampled_from([0.0, 1.0, 1e200, -1e200, 1e308, -1e308, 1.7976931348623157e308, 5e-324])
_COORDINATES = _FAR | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _far_model_files(draw):
    """A model file as _model_files draws it, or a valid one whose points and alpha take far values."""
    if draw(st.booleans()):
        return draw(_model_files())
    d = draw(st.integers(1, 2))
    count = draw(st.integers(1, 3))
    doc = {
        **VALID_MODEL_DOC,
        "kernel_family": draw(st.sampled_from([family.value for family in KernelFamily])),
        "loss": draw(st.sampled_from([family.value for family in LossFamily])),
        "points": draw(st.lists(st.lists(_COORDINATES, min_size=d, max_size=d), min_size=count, max_size=count)),
        "alpha": draw(st.lists(_COORDINATES, min_size=count, max_size=count)),
    }
    return json.dumps(doc).encode("utf-8")


@settings(max_examples=60)
@given(content=_far_model_files(), xs=st.sampled_from([2, 4]).flatmap(lambda n: st.lists(_COORDINATES, min_size=n, max_size=n)))
def test_fuzzed_model_files_predict_or_raise_one_line_errors(content, xs):
    # The file boundary's contract: a model that loads predicts without a
    # warning, and a failure is an InputError or NumericalError of one line.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "wb") as fh:
            fh.write(content)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                model, _ = load_model(path)
                ratios = predict_ratio(model, np.reshape(xs, (-1, model.points.shape[1])))
            except (InputError, NumericalError) as exc:
                assert len(str(exc).splitlines()) == 1
                return
    assert ratios.shape == (len(xs) // model.points.shape[1],)
    assert not np.any(ratios < 0.0)
