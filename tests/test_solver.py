import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kernelratio import (
    FitOptions,
    InputError,
    LossFamily,
    closed_form_fit,
    fit,
    gram_matrix,
    load_model,
    objective_and_gradient,
    predict_margin,
    predict_ratio,
    sample_pair,
    save_model,
)
from kernelratio.data import LabeledDataset, dataset_sha256

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


def two_point_dataset():
    # One point from each class at the two component means.
    return LabeledDataset(xs=np.array([[4.0], [2.0]]), ys=np.array([1, -1]), m=1, n=1)


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
        alpha = closed_form_fit(LossFamily.KULSIF, K, ds.ys, lam)
        np.testing.assert_allclose(alpha, expected, rtol=1e-12)
        assert alpha[0] == pytest.approx(1.0 / (2.0 * lam), rel=1e-12)

    def test_single_q_point_gives_zero(self, kspec):
        ds = LabeledDataset(xs=np.array([[2.0]]), ys=np.array([-1]), m=0, n=1)
        K = gram_matrix(kspec, ds.xs).values
        alpha = closed_form_fit(LossFamily.KULSIF, K, ds.ys, 0.1)
        assert alpha[0] == 0.0

    def test_sq_scalar_solve_value(self):
        # ((2/1) * 2 + 1) alpha = 2  =>  alpha = 0.4
        alpha = closed_form_fit(LossFamily.SQ, np.array([[2.0]]), np.array([1]), 1.0)
        assert alpha[0] == pytest.approx(0.4, rel=1e-14)

    def test_no_closed_form_for_curved_losses(self):
        with pytest.raises(InputError):
            closed_form_fit(LossFamily.LR, np.eye(2), np.array([1, -1]), 0.1)


class TestFit:
    def test_fit_two_point_kulsif_reaches_closed_form(self, kspec):
        ds = two_point_dataset()
        model, report = fit(LossFamily.KULSIF, kspec, ds, 0.1, FitOptions(method="cg"))
        K = gram_matrix(kspec, ds.xs).values
        expected = closed_form_fit(LossFamily.KULSIF, K, ds.ys, 0.1)
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
        ds = sample_pair(pair, 8, 8, seed=5)
        values = []
        fit(
            LossFamily.EXP,
            kspec,
            ds,
            0.01,
            FitOptions(method="cg"),
            callback=lambda it, alpha, value, grad: values.append(value),
        )
        diffs = np.diff(values)
        assert np.all(diffs <= 0.0)

    @pytest.mark.parametrize("family", ALL)
    def test_converged_means_gradient_below_tolerance(self, family, pair, kspec):
        ds = sample_pair(pair, 6, 6, seed=6)
        _, report = fit(family, kspec, ds, 0.05)
        assert report.converged
        assert report.grad_norm <= 1e-8 * ds.total

    def test_nonconvergence_is_reported_not_raised(self, pair, kspec):
        ds = sample_pair(pair, 10, 10, seed=7)
        _, report = fit(LossFamily.EXP, kspec, ds, 1e-3, FitOptions(method="cg", max_iters=3))
        assert not report.converged

    def test_rkhs_norm_decreases_with_lambda(self, pair, kspec):
        ds = sample_pair(pair, 20, 20, seed=8)
        K = gram_matrix(kspec, ds.xs).values
        norms = []
        for lam in np.geomspace(1e-3, 10.0, 9):
            alpha = closed_form_fit(LossFamily.KULSIF, K, ds.ys, float(lam))
            norms.append(float(alpha @ (K @ alpha)))
        assert np.all(np.diff(norms) <= 1e-12)

    def test_invalid_lambda(self, pair, kspec):
        ds = sample_pair(pair, 2, 2, seed=0)
        with pytest.raises(InputError):
            fit(LossFamily.KULSIF, kspec, ds, 0.0)


class TestPredict:
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

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        for doc in [
            {"loss": "kulsif"},
            [1, 2],
            {**VALID_MODEL_DOC, "points": [[0.0]], "alpha": None},
            {**VALID_MODEL_DOC, "alpha": [0.5, float("nan")]},
            {**VALID_MODEL_DOC, "points": [[0.0], [float("inf")]]},
        ]:
            path.write_text(json.dumps(doc), encoding="utf-8")
            with pytest.raises(InputError):
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
    kind = draw(st.sampled_from(["replace", "delete", "whole", "bytes"]))
    if kind == "bytes":
        return draw(st.binary(max_size=40))
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
            model, _ = load_model(path)
        except InputError:
            return
    assert np.all(np.isfinite(model.points)) and np.all(np.isfinite(model.alpha))
