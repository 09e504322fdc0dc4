import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernelratio import LossFamily
from kernelratio.losses import (
    divergence,
    loss_d1,
    loss_d2,
    loss_d3,
    loss_value,
    margin_terms,
    optimal_margin,
    phi,
    phi_prime,
    ratio_map,
)

ALL = list(LossFamily)
CURVED = [LossFamily.LR, LossFamily.EXP]


def derivs(family, y, v):
    """The loss and its first three margin derivatives at one (y, v), as floats."""
    return tuple(float(f(family, y, v)) for f in (loss_value, loss_d1, loss_d2, loss_d3))


class TestMarginDerivatives:
    def test_lr_at_zero(self):
        value, d1, d2, _ = derivs(LossFamily.LR, 1, 0.0)
        assert value == pytest.approx(math.log(2.0), rel=1e-15)
        assert d1 == -0.5
        assert d2 == 0.25

    def test_kulsif_negative_class_is_half_square(self):
        assert derivs(LossFamily.KULSIF, -1, 2.0) == (2.0, 2.0, 1.0, 0.0)

    def test_exp_chain_rule(self):
        e = math.exp(-1.0)
        assert derivs(LossFamily.EXP, 1, 1.0) == pytest.approx((e, -e, e, -e), rel=1e-15)

    def test_sq_is_squared_margin_residual(self):
        value, *rest = derivs(LossFamily.SQ, -1, 0.5)
        assert value == pytest.approx(2.25, rel=1e-15)
        assert tuple(rest) == (3.0, 2.0, 0.0)

    @pytest.mark.parametrize("family", ALL)
    @pytest.mark.parametrize("y", [-1, 1])
    def test_derivatives_match_finite_differences(self, family, y):
        # Central differences of the loss value, step tuned per order.
        for v in np.linspace(-5.0, 5.0, 21):
            value, d1, d2, d3 = derivs(family, y, v)
            h1 = 1e-6
            fd1 = (loss_value(family, y, v + h1) - loss_value(family, y, v - h1)) / (2 * h1)
            h2 = 1e-4
            fd2 = (
                loss_value(family, y, v + h2)
                - 2 * loss_value(family, y, v)
                + loss_value(family, y, v - h2)
            ) / h2**2
            h3 = 2e-3
            fd3 = (
                loss_value(family, y, v + 2 * h3)
                - 2 * loss_value(family, y, v + h3)
                + 2 * loss_value(family, y, v - h3)
                - loss_value(family, y, v - 2 * h3)
            ) / (2 * h3**3)
            scale = max(1.0, abs(value))
            assert abs(fd1 - d1) <= 1e-6 * max(scale, abs(d1))
            assert abs(fd2 - d2) <= 1e-6 * max(scale, abs(d2)) + 1e-7
            assert abs(fd3 - d3) <= 1e-5 * max(scale, abs(d3)) + 1e-5

    @given(
        family=st.sampled_from(ALL),
        y=st.sampled_from([-1, 1]),
        v=st.floats(-30.0, 30.0, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_convexity_in_the_margin(self, family, y, v):
        assert float(loss_d2(family, y, v)) >= 0.0

    @given(
        family=st.sampled_from(ALL),
        y=st.sampled_from([-1, 1]),
        v=st.floats(-20.0, 20.0, allow_nan=False),
        dv=st.floats(-5.0, 5.0, allow_nan=False),
    )
    @settings(max_examples=300)
    def test_value_delta_matches_direct_difference(self, family, y, v, dv):
        direct = float(loss_value(family, y, v + dv) - loss_value(family, y, v))
        delta = float(margin_terms(family, y, v).delta(dv))
        scale = max(1.0, abs(float(loss_value(family, y, v))), abs(direct))
        assert abs(delta - direct) <= 1e-9 * scale


class TestMarginTerms:
    @given(family=st.sampled_from(ALL), scalar_label=st.booleans(), data=st.data())
    @settings(max_examples=400)
    def test_views_equal_margin_terms_bitwise(self, family, scalar_label, data):
        n = data.draw(st.integers(1, 8))
        # Past +-709.78 lr and exp overflow to inf, uncapped; -0.0 and 0.0 both occur.
        margins = st.lists(st.floats(-800.0, 800.0, allow_nan=False), min_size=n, max_size=n)
        v, dv = np.array(data.draw(margins)), np.array(data.draw(margins))
        labels = st.sampled_from([-1.0, 1.0])
        y = data.draw(labels) if scalar_label else np.array(data.draw(st.lists(labels, min_size=n, max_size=n)))
        with np.errstate(all="ignore"):  # huge steps overflow to inf in both
            # The solver passes the negated labels precomputed.
            terms = margin_terms(family, y, v, -np.asarray(y))
            pairs = [
                (loss_d1(family, y, v), terms.d1),
                (loss_d2(family, y, v), terms.d2),
                (margin_terms(family, y, v).delta(dv), terms.delta(dv)),
            ]
        for view, term in pairs:
            assert np.shape(view) == np.broadcast(y, v).shape
            assert np.asarray(view).tobytes() == np.asarray(term).tobytes()

    # Points where x ** 2 on a numpy scalar (C pow) and on an array
    # (np.square) once rounded apart: lr's ell'', kulsif's phi, sq's phi'
    # and sq's loss.
    ROUNDING_POINTS = [
        (1.0, -0.21591175839341303, 0.0, 0.514173422030197, 0.5),
        (1.0, 0.0049480085219265856, 0.0, 2.3345436177190515, 0.5),
    ]

    @given(
        family=st.sampled_from(ALL),
        points=st.lists(
            st.tuples(
                st.sampled_from([-1.0, 1.0]),  # label
                st.floats(-800.0, 800.0, allow_nan=False),  # margin
                st.floats(-800.0, 800.0, allow_nan=False),  # margin step
                st.floats(0.0, 1e6, allow_nan=False),  # ratio
                st.floats(-800.0, 800.0, allow_nan=False),  # log ratio, past kulsif's overflow at 709.78
            ),
            min_size=1,
            max_size=8,
        ),
    )
    @example(family=LossFamily.LR, points=ROUNDING_POINTS)
    @example(family=LossFamily.KULSIF, points=ROUNDING_POINTS)
    @example(family=LossFamily.SQ, points=ROUNDING_POINTS)
    @settings(max_examples=400)
    def test_scalar_call_equals_its_element_of_the_array_call(self, family, points):
        y, v, dv, t, r = (np.array(column) for column in zip(*points))
        per_point = [
            (lambda *a: loss_value(family, *a), (y, v)),
            (lambda *a: loss_d1(family, *a), (y, v)),
            (lambda *a: loss_d2(family, *a), (y, v)),
            (lambda *a: loss_d3(family, *a), (y, v)),
            (lambda y, v, dv: margin_terms(family, y, v).delta(dv), (y, v, dv)),
            (lambda *a: ratio_map(family, *a), (v,)),
            (lambda *a: phi(family, *a), (t,)),
            (lambda *a: phi_prime(family, *a), (t,)),
            (lambda *a: divergence(family, *a), (t, v)),
            (lambda *a: optimal_margin(family, *a), (r,)),
        ]
        with np.errstate(all="ignore"):  # huge steps and t = 0 poles give inf in both
            for func, args in per_point:
                whole = np.asarray(func(*args))
                for i in range(len(points)):
                    one = np.asarray(func(*(float(arg[i]) for arg in args)))
                    assert one.tobytes() == whole[i].tobytes(), (func, args, i)


class TestOptimalMargin:
    def test_every_family_at_log_ratio_zero(self):
        # beta = 1: the densities cross.
        assert [float(optimal_margin(family, 0.0)) for family in ALL] == [1.0, 0.0, 0.0, 0.0]

    def test_exp_halves_the_log_ratio(self):
        assert optimal_margin(LossFamily.EXP, 2.0) == 1.0

    def test_sq_is_tanh_of_half_the_log_ratio(self):
        # tanh(log(3) / 2) = (3 - 1) / (3 + 1)
        assert optimal_margin(LossFamily.SQ, math.log(3.0)) == pytest.approx(0.5, rel=1e-15)

    def test_kulsif_overflows_to_inf_without_a_warning(self):
        with np.errstate(over="raise"):
            assert optimal_margin(LossFamily.KULSIF, 710.0) == math.inf

    @pytest.mark.parametrize("family", ALL)
    def test_array_and_scalar_calls_agree(self, family):
        rs = np.linspace(-6.9, 6.9, 139)
        margins = optimal_margin(family, rs)
        for r, v in zip(rs, margins):
            assert v == optimal_margin(family, float(r))  # array and scalar agree exactly


class TestRatioMap:
    def test_kulsif_is_identity_above_zero(self):
        assert ratio_map(LossFamily.KULSIF, 0.7) == 0.7

    def test_lr_is_exponential(self):
        assert ratio_map(LossFamily.LR, 0.0) == 1.0
        assert ratio_map(LossFamily.EXP, 0.5) == pytest.approx(math.e, rel=1e-15)

    def test_sq_maps_margin_to_posterior_odds(self):
        # Psi^{-1}(v) = (v+1)/2, so g(0.75) = 0.875 / 0.125 = 7.
        assert ratio_map(LossFamily.SQ, 0.75) == pytest.approx(7.0, rel=1e-12)

    def test_flooring_at_zero(self):
        assert ratio_map(LossFamily.KULSIF, -1.3) == 0.0
        assert ratio_map(LossFamily.SQ, -3.0) == 0.0

    def test_sq_pole_is_clamped(self):
        assert np.isfinite(ratio_map(LossFamily.SQ, 1.0))
        assert np.isfinite(ratio_map(LossFamily.SQ, 5.0))

    @pytest.mark.parametrize("family", ALL)
    @given(r=st.floats(-6.9, 6.9))
    def test_ratio_map_inverts_the_optimal_margin(self, family, r):
        # g(m(r)) = e^r; sq's 1 - tanh(r/2) loses up to eps / (1 - v)
        # relative, about 1e-13 at the ends of [-6.9, 6.9] (ratios 1e-3 to 1e3).
        assert ratio_map(family, optimal_margin(family, r)) == pytest.approx(math.exp(r), rel=1e-12)


def generator(family, t):
    """The generator value and slope at one ratio t, as floats."""
    return float(phi(family, t)), float(phi_prime(family, t))


class TestGenerator:
    def test_kulsif_vanishes_at_reference(self):
        assert generator(LossFamily.KULSIF, 1.0) == (0.0, 0.0)

    def test_exp_at_one(self):
        assert generator(LossFamily.EXP, 1.0) == (-2.0, -1.0)

    def test_sq_at_zero(self):
        assert generator(LossFamily.SQ, 0.0) == (4.0, -4.0)

    def test_lr_limit_at_zero(self):
        assert generator(LossFamily.LR, 0.0) == (0.0, -math.inf)

    @pytest.mark.parametrize("family", ALL)
    def test_derivative_matches_finite_differences(self, family):
        for t in np.linspace(0.2, 6.0, 25):
            slope = float(phi_prime(family, t))
            h = 1e-6 * t
            fd = (phi(family, t + h) - phi(family, t - h)) / (2 * h)
            assert abs(fd - slope) <= 1e-6 * max(1.0, abs(slope))

    @pytest.mark.parametrize("family", ALL)
    def test_convexity_on_a_grid(self, family):
        # phi(t) >= phi(s) + phi'(s)(t - s) for all grid pairs.
        lo = 1e-3 if family in (LossFamily.EXP, LossFamily.LR) else 0.0
        grid = np.concatenate([[lo], np.geomspace(0.01, 20.0, 25)])
        values = phi(family, grid)
        slopes = phi_prime(family, np.maximum(grid, 1e-300))
        for i, s in enumerate(grid):
            if not np.isfinite(slopes[i]):
                continue
            gaps = values - (values[i] + slopes[i] * (grid - s))
            assert np.min(gaps) >= -1e-12


class TestSelfConcordance:
    def test_quadratic_families_have_zero_third_derivative(self):
        # The closed form and hessian_weights read ell'' at margin 0 for a
        # quadratic family: it must hold at every margin.
        grid = np.linspace(-5.0, 5.0, 101)
        for family in LossFamily:
            for y in (-1, 1):
                d2 = loss_d2(family, y, grid)
                if family.quadratic:
                    assert d2.tobytes() == loss_d2(family, y, np.zeros_like(grid)).tobytes()
                    assert np.all(loss_d3(family, y, grid) == 0.0)
                else:
                    assert np.unique(d2).size > 1

    @pytest.mark.parametrize("family", CURVED)
    @pytest.mark.parametrize("y", [-1, 1])
    def test_third_derivative_bounded_by_second_pointwise(self, family, y):
        grid = np.linspace(-10.0, 10.0, 4001)
        d2 = loss_d2(family, y, grid)
        d3 = loss_d3(family, y, grid)
        assert np.all(np.abs(d3) <= d2)
        if family is LossFamily.EXP:  # the third derivative is -y times the second: the bound is tight
            assert np.all(np.abs(d3) == d2)
