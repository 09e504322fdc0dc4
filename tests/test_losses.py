import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelratio import InputError, LossFamily, bregman_generator, link, link_inv, loss_derivs
from kernelratio.losses import (
    loss_d1,
    loss_d2,
    loss_d3,
    loss_value,
    loss_value_delta,
    margin_terms,
    phi,
    phi_prime,
    ratio_map,
    ratio_map_raw,
    self_concordance_check,
)

ALL = list(LossFamily)
CURVED = [LossFamily.LR, LossFamily.EXP]
QUADRATIC = [LossFamily.KULSIF, LossFamily.SQ]


class TestMarginDerivatives:
    def test_lr_at_zero(self):
        d = loss_derivs(LossFamily.LR, 1, 0.0)
        assert d.value == pytest.approx(math.log(2.0), rel=1e-15)
        assert d.d1 == -0.5
        assert d.d2 == 0.25

    def test_kulsif_negative_class_is_half_square(self):
        d = loss_derivs(LossFamily.KULSIF, -1, 2.0)
        assert (d.value, d.d1, d.d2, d.d3) == (2.0, 2.0, 1.0, 0.0)

    def test_exp_chain_rule(self):
        d = loss_derivs(LossFamily.EXP, 1, 1.0)
        e = math.exp(-1.0)
        assert d.value == pytest.approx(e, rel=1e-15)
        assert d.d1 == pytest.approx(-e, rel=1e-15)
        assert d.d2 == pytest.approx(e, rel=1e-15)
        assert d.d3 == pytest.approx(-e, rel=1e-15)

    def test_sq_is_squared_margin_residual(self):
        d = loss_derivs(LossFamily.SQ, -1, 0.5)
        assert d.value == pytest.approx(2.25, rel=1e-15)
        assert (d.d1, d.d2, d.d3) == (3.0, 2.0, 0.0)

    def test_rejects_bad_label(self):
        with pytest.raises(InputError):
            loss_derivs(LossFamily.LR, 0, 1.0)

    @pytest.mark.parametrize("family", ALL)
    @pytest.mark.parametrize("y", [-1, 1])
    def test_derivatives_match_finite_differences(self, family, y):
        # Central differences of the loss value, step tuned per order.
        for v in np.linspace(-5.0, 5.0, 21):
            d = loss_derivs(family, y, v)
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
            scale = max(1.0, abs(d.value))
            assert abs(fd1 - d.d1) <= 1e-6 * max(scale, abs(d.d1))
            assert abs(fd2 - d.d2) <= 1e-6 * max(scale, abs(d.d2)) + 1e-7
            assert abs(fd3 - d.d3) <= 1e-5 * max(scale, abs(d.d3)) + 1e-5

    @given(
        family=st.sampled_from(ALL),
        y=st.sampled_from([-1, 1]),
        v=st.floats(-30.0, 30.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_convexity_in_the_margin(self, family, y, v):
        assert float(loss_d2(family, y, v)) >= 0.0

    @given(
        family=st.sampled_from(ALL),
        y=st.sampled_from([-1, 1]),
        v=st.floats(-20.0, 20.0, allow_nan=False),
        dv=st.floats(-5.0, 5.0, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_value_delta_matches_direct_difference(self, family, y, v, dv):
        direct = float(loss_value(family, y, v + dv) - loss_value(family, y, v))
        delta = float(loss_value_delta(family, y, v, dv))
        scale = max(1.0, abs(float(loss_value(family, y, v))), abs(direct))
        assert abs(delta - direct) <= 1e-9 * scale


class TestMarginTerms:
    @given(family=st.sampled_from(ALL), scalar_label=st.booleans(), data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_views_equal_margin_terms_bitwise(self, family, scalar_label, data):
        n = data.draw(st.integers(1, 8))
        # Past +-700 the exponent cap acts; -0.0 and 0.0 both occur.
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
                (loss_value_delta(family, y, v, dv), terms.delta(dv)),
            ]
        for view, term in pairs:
            assert np.shape(view) == np.broadcast(y, v).shape
            assert np.asarray(view).tobytes() == np.asarray(term).tobytes()


class TestLinks:
    def test_lr_link_is_zero_at_half(self):
        assert link(LossFamily.LR, 0.5) == 0.0
        assert link_inv(LossFamily.LR, 0.0) == 0.5

    def test_kulsif_link_at_half(self):
        assert link(LossFamily.KULSIF, 0.5) == 1.0

    def test_exp_link_hits_one(self):
        u = math.exp(2.0) / (1.0 + math.exp(2.0))
        assert link(LossFamily.EXP, u) == pytest.approx(1.0, rel=1e-12)

    def test_sq_link_is_affine(self):
        assert link(LossFamily.SQ, 0.75) == 0.5
        assert link_inv(LossFamily.SQ, 0.5) == 0.75

    @pytest.mark.parametrize("family", ALL)
    def test_round_trip(self, family):
        us = np.arange(0.01, 1.0, 0.01)
        margins = link(family, us)
        for u, v in zip(us, margins):
            assert v == link(family, float(u))  # array and scalar agree exactly
            assert abs(link_inv(family, v) - u) <= 1e-12

    @pytest.mark.parametrize("u", [0.0, 1.0, -0.3, 1.7])
    def test_link_domain_validation(self, u):
        with pytest.raises(InputError):
            link(LossFamily.LR, u)
        with pytest.raises(InputError):
            link(LossFamily.LR, np.array([0.2, u, 0.7]))


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
        assert ratio_map_raw(LossFamily.SQ, -3.0) == pytest.approx(-0.5, rel=1e-12)

    def test_sq_pole_is_clamped(self):
        assert np.isfinite(ratio_map(LossFamily.SQ, 1.0))
        assert np.isfinite(ratio_map(LossFamily.SQ, 5.0))

    @pytest.mark.parametrize(
        "family,grid",
        [
            (LossFamily.KULSIF, np.linspace(0.05, 5.0, 40)),
            (LossFamily.LR, np.linspace(-5.0, 5.0, 40)),
            (LossFamily.EXP, np.linspace(-5.0, 5.0, 40)),
            (LossFamily.SQ, np.linspace(-0.95, 0.95, 40)),
        ],
    )
    def test_composition_identity(self, family, grid):
        # g(v) agrees with Psi^{-1}(v) / (1 - Psi^{-1}(v)) on the link range.
        for v in grid:
            u = link_inv(family, float(v))
            expected = u / (1.0 - u)
            assert ratio_map_raw(family, float(v)) == pytest.approx(expected, rel=1e-10)


    @pytest.mark.parametrize("family", ALL)
    @given(u=st.floats(1e-3, 1.0 - 1e-3))
    def test_ratio_map_inverts_link_to_posterior_odds(self, family, u):
        # g(Psi(u)) = u / (1 - u); the sq link 2u - 1 loses up to eps / (2u)
        # and eps / (2(1 - u)) relative, hence u stays 1e-3 away from 0 and 1.
        assert ratio_map(family, link(family, u)) == pytest.approx(u / (1.0 - u), rel=1e-12)


class TestGenerator:
    def test_kulsif_vanishes_at_reference(self):
        assert bregman_generator(LossFamily.KULSIF, 1.0) == (0.0, 0.0)

    def test_exp_at_one(self):
        value, slope = bregman_generator(LossFamily.EXP, 1.0)
        assert value == -2.0
        assert slope == -1.0

    def test_sq_at_zero(self):
        value, slope = bregman_generator(LossFamily.SQ, 0.0)
        assert value == 4.0
        assert slope == -4.0

    def test_lr_limit_at_zero(self):
        value, slope = bregman_generator(LossFamily.LR, 0.0)
        assert value == 0.0
        assert slope == -math.inf

    def test_exp_rejects_nonpositive(self):
        with pytest.raises(InputError):
            bregman_generator(LossFamily.EXP, 0.0)

    def test_negative_argument_rejected(self):
        with pytest.raises(InputError):
            bregman_generator(LossFamily.KULSIF, -0.5)

    @pytest.mark.parametrize("family", ALL)
    def test_derivative_matches_finite_differences(self, family):
        for t in np.linspace(0.2, 6.0, 25):
            _, slope = bregman_generator(family, float(t))
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
        grid = np.linspace(-5.0, 5.0, 101)
        for family in QUADRATIC:
            report = self_concordance_check(family, -1, grid)
            assert report.holds
            assert report.max_ratio == 0.0

    def test_exp_ratio_is_exactly_one(self):
        report = self_concordance_check(LossFamily.EXP, 1, np.linspace(-5.0, 5.0, 101))
        assert report.holds
        assert report.max_ratio == 1.0

    def test_lr_ratio_is_at_most_one(self):
        report = self_concordance_check(LossFamily.LR, 1, np.linspace(-10.0, 10.0, 201))
        assert report.holds
        assert report.max_ratio <= 1.0

    def test_empty_grid_rejected(self):
        with pytest.raises(InputError):
            self_concordance_check(LossFamily.LR, 1, [])

    @pytest.mark.parametrize("family", CURVED)
    @pytest.mark.parametrize("y", [-1, 1])
    def test_third_derivative_bounded_by_second_pointwise(self, family, y):
        grid = np.linspace(-10.0, 10.0, 4001)
        d2 = loss_d2(family, y, grid)
        d3 = loss_d3(family, y, grid)
        assert np.all(np.abs(d3) <= d2)
