import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kernelratio import InputError, KernelFamily, KernelSpec, gram_matrix, kernel_eval
from kernelratio.kernel import cross_matrix

GAUSS = KernelSpec(KernelFamily.GAUSSIAN, 1.0)
OFFSET = KernelSpec(KernelFamily.ONE_PLUS_GAUSSIAN, 1.0)

finite_coords = st.floats(-50.0, 50.0, allow_nan=False)


def test_offset_kernel_at_equal_points_is_two():
    assert kernel_eval(OFFSET, 0.0, 0.0) == 2.0
    assert kernel_eval(OFFSET, 3.0, 3.0) == 2.0


def test_offset_kernel_at_the_two_means():
    assert kernel_eval(OFFSET, 4.0, 2.0) == pytest.approx(1.0 + math.exp(-2.0), rel=1e-15)


def test_gaussian_kernel_underflows_to_zero_far_away():
    assert kernel_eval(GAUSS, 0.0, 1000.0) == 0.0


def test_bandwidth_scales_the_exponent():
    wide = KernelSpec(KernelFamily.GAUSSIAN, 2.0)
    assert kernel_eval(wide, 0.0, 2.0) == pytest.approx(math.exp(-4.0 / (2 * 4.0)), rel=1e-15)


def test_dimension_mismatch_raises():
    with pytest.raises(InputError):
        kernel_eval(OFFSET, [0.0, 1.0], [0.0])


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
def test_bandwidth_must_be_positive(bad):
    with pytest.raises(InputError):
        KernelSpec(bandwidth=bad)


@given(
    x=st.lists(finite_coords, min_size=1, max_size=3),
    y_offsets=st.lists(finite_coords, min_size=1, max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_kernel_is_symmetric_bit_exactly(x, y_offsets):
    d = min(len(x), len(y_offsets))
    a, b = x[:d], [x[i] + y_offsets[i] for i in range(d)]
    assert kernel_eval(OFFSET, a, b) == kernel_eval(OFFSET, b, a)
    assert kernel_eval(GAUSS, a, b) == kernel_eval(GAUSS, b, a)


@given(x=finite_coords, y=finite_coords)
@settings(max_examples=200, deadline=None)
def test_value_ranges(x, y):
    offset = kernel_eval(OFFSET, x, y)
    plain = kernel_eval(GAUSS, x, y)
    # offset values live in (1, 2]; 1.0 appears only when the Gaussian
    # part is below float resolution.
    assert 1.0 <= offset <= 2.0
    assert 0.0 <= plain <= 1.0
    if offset == 1.0:
        assert plain < 1e-15


def test_gram_single_point():
    gram = gram_matrix(OFFSET, [3.0])
    assert gram.values.shape == (1, 1)
    assert gram.values[0, 0] == 2.0


def test_gram_two_points_matches_elementwise_eval():
    pts = [4.0, 2.0]
    gram = gram_matrix(OFFSET, pts)
    expected = np.array(
        [[kernel_eval(OFFSET, a, b) for b in pts] for a in pts]
    )
    np.testing.assert_allclose(gram.values, expected, rtol=0, atol=0)
    assert gram.values[0, 1] == pytest.approx(1.0 + math.exp(-2.0), rel=1e-15)


def test_gram_is_exactly_symmetric_with_exact_diagonal():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(17, 2))
    for spec in (OFFSET, GAUSS):
        gram = gram_matrix(spec, pts)
        assert np.max(np.abs(gram.values - gram.values.T)) == 0.0
        assert np.all(np.diag(gram.values) == spec.diagonal_value)


@pytest.mark.parametrize("seed", range(5))
def test_gram_is_positive_semidefinite_on_small_sets(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    pts = rng.normal(scale=3.0, size=(n, 1))
    for spec in (OFFSET, GAUSS):
        eigs = np.linalg.eigvalsh(gram_matrix(spec, pts).values)
        assert eigs.min() >= -1e-8 * n


def test_gram_rejects_empty_point_list():
    with pytest.raises(InputError):
        gram_matrix(OFFSET, np.empty((0, 1)))


def _broadcast_cross(spec, a, b):
    """The dense (N, M, d) broadcast formula, as a reference."""
    sq = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
    values = np.exp(-sq / (2.0 * spec.bandwidth**2))
    return 1.0 + values if spec.family is KernelFamily.ONE_PLUS_GAUSSIAN else values


@st.composite
def _point_sets(draw):
    d = draw(st.integers(1, 12))
    coords = st.floats(-1.0, 1.0, allow_nan=False)
    a = draw(arrays(np.float64, (draw(st.integers(1, 6)), d), elements=coords))
    b = draw(arrays(np.float64, (draw(st.integers(1, 6)), d), elements=coords))
    return a, b


@given(points=_point_sets(), family=st.sampled_from(list(KernelFamily)))
@settings(max_examples=200, deadline=None)
def test_cross_matrix_matches_the_broadcast_formula(points, family):
    a, b = points
    d = a.shape[1]
    # Bandwidth sqrt(d) keeps the exponent below 2, so a rounding-level
    # change in the squared distance stays rounding-level after exp.
    spec = KernelSpec(family, math.sqrt(d))
    values = cross_matrix(spec, a, b)
    expected = _broadcast_cross(spec, a, b)
    if d <= 7:  # numpy sums fewer than 8 terms in order, as cross_matrix does
        assert np.array_equal(values, expected)
    else:
        np.testing.assert_allclose(values, expected, rtol=1e-14, atol=0)
    assert np.array_equal(gram_matrix(spec, a).values, cross_matrix(spec, a, a))
