import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kernelratio import InputError, KernelFamily, KernelSpec, gram_matrix, kernel_eval
from kernelratio import kernel
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
    with pytest.raises(InputError, match="dimension mismatch: 2 vs 1"):
        cross_matrix(OFFSET, np.zeros((3, 2)), np.zeros((4, 1)))
    with pytest.raises(InputError, match=r"at most 2-dimensional, got shape \(2, 2, 2\)"):
        gram_matrix(OFFSET, np.zeros((2, 2, 2)))


def test_a_scalar_is_one_point_and_a_single_point_is_at_most_1d():
    assert kernel.as_points(3.0).tolist() == [[3.0]]
    with pytest.raises(InputError, match=r"^a single point must be a scalar or 1-d vector, got shape \(1, 2\)$"):
        kernel_eval(OFFSET, [[0.0, 1.0]], [0.0, 1.0])


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), 1e200, 1e-162, 1e-170])
def test_bandwidth_must_be_positive(bad):
    with pytest.raises(InputError, match="bandwidth"):
        KernelSpec(bandwidth=bad)


def test_tiny_bandwidth_sends_distinct_points_to_exactly_the_offset():
    values = cross_matrix(KernelSpec(bandwidth=1e-160), [0.0, 1.0, 3.0], [0.0, 1.0])
    np.testing.assert_array_equal(values, [[2.0, 1.0], [1.0, 2.0], [1.0, 1.0]])


@given(
    x=st.lists(finite_coords, min_size=1, max_size=3),
    y_offsets=st.lists(finite_coords, min_size=1, max_size=3),
)
@settings(max_examples=200)
def test_kernel_is_symmetric_bit_exactly(x, y_offsets):
    d = min(len(x), len(y_offsets))
    a, b = x[:d], [x[i] + y_offsets[i] for i in range(d)]
    assert kernel_eval(OFFSET, a, b) == kernel_eval(OFFSET, b, a)
    assert kernel_eval(GAUSS, a, b) == kernel_eval(GAUSS, b, a)


@given(x=finite_coords, y=finite_coords)
@settings(max_examples=200)
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
        assert all(gram.values[i, i] == kernel_eval(spec, x, x) for i, x in enumerate(pts))


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


def test_the_point_bound_caps_the_kernel_matrix_and_admits_the_sizes_in_use():
    # 8-byte entries: the largest admitted kernel matrix takes 128 GiB.
    # N = 4,000 is the largest pooled size fitted in a measurement, and a
    # sampling test draws 100,001 points.  Only the arithmetic runs.
    assert kernel.MAX_POINTS**2 * 8 == 128 * 2**30
    for n in (1, 4_000, 100_001, kernel.MAX_POINTS):
        kernel.check_point_count(n)
    for n in (kernel.MAX_POINTS + 1, 10**400):
        with pytest.raises(InputError, match=f"^a pooled sample of {n} points is over the limit of 131072$"):
            kernel.check_point_count(n)


def test_far_coordinates_have_kernel_value_zero_without_a_warning():
    # Their squared distance overflows to inf, and exp(-inf) = 0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d in (1, 2):
            values = cross_matrix(KernelSpec(KernelFamily.GAUSSIAN), np.full((1, d), 1e200), np.full((2, d), -1e200))
            assert np.array_equal(values, np.zeros((1, 2)))
        assert np.array_equal(gram_matrix(OFFSET, [[1e200, 0.0], [0.0, 1.7e308]]).values, [[2.0, 1.0], [1.0, 2.0]])
        assert kernel_eval(KernelSpec(KernelFamily.GAUSSIAN), [1e200], [-1e200]) == 0.0


def test_points_without_coordinates_are_rejected():
    with pytest.raises(InputError, match=r"points need at least one coordinate, got shape \(2, 0\)"):
        gram_matrix(KernelSpec(), np.empty((2, 0)))


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
@settings(max_examples=200)
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


@pytest.mark.parametrize("tile", [1, 7, 64])
@pytest.mark.parametrize("d", range(2, 8))
def test_tiled_cross_matrix_equals_the_broadcast_formula(tile, d, monkeypatch):
    monkeypatch.setattr(kernel, "TILE_ENTRIES", tile)
    rng = np.random.default_rng(10 * tile + d)
    # 80 columns exceed every tile (one row per block); 13 rows leave a
    # short last block of 12 (tile 64, 5 columns), 6 (64, 10) or 2 (7, 3) rows.
    shapes = [(13, 5), (13, 10), (13, 3), (13, 80), (0, 5), (5, 0)]
    for family in KernelFamily:
        spec = KernelSpec(family, math.sqrt(d))
        for n, m in shapes:
            a, b = rng.uniform(-1.0, 1.0, size=(n, d)), rng.uniform(-1.0, 1.0, size=(m, d))
            assert np.array_equal(cross_matrix(spec, a, b), _broadcast_cross(spec, a, b))


@pytest.mark.parametrize("d", [1, 3])
def test_one_divide_by_minus_two_sigma_squared_equals_the_broadcast_formula_byte_for_byte(d):
    # cross_matrix divides by -2 sigma^2 once; the formula negates, then
    # divides by 2 sigma^2.  IEEE division is sign-symmetric, so the two
    # agree at every scale.
    rng = np.random.default_rng(d)
    for bandwidth in (1e-100, 1.0, 1e100):
        # Scaled squared distances from about 1e-6 to 1e3 reach every exp
        # value from just below 1 to 0; the repeated rows are coincident
        # points, and 1e200 sends a squared distance to inf.
        a = bandwidth * rng.normal(size=(40, d)) * 10.0 ** rng.uniform(-3.0, 1.5, size=(40, 1))
        a[1] = a[0]
        a[-1] = 1e200
        b = np.concatenate([a[:5], -a[-5:], rng.permutation(a)[:10]])
        for family in KernelFamily:
            spec = KernelSpec(family, bandwidth)
            with np.errstate(over="ignore"):
                expected = _broadcast_cross(spec, a, b)
            assert cross_matrix(spec, a, b).tobytes() == expected.tobytes()


def test_tiled_gram_is_exactly_symmetric_across_blocks(monkeypatch):
    monkeypatch.setattr(kernel, "TILE_ENTRIES", 64)  # blocks of 3 rows over 20 points
    pts = np.random.default_rng(3).normal(size=(20, 3))
    for spec in (OFFSET, GAUSS):
        values = gram_matrix(spec, pts).values
        assert np.array_equal(values, values.T)
        assert all(values[i, i] == kernel_eval(spec, x, x) for i, x in enumerate(pts))


def test_a_gram_build_holds_at_most_one_tile_beside_the_matrix():
    pts = np.random.default_rng(0).normal(size=(1000, 3))
    tracemalloc.start()
    try:
        gram_matrix(OFFSET, pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - 8 * 1000 * 1000 <= 2**20
