"""Kernel functions and Gram matrices for the RKHS ratio model.

Two stationary families are supported:

    one_plus_gaussian:  k(x, x') = 1 + exp(-||x - x'||^2 / (2 sigma^2))
    gaussian:           k(x, x') =     exp(-||x - x'||^2 / (2 sigma^2))

The offset kernel (bandwidth 1) is the default; it keeps a constant
function in the hypothesis space, which matters for ratio targets that do
not vanish at infinity.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

# Kernel block entries per tile: 512 KiB of float64, so a tile stays in a
# core's L2 cache.  cross_matrix's scratch and margins_at's tiles use it.
TILE_ENTRIES = 65_536

# The largest pooled sample size N, 2^17: its N x N float64 kernel matrix
# takes 128 GiB, so no larger sample is drawn or asked of numpy.
MAX_POINTS = 131_072


class KernelFamily(enum.Enum):
    ONE_PLUS_GAUSSIAN = "one_plus_gaussian"
    GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family together with its Gaussian scale sigma."""

    family: KernelFamily = KernelFamily.ONE_PLUS_GAUSSIAN
    bandwidth: float = 1.0

    def __post_init__(self) -> None:
        # The kernel divides by 2 sigma^2, which must be neither 0 nor inf.
        try:
            scale = 2.0 * float(self.bandwidth) ** 2
        except OverflowError:
            scale = math.inf
        if not (self.bandwidth > 0.0 and 0.0 < scale < math.inf):
            raise InputError(
                f"bandwidth must be a positive real with 2 * bandwidth**2 in the float range, got {self.bandwidth}"
            )


def check_point_count(n_total: int) -> None:
    """Raise InputError if a pooled sample of n_total points is over MAX_POINTS."""
    if n_total > MAX_POINTS:
        raise InputError(f"a pooled sample of {n_total} points is over the limit of {MAX_POINTS}")


def as_points(xs) -> np.ndarray:
    """Coerce input to an (N, d) float array; 1-d input is N scalar points."""
    arr = np.asarray(xs, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    elif arr.ndim != 2:
        raise InputError(f"points must be at most 2-dimensional, got shape {arr.shape}")
    if arr.shape[0] and not arr.shape[1]:
        raise InputError(f"points need at least one coordinate, got shape {arr.shape}")
    return arr


def _as_vector(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise InputError(f"a single point must be a scalar or 1-d vector, got shape {arr.shape}")
    return arr


def kernel_eval(spec: KernelSpec, x, x_prime) -> float:
    """Evaluate k(x, x') for two points of equal dimension."""
    a = _as_vector(x)
    b = _as_vector(x_prime)
    if a.shape != b.shape:
        raise InputError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    with np.errstate(over="ignore"):  # far points: inf, and exp(-inf) = 0 below
        sq = float(np.sum((a - b) ** 2))
    value = np.exp(-sq / (2.0 * spec.bandwidth**2))
    if spec.family is KernelFamily.ONE_PLUS_GAUSSIAN:
        value = 1.0 + value
    return float(value)


def cross_matrix(spec: KernelSpec, left, right) -> np.ndarray:
    """Rectangular kernel matrix k(left_i, right_j), shape (N, M).

    Built in one (N, M) buffer: squared coordinate differences are summed
    in place, one coordinate at a time, then mapped through the kernel,
    whose one divide by -2 sigma^2 is bitwise a negation and a divide.
    For d > 1 coordinates 2..d are added one block of rows at a time,
    through a scratch of at most TILE_ENTRIES entries (one row, if a row
    is longer).  The sequential sum makes entry (i, j) of
    cross_matrix(x, x) bitwise equal to entry (j, i), with the diagonal
    exactly k(x, x).
    """
    a = as_points(left)
    b = as_points(right)
    if a.shape[1] != b.shape[1]:
        raise InputError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    # Far coordinates or a tiny bandwidth send a pair's scaled squared
    # distance to inf, and exp(-inf) = 0 is their kernel value.
    with np.errstate(over="ignore"):
        values = np.subtract.outer(a[:, 0], b[:, 0])
        np.square(values, out=values)
        if a.shape[1] > 1:
            rows = max(1, TILE_ENTRIES // max(1, b.shape[0]))
            scratch = np.empty((min(rows, a.shape[0]), b.shape[0]))
            for start in range(0, a.shape[0], rows):
                block = values[start : start + rows]
                tmp = scratch[: block.shape[0]]
                for k in range(1, a.shape[1]):
                    np.subtract.outer(a[start : start + rows, k], b[:, k], out=tmp)
                    block += np.square(tmp, out=tmp)
        np.divide(values, -2.0 * spec.bandwidth**2, out=values)
    np.exp(values, out=values)
    if spec.family is KernelFamily.ONE_PLUS_GAUSSIAN:
        np.add(values, 1.0, out=values)
    return values


@dataclass(frozen=True)
class GramMatrix:
    """Dense symmetric kernel matrix over a fixed point set."""

    values: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[0]


def gram_values(gram) -> np.ndarray:
    """The kernel matrix of a GramMatrix, or any array-like taken as one."""
    return gram.values if isinstance(gram, GramMatrix) else np.asarray(gram, dtype=np.float64)


def gram_matrix(spec: KernelSpec, points) -> GramMatrix:
    """Build the N x N kernel matrix, exactly symmetric (see cross_matrix)."""
    pts = as_points(points)
    if pts.shape[0] < 1:
        raise InputError("gram_matrix needs at least one point")
    check_point_count(pts.shape[0])
    values = cross_matrix(spec, pts, pts)
    return GramMatrix(values=values)
