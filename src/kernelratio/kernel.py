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
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError


class KernelFamily(enum.Enum):
    ONE_PLUS_GAUSSIAN = "one_plus_gaussian"
    GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family together with its Gaussian scale sigma."""

    family: KernelFamily = KernelFamily.ONE_PLUS_GAUSSIAN
    bandwidth: float = 1.0

    def __post_init__(self) -> None:
        if not (self.bandwidth > 0.0 and np.isfinite(self.bandwidth)):
            raise InputError(f"bandwidth must be a positive real, got {self.bandwidth}")

    @property
    def diagonal_value(self) -> float:
        """k(x, x): 2 for the offset family, 1 for the plain Gaussian."""
        return 2.0 if self.family is KernelFamily.ONE_PLUS_GAUSSIAN else 1.0


def as_points(xs) -> np.ndarray:
    """Coerce input to an (N, d) float array; 1-d input is N scalar points."""
    arr = np.asarray(xs, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    elif arr.ndim != 2:
        raise InputError(f"points must be at most 2-dimensional, got shape {arr.shape}")
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
    sq = float(np.sum((a - b) ** 2))
    value = np.exp(-sq / (2.0 * spec.bandwidth**2))
    if spec.family is KernelFamily.ONE_PLUS_GAUSSIAN:
        value = 1.0 + value
    return float(value)


def cross_matrix(spec: KernelSpec, left, right) -> np.ndarray:
    """Rectangular kernel matrix k(left_i, right_j), shape (N, M).

    Built in one (N, M) buffer: squared coordinate differences are summed
    in place, one coordinate at a time, then mapped through the kernel.
    The sequential sum makes entry (i, j) of cross_matrix(x, x) bitwise
    equal to entry (j, i), with the diagonal exactly k(x, x).
    """
    a = as_points(left)
    b = as_points(right)
    if a.shape[1] != b.shape[1]:
        raise InputError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    values = np.subtract.outer(a[:, 0], b[:, 0])
    np.square(values, out=values)
    if a.shape[1] > 1:
        scratch = np.empty_like(values)
        for k in range(1, a.shape[1]):
            np.subtract.outer(a[:, k], b[:, k], out=scratch)
            values += np.square(scratch, out=scratch)
    np.negative(values, out=values)
    np.divide(values, 2.0 * spec.bandwidth**2, out=values)
    np.exp(values, out=values)
    if spec.family is KernelFamily.ONE_PLUS_GAUSSIAN:
        np.add(values, 1.0, out=values)
    return values


@dataclass(frozen=True)
class GramMatrix:
    """Dense symmetric kernel matrix over a fixed point set."""

    values: np.ndarray
    points: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.values.shape[0]


def gram_matrix(spec: KernelSpec, points) -> GramMatrix:
    """Build the N x N kernel matrix, exactly symmetric (see cross_matrix)."""
    pts = as_points(points)
    if pts.shape[0] < 1:
        raise InputError("gram_matrix needs at least one point")
    values = cross_matrix(spec, pts, pts)
    return GramMatrix(values=values, points=pts)
