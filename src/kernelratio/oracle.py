"""Ground-truth quantities for synthetic Gaussian pairs.

Everything an estimator can be judged against lives here: the closed-form
density ratio, population risks by 1-d quadrature, the optimal margin
function, the divergence between true and estimated ratios (computed two
independent ways), population curvature forms, and dense-grid MSE.

The default quadrature is a composite trapezoid rule on an interval
covering both distributions out to eight standard deviations; for
integrands with Gaussian tails the rule converges far faster than its
generic O(h^2) because the boundary corrections vanish.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .data import GaussianPairSpec, LabeledDataset, sample_pair
from .errors import InputError, NumericalError
from .kernel import KernelSpec, cross_matrix, gram_matrix
from .losses import (
    POLE_AT_ZERO_FAMILIES,
    RATIO_FLOOR,
    LossFamily,
    QUADRATIC_FAMILIES,
    link,
    loss_d2,
    loss_value,
    phi,
    phi_prime,
    ratio_map,
    ratio_map_raw,
)
from .solver import FitOptions, RatioModel, fit, predict_margin

_ETA_FLOOR = 1e-300
_ETA_CEIL = 1.0 - 1e-16


class QuadScheme(enum.Enum):
    TRAPEZOID = "trapezoid"
    GAUSS_LEGENDRE_COMPOSITE = "gauss_legendre_composite"


@dataclass(frozen=True)
class QuadratureSpec:
    lo: float
    hi: float
    n_nodes: int = 20001
    scheme: QuadScheme = QuadScheme.TRAPEZOID

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise InputError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if self.n_nodes < 3:
            raise InputError(f"need at least 3 nodes, got {self.n_nodes}")
        if self.scheme is QuadScheme.TRAPEZOID and self.n_nodes % 2 == 0:
            raise InputError("trapezoid node count must be odd so refinements nest")

    def nodes_weights(self) -> tuple[np.ndarray, np.ndarray]:
        if self.scheme is QuadScheme.TRAPEZOID:
            nodes = np.linspace(self.lo, self.hi, self.n_nodes)
            h = (self.hi - self.lo) / (self.n_nodes - 1)
            weights = np.full(self.n_nodes, h)
            weights[0] = weights[-1] = 0.5 * h
            return nodes, weights
        # Composite 10-point Gauss-Legendre panels totalling ~n_nodes nodes.
        panels = max(1, round(self.n_nodes / 10))
        base_x, base_w = np.polynomial.legendre.leggauss(10)
        edges = np.linspace(self.lo, self.hi, panels + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        nodes = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
        weights = (half[:, None] * base_w[None, :]).ravel()
        return nodes, weights


def default_quadrature(pair: GaussianPairSpec, n_nodes: int = 20001) -> QuadratureSpec:
    """Trapezoid rule covering both components to 8 sigma (tail mass < 1e-14)."""
    lo = min(pair.mu_p - 8.0 * pair.sigma_p, pair.mu_q - 8.0 * pair.sigma_q)
    hi = max(pair.mu_p + 8.0 * pair.sigma_p, pair.mu_q + 8.0 * pair.sigma_q)
    return QuadratureSpec(lo=lo, hi=hi, n_nodes=n_nodes)


def default_eval_grid(pair: GaussianPairSpec, n_points: int = 500) -> np.ndarray:
    """Equispaced scoring grid from 3 sigma below Q's mean to 3 sigma above P's."""
    lo, hi = sorted((pair.mu_q - 3.0 * pair.sigma_q, pair.mu_p + 3.0 * pair.sigma_p))
    return np.linspace(lo, hi, n_points)


@dataclass(frozen=True)
class OracleContext:
    pair: GaussianPairSpec
    quad: QuadratureSpec
    eval_grid: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        grid = np.asarray(self.eval_grid, dtype=np.float64).reshape(-1)
        object.__setattr__(self, "eval_grid", grid)
        if grid.size == 0:
            raise InputError("eval_grid must be nonempty")
        if np.any(np.diff(grid) < 0):
            raise InputError("eval_grid must be sorted ascending")

    @classmethod
    def default(cls, pair: GaussianPairSpec, n_nodes: int = 20001) -> "OracleContext":
        return cls(pair=pair, quad=default_quadrature(pair, n_nodes), eval_grid=default_eval_grid(pair))


def _normal_pdf(x, mu: float, sigma: float):
    z = (np.asarray(x, dtype=np.float64) - mu) / sigma
    return np.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))


def densities(pair: GaussianPairSpec, x) -> tuple[np.ndarray, np.ndarray]:
    """(p(x), q(x)) for the two Gaussian components."""
    return _normal_pdf(x, pair.mu_p, pair.sigma_p), _normal_pdf(x, pair.mu_q, pair.sigma_q)


def log_true_ratio(pair: GaussianPairSpec, x):
    x = np.asarray(x, dtype=np.float64)
    return (
        math.log(pair.sigma_q / pair.sigma_p)
        - (x - pair.mu_p) ** 2 / (2.0 * pair.sigma_p**2)
        + (x - pair.mu_q) ** 2 / (2.0 * pair.sigma_q**2)
    )


def true_ratio(pair: GaussianPairSpec, x):
    """dP/dQ for the Gaussian pair: (sigma_q/sigma_p) exp(quadratic)."""
    value = np.exp(log_true_ratio(pair, x))
    return float(value) if np.ndim(value) == 0 else value


def _margins_of(f, xs: np.ndarray) -> np.ndarray:
    """Margins at xs of a model or a margin function; an array is taken as them."""
    if isinstance(f, RatioModel):
        return np.asarray(predict_margin(f, xs), dtype=np.float64)
    if callable(f):
        return np.asarray(f(xs), dtype=np.float64)
    margins = np.asarray(f, dtype=np.float64)
    if margins.shape != xs.shape:
        raise InputError(f"got {margins.shape} margins for points of shape {xs.shape}")
    return margins


def bayes_margin(ctx: OracleContext, family: LossFamily, x):
    """Optimal margin Psi(eta(x)) at the posterior eta = p/(p+q).

    Computed through eta = logistic(log ratio), clamped away from {0, 1}
    so the links stay finite in the far tails.
    """
    log_beta = log_true_ratio(ctx.pair, np.asarray(x, dtype=np.float64))
    eta = 1.0 / (1.0 + np.exp(-np.clip(log_beta, -709.0, 709.0)))
    return link(family, np.clip(eta, _ETA_FLOOR, _ETA_CEIL))


def _risk_from_margins(ctx, family, margins, nodes, weights) -> float:
    p, q = densities(ctx.pair, nodes)
    integrand = 0.5 * loss_value(family, 1.0, margins) * p + 0.5 * loss_value(family, -1.0, margins) * q
    bad = ~np.isfinite(integrand)
    if np.any(bad):
        where = nodes[bad][0]
        raise NumericalError(f"non-finite risk integrand at node x={where}")
    return float(weights @ integrand)


def population_risk(ctx: OracleContext, family: LossFamily, f) -> float:
    """Expected loss of a margin function under the half/half label model.

    `f` is a model, a margin function, or its margins at the quadrature nodes.
    """
    nodes, weights = ctx.quad.nodes_weights()
    return _risk_from_margins(ctx, family, _margins_of(f, nodes), nodes, weights)


def bayes_risk(ctx: OracleContext, family: LossFamily) -> float:
    """Risk of the optimal margin function."""
    nodes, weights = ctx.quad.nodes_weights()
    return _risk_from_margins(ctx, family, bayes_margin(ctx, family, nodes), nodes, weights)


def bregman_error_via_risk(ctx: OracleContext, family: LossFamily, model) -> float:
    """Divergence between true and model ratio as twice the excess risk."""
    return 2.0 * (population_risk(ctx, family, model) - bayes_risk(ctx, family))


def bregman_error_direct(
    ctx: OracleContext, family: LossFamily, model, *, with_diagnostics: bool = False
):
    """Divergence by direct quadrature of the generator's Bregman integrand.

    Evaluates phi(beta) - phi(beta_hat) - phi'(beta_hat)(beta - beta_hat)
    against q, with beta_hat the model's raw (unfloored) ratio.  For the
    exp family, nodes where beta_hat falls below RATIO_FLOOR are excluded
    (the generator derivative has a pole at zero); the excluded q-mass is
    available via with_diagnostics.
    """
    nodes, weights = ctx.quad.nodes_weights()
    beta = true_ratio(ctx.pair, nodes)
    margins = _margins_of(model, nodes)
    beta_hat = ratio_map_raw(family, margins)
    _, q = densities(ctx.pair, nodes)

    keep = np.ones(nodes.shape[0], dtype=bool)
    if family in POLE_AT_ZERO_FAMILIES:
        keep = beta_hat >= RATIO_FLOOR
    excluded_mass = float(weights[~keep] @ q[~keep]) if np.any(~keep) else 0.0

    b, bh, w, qv = beta[keep], beta_hat[keep], weights[keep], q[keep]
    with np.errstate(divide="ignore"):
        integrand = (phi(family, b) - phi(family, bh) - phi_prime(family, bh) * (b - bh)) * qv
    bad = ~np.isfinite(integrand)
    if np.any(bad):
        where = nodes[keep][bad][0]
        raise NumericalError(f"non-finite divergence integrand at node x={where}")
    value = float(w @ integrand)
    if with_diagnostics:
        return value, excluded_mass
    return value


def _h_form_weights(ctx, family, center, nodes, weights) -> np.ndarray:
    center_margins = _margins_of(center, nodes)
    p, q = densities(ctx.pair, nodes)
    return weights * (
        0.5 * loss_d2(family, 1.0, center_margins) * p
        + 0.5 * loss_d2(family, -1.0, center_margins) * q
    )


def population_h_form(
    ctx: OracleContext,
    family: LossFamily,
    center,
    lam: float,
    coeffs,
    kernel: KernelSpec,
    points,
) -> float:
    """Population curvature form of h = sum_j c_j k(x_j, .) at a center margin.

    (1/2) int ell''(1, c(x)) h(x)^2 p + (1/2) int ell''(-1, c(x)) h(x)^2 q
    + lam ||h||_H^2, all by the context's quadrature.
    """
    if not lam > 0.0:
        raise InputError(f"lambda must be positive, got {lam}")
    coeffs = np.asarray(coeffs, dtype=np.float64).reshape(-1)
    nodes, weights = ctx.quad.nodes_weights()
    pop_weights = _h_form_weights(ctx, family, center, nodes, weights)
    h_values = cross_matrix(kernel, nodes.reshape(-1, 1), points) @ coeffs
    rkhs_sq = float(coeffs @ (gram_matrix(kernel, points).values @ coeffs))
    return float(pop_weights @ (h_values**2) + lam * rkhs_sq)


def grid_mse(ctx: OracleContext, model: RatioModel, margins=None) -> float:
    """Mean squared error of the (floored) ratio estimate on the eval grid.

    `margins`, the model's margins on the eval grid, skips predicting them.
    """
    margins = _margins_of(model if margins is None else margins, ctx.eval_grid)
    estimates = ratio_map(model.family, margins)
    # A diverged fit's ratios may square past the float range: the MSE is
    # then inf, as it should be, without numpy's overflow warning.
    with np.errstate(over="ignore"):
        return float(np.mean((estimates - true_ratio(ctx.pair, ctx.eval_grid)) ** 2))


def reference_margin(
    ctx: OracleContext,
    family: LossFamily,
    kernel: KernelSpec,
    *,
    n_ref: int = 4000,
    lambda_ref: float = 1e-6,
    seed: int = 20_000_000,
):
    """A margin function approximating the population risk minimizer.

    The quadratic families have margin-independent curvature, so the zero
    margin is an exact stand-in.  Otherwise a lightly regularized fit on a
    large balanced sample serves as the surrogate; build it once and share
    it before any concurrent use.
    """
    if family in QUADRATIC_FAMILIES:
        return lambda xs: np.zeros(np.shape(np.asarray(xs, dtype=np.float64).reshape(-1))[0])
    half = n_ref // 2
    dataset = sample_pair(ctx.pair, half, n_ref - half, seed)
    model, _ = fit(family, kernel, dataset, lambda_ref, FitOptions())
    return lambda xs: predict_margin(model, np.asarray(xs, dtype=np.float64))


@dataclass(frozen=True)
class SandwichReport:
    fraction_pass: float
    n_directions: int
    n_pass: int


def hessian_sandwich_test(
    ctx: OracleContext,
    family: LossFamily,
    dataset: LabeledDataset,
    lam: float,
    reference_center,
    n_directions: int,
    seed: int,
    *,
    kernel: KernelSpec | None = None,
) -> SandwichReport:
    """Random-direction check of the empirical/population curvature sandwich.

    For random coefficient vectors c (zero is excluded by construction),
    tests   emp(c) <= 6 pop(c)   and   6 pop(c) <= 48 emp(c),
    where emp(c) = (1/N) c^T K E K c + lam c^T K c at the fitted model and
    pop(c) is the population form at the reference center.  Returns the
    fraction of directions passing both inequalities.
    """
    if n_directions < 1:
        raise InputError("need at least one direction")
    kernel = kernel or KernelSpec()
    gram = gram_matrix(kernel, dataset.xs)
    model, _ = fit(family, kernel, dataset, lam, gram=gram)
    margins = gram.values @ model.alpha
    e = loss_d2(family, dataset.ys.astype(np.float64), margins)
    n_total = dataset.total

    rng = np.random.default_rng(seed)
    directions = rng.standard_normal((n_directions, n_total))
    zero_rows = ~np.any(directions != 0.0, axis=1)
    while np.any(zero_rows):  # pragma: no cover - measure-zero event
        directions[zero_rows] = rng.standard_normal((int(zero_rows.sum()), n_total))
        zero_rows = ~np.any(directions != 0.0, axis=1)

    kc = directions @ gram.values  # rows: (K c)^T
    rkhs_sq = np.einsum("ij,ij->i", directions, kc)
    emp = np.einsum("ij,j,ij->i", kc, e, kc) / n_total + lam * rkhs_sq

    nodes, weights = ctx.quad.nodes_weights()
    pop_weights = _h_form_weights(ctx, family, reference_center, nodes, weights)
    chunk = max(1, 4_000_000 // n_total)
    acc = np.zeros(n_directions)
    for start in range(0, nodes.shape[0], chunk):
        block = nodes[start : start + chunk].reshape(-1, 1)
        h_block = directions @ cross_matrix(kernel, dataset.xs, block)
        acc += (h_block**2) @ pop_weights[start : start + chunk]
    pop = acc + lam * rkhs_sq

    both = (emp <= 6.0 * pop) & (6.0 * pop <= 48.0 * emp)
    n_pass = int(np.sum(both))
    return SandwichReport(
        fraction_pass=n_pass / n_directions, n_directions=n_directions, n_pass=n_pass
    )
