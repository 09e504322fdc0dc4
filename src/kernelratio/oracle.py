"""Ground-truth quantities for synthetic Gaussian pairs.

Everything an estimator can be judged against lives here: the closed-form
density ratio, population risks by 1-d quadrature, the optimal margin
function, the divergence between true and estimated ratios (computed two
independent ways), population curvature forms, and dense-grid MSE.

Every integral is a composite trapezoid rule on an interval covering both
distributions out to eight standard deviations.  For integrands with
Gaussian tails the rule converges geometrically, far faster than its
generic O(h^2), because the boundary corrections vanish (Trefethen &
Weideman, SIAM Review 56(3), 2014).  So the rule is nested: it starts at
every 16th node of the finest rule (1,251 of the default 20,001; every
8th, 4th or 2nd when 16 does not divide the interval count) and doubles
the intervals, evaluating only the new midpoints, until a level's sum
moved by at most 1e-12 relative from the previous level's, or the finest
rule, `QuadratureSpec.n_nodes`, is reached.  The first test is free: the
starting level's sum against the sum over every other one of its nodes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from .balancing import hessian_weights
from .data import GaussianPairSpec, LabeledDataset, log_true_ratio
from .errors import InputError, NumericalError
from .kernel import KernelSpec, gram_matrix, gram_values
from .losses import LossFamily, divergence, loss_d2, loss_value, optimal_margin, ratio_map
from .solver import RatioModel, fit, margins_at, predict_margin

#: The nested rule starts 2**_START_HALVINGS times coarser than the finest
#: rule, or as coarse as the finest interval count allows.
_START_HALVINGS = 4
#: A row stops at the first level whose sum moved by at most this much,
#: relative, from the previous level's.
_REL_TOL = 1e-12
#: kulsif's Bayes risk is -1/4 int p^2/q, so the share of p^2/q's mass
#: outside the interval is that risk's relative error.  A pair that leaves
#: out more is refused: this bound admits mu_p = 1, mu_q = 0, sigma = 1
#: (1.3e-12 left out) and refuses mu = 0, sigma_q = 1, sigma_p = 1.2 (2.1e-9).
_MAX_TRUNCATED_MASS = 1e-10
#: The trapezoid error on a Gaussian of width sigma at step h is about
#: 2 exp(-2 pi^2 sigma^2 / h^2), which is 1e-12 at h = 0.83 sigma.
_MAX_STEP_PER_SIGMA = 0.83


@dataclass(frozen=True)
class QuadratureSpec:
    lo: float
    hi: float
    n_nodes: int = 20001

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise InputError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if self.n_nodes < 3:
            raise InputError(f"need at least 3 nodes, got {self.n_nodes}")
        if self.n_nodes % 2 == 0:
            raise InputError("trapezoid node count must be odd so refinements nest")

    @property
    def step(self) -> float:
        """The finest rule's node spacing."""
        return (self.hi - self.lo) / (self.n_nodes - 1)

    def nodes_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """The finest composite trapezoid rule on [lo, hi]: nodes and weights."""
        nodes = np.linspace(self.lo, self.hi, self.n_nodes)
        weights = np.full(self.n_nodes, self.step)
        weights[0] = weights[-1] = 0.5 * self.step
        return nodes, weights


def _integrate(integrand, quad: QuadratureSpec, name: str) -> np.ndarray:
    """Nested trapezoid integrals over quad of the rows of integrand(nodes).

    `integrand` returns an array of shape (rows, nodes.size); its nodes
    are slices of quad.nodes_weights()'s, bit for bit.  Each row stops at
    its own first converged level, so its value does not depend on the
    other rows.  A non-finite value raises a NumericalError naming the
    `name` integrand and the first node where any row has one.
    """
    stride = 1 << _START_HALVINGS
    while (quad.n_nodes - 1) % stride:
        stride //= 2
    finest, step = quad.nodes_weights()[0], quad.step

    def checked(nodes):
        values = integrand(nodes)
        bad = ~np.isfinite(values)
        if np.any(bad):
            raise NumericalError(f"non-finite {name} integrand at node x={nodes[np.any(bad, axis=0)][0]}")
        return values

    def row_sums(values):
        # One 1-d sum per row, so no row's sum depends on the others.
        return np.array([np.sum(row) for row in values])

    nodes = finest[::stride]
    values = checked(nodes)
    ends = 0.5 * (values[:, 0] + values[:, -1])
    total = stride * step * (row_sums(values[:, 1:-1]) + ends)
    done = np.zeros(total.shape, dtype=bool)
    if (nodes.size - 1) % 2 == 0:
        coarse = 2 * stride * step * (row_sums(values[:, 2:-1:2]) + ends)
        done = np.abs(total - coarse) <= _REL_TOL * np.abs(total)
    while stride > 1 and not done.all():
        midpoints = finest[stride // 2 :: stride]
        stride //= 2
        refined = 0.5 * total + stride * step * row_sums(checked(midpoints))
        converged = np.abs(refined - total) <= _REL_TOL * np.abs(refined)
        total = np.where(done, total, refined)
        done |= converged
    return total


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
    def default(cls, pair: GaussianPairSpec) -> "OracleContext":
        """The 20,001-node rule over `pair.span()`, where each component's tail
        mass is < 1e-14, and 500 scoring points from 3 sigma below Q's mean
        to 3 sigma above P's.  A pair the rule cannot resolve, its step more
        than 0.83 times the narrower sigma, raises InputError naming it."""
        quad = QuadratureSpec(*pair.span())
        narrower = min(pair.sigma_p, pair.sigma_q)
        if quad.step > _MAX_STEP_PER_SIGMA * narrower:
            raise InputError(
                f"the oracle's {quad.n_nodes:,}-node rule has step {quad.step:.3g}, more than {_MAX_STEP_PER_SIGMA} x "
                f"the narrower sigma {narrower!r}, so it cannot resolve the pair {_fields(pair)}"
            )
        lo, hi = sorted((pair.mu_q - 3.0 * pair.sigma_q, pair.mu_p + 3.0 * pair.sigma_p))
        return cls(pair=pair, quad=quad, eval_grid=np.linspace(lo, hi, 500))


def _fields(pair: GaussianPairSpec) -> str:
    """The pair's fields as name=value, comma-separated, for a message."""
    return ", ".join(f"{name}={value!r}" for name, value in asdict(pair).items())


def _normal_pdf(x, mu: float, sigma: float):
    z = (np.asarray(x, dtype=np.float64) - mu) / sigma
    return np.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))


def densities(pair: GaussianPairSpec, x) -> tuple[np.ndarray, np.ndarray]:
    """(p(x), q(x)) for the two Gaussian components."""
    return _normal_pdf(x, pair.mu_p, pair.sigma_p), _normal_pdf(x, pair.mu_q, pair.sigma_q)


def true_ratio(pair: GaussianPairSpec, x):
    """dP/dQ for the Gaussian pair: (sigma_q/sigma_p) exp(quadratic)."""
    value = np.exp(log_true_ratio(pair, x))
    return float(value) if np.ndim(value) == 0 else value


def _margins_of(family: LossFamily, f):
    """xs -> float64 margins, for a margin function or a model fitted under family's loss.

    A model fitted under another family's loss raises InputError here, before any quadrature.
    """
    if isinstance(f, RatioModel):
        f.check_family(family)
        return lambda xs: np.asarray(predict_margin(f, xs), dtype=np.float64)
    if callable(f):
        return lambda xs: np.asarray(f(xs), dtype=np.float64)
    raise InputError(f"need a model or a margin function, got {type(f).__name__}")


def bayes_margin(ctx: OracleContext, family: LossFamily, x):
    """Optimal margin g^{-1}(beta(x)), the family's inverse ratio map at the log ratio."""
    return optimal_margin(family, log_true_ratio(ctx.pair, x))


def _check_finite_chi2(ctx: OracleContext, family: LossFamily) -> None:
    """Raise InputError if the family's risk needs E_q[beta^2] = int p^2/q and the oracle cannot integrate it.

    For Gaussians, int p^2/q is finite exactly when sigma_p^2 < 2 sigma_q^2.
    Then p^2/q is, up to a constant, the Gaussian of variance
    s^2 = 1/(2/sigma_p^2 - 1/sigma_q^2) and mean s^2 (2 mu_p/sigma_p^2 - mu_q/sigma_q^2),
    and a pair whose int p^2/q is past the float range, or that leaves
    more than _MAX_TRUNCATED_MASS of its mass outside
    the oracle's interval, is refused too.
    """
    pair = ctx.pair
    if not family.needs_finite_chi2:
        return
    if not pair.sigma_p**2 < 2.0 * pair.sigma_q**2:
        raise InputError(
            f"{family.value}'s Bayes risk and divergence need a finite E_q[beta^2], so sigma_p^2 < 2 sigma_q^2, "
            f"which fails for the pair {_fields(pair)}"
        )
    room = 2.0 * pair.sigma_q**2 - pair.sigma_p**2  # positive, as the test above showed
    # log int p^2/q = log(sigma_q^2 / (sigma_p sqrt(room))) + (mu_p - mu_q)^2 / room
    gap = pair.mu_p - pair.mu_q
    log_chi2 = math.log(pair.sigma_q**2 / (pair.sigma_p * math.sqrt(room))) + gap * gap / room
    if not log_chi2 <= math.log(sys.float_info.max):
        raise InputError(
            f"{family.value}'s Bayes risk integrates p^2/q, whose integral e^{log_chi2:.4g} is past the float range, "
            f"for the pair {_fields(pair)}"
        )
    mean = (2.0 * pair.mu_p * pair.sigma_q**2 - pair.mu_q * pair.sigma_p**2) / room
    scale = math.sqrt(2.0) * pair.sigma_p * pair.sigma_q / math.sqrt(room)  # s sqrt(2)
    mass = 0.5 * (math.erfc((ctx.quad.hi - mean) / scale) + math.erfc((mean - ctx.quad.lo) / scale))
    if not mass <= _MAX_TRUNCATED_MASS:
        raise InputError(
            f"{family.value}'s Bayes risk integrates p^2/q, which has {mass:.2g} of its mass outside the oracle's "
            f"interval [{ctx.quad.lo!r}, {ctx.quad.hi!r}], over the bound {_MAX_TRUNCATED_MASS}, "
            f"for the pair {_fields(pair)}"
        )


def _label_mean(per_label, p, q):
    """0.5 per_label(+1) p + 0.5 per_label(-1) q at each node, the half/half label model's mean.

    An overflow stays inf, for _integrate to report without numpy's warning,
    except against a density that underflowed to 0, which adds 0: at exp's
    optimal margin that product is sqrt(pq) < 1e-80.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        pos, neg = 0.5 * per_label(1.0), 0.5 * per_label(-1.0)
        return np.where(p > 0.0, pos * p, 0.0) + np.where(q > 0.0, neg * q, 0.0)


def population_risks(ctx: OracleContext, family: LossFamily, margins_of) -> np.ndarray:
    """Risks of several margin functions, given jointly as their margins.

    `margins_of(nodes)` returns one row of margins per function.  Row k of
    the result is bitwise the risk of function k integrated on its own.
    """

    def integrand(nodes):
        margins = margins_of(nodes)
        p, q = densities(ctx.pair, nodes)
        return _label_mean(lambda y: loss_value(family, y, margins), p, q)

    return _integrate(integrand, ctx.quad, "risk")


def population_risk(ctx: OracleContext, family: LossFamily, f) -> float:
    """Expected loss of a model or margin function under the half/half label model."""
    margins = _margins_of(family, f)
    return float(population_risks(ctx, family, lambda nodes: margins(nodes)[None, :])[0])


def bayes_risk(ctx: OracleContext, family: LossFamily) -> float:
    """Risk of the optimal margin function; InputError where `_check_finite_chi2` finds it infinite."""
    _check_finite_chi2(ctx, family)
    return float(population_risks(ctx, family, lambda nodes: bayes_margin(ctx, family, nodes)[None, :])[0])


def bregman_error_via_risk(ctx: OracleContext, family: LossFamily, model) -> float:
    """Divergence between true and model ratio as twice the excess risk."""
    return 2.0 * (population_risk(ctx, family, model) - bayes_risk(ctx, family))


def bregman_error_direct(ctx: OracleContext, family: LossFamily, model) -> float:
    """Divergence by direct quadrature of the family's pointwise Bregman divergence.

    Integrates losses.divergence(beta, v) against q, with beta the true
    ratio and v the model's margin.  The formula is written in the margin
    and is finite for every finite v, so no node is dropped; this route
    shares only the margins with `bregman_error_via_risk`.  A pair that
    `_check_finite_chi2` refuses raises InputError, and so does a model
    fitted under another family's loss.
    """
    margins = _margins_of(family, model)
    _check_finite_chi2(ctx, family)

    def integrand(nodes):
        _, q = densities(ctx.pair, nodes)
        with np.errstate(over="ignore"):  # a diverged fit's divergence overflows; _integrate reports that
            return (divergence(family, true_ratio(ctx.pair, nodes), margins(nodes)) * q)[None, :]

    return float(_integrate(integrand, ctx.quad, "divergence")[0])


def _h_form_integrals(ctx, family, kernel, points, coeff_rows) -> np.ndarray:
    """Row k: the Bayes-margin curvature-weighted integral of h_k^2, h_k = sum_j coeff_rows[k][j] k(points_j, .)."""

    def integrand(nodes):
        center = bayes_margin(ctx, family, nodes)
        p, q = densities(ctx.pair, nodes)
        weight = _label_mean(lambda y: loss_d2(family, y, center), p, q)
        return weight * margins_at(kernel, points, coeff_rows, nodes) ** 2

    return _integrate(integrand, ctx.quad, "curvature form")


def grid_mse(ctx: OracleContext, model: RatioModel, margins=None) -> float:
    """Mean squared error of the (floored) ratio estimate on the eval grid.

    `margins`, the model's margins on the eval grid, skips predicting them.
    """
    margins = np.asarray(predict_margin(model, ctx.eval_grid) if margins is None else margins, dtype=np.float64)
    if margins.shape != ctx.eval_grid.shape:
        raise InputError(f"got {margins.shape} margins for an eval grid of shape {ctx.eval_grid.shape}")
    estimates = ratio_map(model.family, margins)
    # A diverged fit's ratios may square past the float range: the MSE is
    # then inf, as it should be, without numpy's overflow warning.
    with np.errstate(over="ignore"):
        return float(np.mean((estimates - true_ratio(ctx.pair, ctx.eval_grid)) ** 2))


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
    n_directions: int,
    seed: int,
) -> SandwichReport:
    """Random-direction check of the empirical/population curvature sandwich.

    For standard normal coefficient vectors c (nonzero with probability one),
    tests   emp(c) <= 6 pop(c)   and   6 pop(c) <= 48 emp(c),
    where emp(c) = (1/N) c^T K E K c + lam c^T K c at the fitted model and
    pop(c) is the population form at the Bayes margin, under the
    default kernel.  Returns the fraction of directions passing both.  A fit
    that did not converge raises NumericalError rather than being scored.
    """
    if n_directions < 1:
        raise InputError("need at least one direction")
    kernel = KernelSpec()
    gram = gram_matrix(kernel, dataset.xs)
    model, report = fit(family, kernel, dataset, lam, gram=gram)
    if not report.converged:
        raise NumericalError(f"the fit at lambda={lam} did not converge (grad_norm={report.grad_norm})")
    e = hessian_weights(family, model, dataset, gram)
    n_total = dataset.total

    rng = np.random.default_rng(seed)
    directions = rng.standard_normal((n_directions, n_total))

    kc = directions @ gram_values(gram)  # rows: (K c)^T
    rkhs_sq = np.einsum("ij,ij->i", directions, kc)
    emp = np.einsum("ij,j,ij->i", kc, e, kc) / n_total + lam * rkhs_sq
    pop = _h_form_integrals(ctx, family, kernel, dataset.xs, directions) + lam * rkhs_sq

    both = (emp <= 6.0 * pop) & (6.0 * pop <= 48.0 * emp)
    n_pass = int(np.sum(both))
    return SandwichReport(
        fraction_pass=n_pass / n_directions, n_directions=n_directions, n_pass=n_pass
    )
