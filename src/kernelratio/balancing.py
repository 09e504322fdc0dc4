"""Regularization-parameter selection by a balancing principle.

The estimator is fitted on a geometric grid of regularization values.
For a pair lambda_j < lambda_i, the squared distance between the two fits
is measured in the empirical curvature norm anchored at the lambda_j fit,

    ||f_i - f_j||^2 = (1/N)(a-b)^T K E K (a-b) + lambda_j (a-b)^T K (a-b),

where a, b are the coefficient vectors, K the kernel matrix and E the
diagonal of per-sample loss curvatures e_i = ell''(y_i, f_j(x_i)).  The
selected value is the largest grid point whose fit stays within a
variance-proportional threshold of every fit at a smaller lambda.

Two thresholds are exposed:

* practical: M_j / (lambda_j N) with M_j the inverse squared trace of
  the curvature operator on the N-dimensional representer span,
  M_j = ((1/N) sum_i e_i K_ii + N lambda_j)^(-2);
* theoretical: 48 eta S(N, delta, lambda_j) from the fast-rate variance
  term, with eta = 1296 / log(2/delta).

The module also carries the closed-form bias/variance calculators and the
lambda that balances them, used to sanity-check the rules in tests.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .data import LabeledDataset
from .errors import InputError, NumericalError
from .kernel import GramMatrix, KernelSpec, gram_matrix, gram_values
from .losses import LossFamily, loss_d2
from .solver import ClosedFormSystem, FitReport, RatioModel, fit


class BalanceRule(enum.Enum):
    SLOW_RATE = "slow_rate"
    FAST_RATE = "fast_rate"


class SelectionRule(enum.Enum):
    PRACTICAL_MJ = "mj"
    THEORETICAL_ETA_S = "eta-s"


# The longest lambda grid: the selection makes l(l-1)/2 pairwise norms and
# report rows, half a million at this bound, so a longer grid is refused
# before any of its values is built.
MAX_GRID_LENGTH = 1_000

# The smallest pooled sample whose CG grid fits run on threads.  numpy holds
# the GIL through elementwise loops of at most 500 entries, so below this the
# threads mostly wait on each other (a grid at N = 200 or 300 ran slower).
MIN_THREADED_N = 512


@dataclass(frozen=True)
class LambdaGrid:
    """Geometric candidate sequence lambda_i = lambda0 * xi^i, i = 1..l."""

    lambda0: float
    xi: float
    l: int

    def __post_init__(self) -> None:
        if not self.xi > 1.0:
            raise InputError(f"xi must exceed 1, got {self.xi}")
        if self.l < 1:
            raise InputError(f"grid length must be >= 1, got {self.l}")
        if self.l > MAX_GRID_LENGTH:
            raise InputError(f"a grid of {self.l} values is over the limit of {MAX_GRID_LENGTH}")
        # Every value must be a usable lambda; this also rejects a lambda0
        # that is not positive and finite.
        try:
            values = self.values
        except OverflowError:  # xi**i left the float range
            values = np.array([math.inf])
        bad = ~((values > 0.0) & (values < math.inf))
        if bad.any():
            raise InputError(f"grid values must be finite and positive, got {float(values[bad][0])!r}")

    @property
    def values(self) -> np.ndarray:
        return np.array([self.lambda0 * self.xi**i for i in range(1, self.l + 1)])

    @classmethod
    def from_first(cls, first: float, xi: float, l: int) -> "LambdaGrid":
        """Grid whose smallest value is `first` (so lambda0 = first / xi)."""
        if not xi > 1.0:  # checked before dividing by it
            raise InputError(f"xi must exceed 1, got {xi}")
        return cls(lambda0=first / xi, xi=xi, l=l)


def _vector(values, n_total: int, what: str) -> np.ndarray:
    vector = np.asarray(values, dtype=np.float64)
    if vector.shape != (n_total,):
        raise InputError(f"{what} of shape {vector.shape} does not match the kernel matrix ({n_total} points)")
    return vector


def _weights(e, n_total: int) -> np.ndarray:
    """The one check of curvature weights: N nonnegative float64 values (a diverged fit's inf, NaN pass)."""
    e = _vector(e, n_total, "curvature weights")
    if np.any(e < 0.0):
        raise InputError("curvature weights must be nonnegative")
    return e


def hessian_weights(
    family: LossFamily, model: RatioModel, dataset: LabeledDataset, gram: GramMatrix
) -> np.ndarray:
    """e_i = ell''(y_i, f(x_i)) at the model's training margins, a length-N float64 vector.

    kulsif: (1 - y_i)/2 exactly (label-only); exp: e^{-y_i f(x_i)};
    lr: s(1-s) at s = logistic(y_i f(x_i)); sq: the constant 2.
    The margin-quadratic families' ell'' does not depend on the margin, so
    theirs are read off the labels alone.  Otherwise the margins are read
    off the Gram matrix of the training points as K alpha.  A model fitted
    under another family's loss raises InputError.
    """
    model.check_family(family)
    if family.quadratic:
        margins = np.zeros(dataset.total)
    else:
        margins = gram_values(gram) @ model.alpha
    return loss_d2(family, dataset.ys.astype(np.float64), margins)


def empirical_h_norm(gram, weights, alpha, beta, lambda_t: float) -> float:
    """(1/N)(a-b)^T K E K (a-b) + lambda_t (a-b)^T K (a-b), computed exactly.

    `weights`, E's diagonal, is the length-N vector of nonnegative curvatures;
    `_weights` checks it, and `alpha`, `beta` must have length N too.
    """
    if not (lambda_t > 0.0 and np.isfinite(lambda_t)):
        raise InputError(f"lambda_t must be positive, got {lambda_t}")
    K = gram_values(gram)
    n_total = K.shape[0]
    e = _weights(weights, n_total)
    delta = _vector(alpha, n_total, "alpha") - _vector(beta, n_total, "beta")
    kd = K @ delta
    # A diverged fit overflows the form to inf or nan, which the caller gets;
    # numpy's overflow warning would only be noise on stderr.
    with np.errstate(over="ignore", invalid="ignore"):
        return float((kd @ (e * kd)) / n_total + lambda_t * (delta @ kd))


def hessian_trace(gram, weights, lam: float = 0.0) -> float:
    """Trace of the empirical curvature operator on the representer span.

    `weights` is the length-N vector of nonnegative curvatures (checked by
    `_weights`).  The finite-rank part contributes (1/N) sum_i e_i K_ii;
    lam >= 0, finite, adds N * lam (the span is N-dimensional).
    Basis-independent: equals the trace of the coefficient map
    (1/N) E K + lam I.
    """
    if not (lam >= 0.0 and np.isfinite(lam)):
        raise InputError(f"lam must be nonnegative and finite, got {lam}")
    K = gram_values(gram)
    n_total = K.shape[0]
    return float(np.mean(_weights(weights, n_total) * np.diag(K)) + n_total * lam)


def curvature_operator_norm(gram, weights) -> float:
    """Spectral norm of (1/N) E K; no selection rule reads it.

    `weights` is the length-N vector of nonnegative curvatures (checked by
    `_weights`); a non-finite one raises NumericalError naming it.  Rows and
    columns with e_i = 0 add only zero eigenvalues, so only the rest is
    decomposed (for kulsif, the Q block).
    """
    K = gram_values(gram)
    e = _weights(weights, K.shape[0])
    bad = np.flatnonzero(~np.isfinite(e))
    if bad.size:
        raise NumericalError(f"curvature weight {bad[0]} is {e[bad[0]]}, so the operator norm is undefined")
    keep = np.flatnonzero(e)
    root = np.sqrt(e[keep])
    sym = root[:, None] * K[np.ix_(keep, keep)] * root[None, :] / K.shape[0]
    return float(np.max(np.abs(np.linalg.eigvalsh(sym)), initial=0.0))


@dataclass(frozen=True)
class BoundConstants:
    """User-supplied theory constants; never estimated from data.

    b1 bounds the gradient norm of the loss, radius the self-concordance
    directions, target_norm the risk minimizer's norm, q0/capacity_alpha
    the degrees-of-freedom decay, source_scale/source_r the source
    condition.  delta is the confidence level.
    """

    b1: float = 1.0
    radius: float = 1.0
    target_norm: float = 1.0
    q0: float = 1.0
    source_scale: float = 1.0
    source_r: float = 0.5
    capacity_alpha: float = 1.0
    delta: float = 0.05

    def __post_init__(self) -> None:
        for name in ("b1", "radius", "target_norm", "q0", "source_scale"):
            value = getattr(self, name)
            if not (value > 0.0 and np.isfinite(value)):
                raise InputError(f"{name} must be a positive real, got {value}")
        if not 0.0 < self.source_r <= 0.5:
            raise InputError(f"source_r must lie in (0, 1/2], got {self.source_r}")
        if not 1.0 <= self.capacity_alpha < math.inf:
            raise InputError(f"capacity_alpha must be finite and >= 1, got {self.capacity_alpha}")
        # Theory wants delta <= 1/2; any value in (0, 1) is accepted so the
        # calculators stay usable at round-number log(2/delta) targets.
        if not 0.0 < self.delta < 1.0:
            raise InputError(f"delta must lie in (0, 1), got {self.delta}")

    @property
    def log_term(self) -> float:
        return math.log(2.0 / self.delta)


def s_term(rule: BalanceRule, consts: BoundConstants, n_total, lam: float) -> float:
    """Variance term: decreasing in lambda.

    slow rate: 168 b1^2 / (lambda N) log(2/delta)
    fast rate: 414 q0^2 / (N lambda^(1/alpha)) log(2/delta)
    """
    if not lam > 0.0:
        raise InputError(f"lambda must be positive, got {lam}")
    if not n_total >= 1:
        raise InputError(f"sample count must be >= 1, got {n_total}")
    if rule is BalanceRule.SLOW_RATE:
        return 168.0 * consts.b1**2 / (lam * n_total) * consts.log_term
    return 414.0 * consts.q0**2 / (n_total * lam ** (1.0 / consts.capacity_alpha)) * consts.log_term


def a_term(rule: BalanceRule, consts: BoundConstants, lam: float) -> float:
    """Bias term: increasing in lambda, zero at zero.

    slow rate: 4 lambda ||f_H||^2;  fast rate: 414 L^2 lambda^(1+2r)
    """
    if not lam > 0.0:
        raise InputError(f"lambda must be positive, got {lam}")
    if rule is BalanceRule.SLOW_RATE:
        return 4.0 * lam * consts.target_norm**2
    return 414.0 * consts.source_scale**2 * lam ** (1.0 + 2.0 * consts.source_r)


def balance_eta(rule: BalanceRule, consts: BoundConstants) -> float:
    if rule is BalanceRule.SLOW_RATE:
        return 256.0 * consts.radius**2 * consts.target_norm**2 / 42.0
    return 1296.0 / consts.log_term


def balance_lambda(rule: BalanceRule, consts: BoundConstants, n_total: int) -> float:
    """The lambda solving eta * S(lambda) = A(lambda), in closed form.

    slow rate: 16 b1 radius sqrt(log(2/delta)) / sqrt(N)
    fast rate: (1296 q0^2 / (N L^2))^(alpha / (1 + 2 r alpha + alpha))

    Constants that BoundConstants accepts can still put lambda or a side of
    the balance past the float range (a power overflows, or lambda
    underflows to 0); that raises InputError naming the rule.
    """
    if not n_total >= 1:
        raise InputError(f"sample count must be >= 1, got {n_total}")
    lam = variance = bias = math.inf  # what a step that raises leaves behind
    try:
        if rule is BalanceRule.SLOW_RATE:
            lam = 16.0 * consts.b1 * consts.radius * math.sqrt(consts.log_term) / math.sqrt(n_total)
        else:
            alpha = consts.capacity_alpha
            exponent = alpha / (1.0 + 2.0 * consts.source_r * alpha + alpha)
            lam = (1296.0 * consts.q0**2 / (n_total * consts.source_scale**2)) ** exponent
        if lam > 0.0:
            variance = balance_eta(rule, consts) * s_term(rule, consts, n_total, lam)
            bias = a_term(rule, consts, lam)
    except (OverflowError, ZeroDivisionError):
        pass
    if not all(value < math.inf for value in (lam, variance, bias)):
        raise InputError(f"the {rule.value} balancing lambda for these constants leaves the float range")
    balance_gap = variance - bias
    if abs(balance_gap) > 1e-10 * max(bias, 1e-300):
        raise NumericalError(f"balance postcondition violated: residual {balance_gap}")
    return lam


def rate_exponent(r: float, capacity_alpha: float) -> float:
    """Error-rate exponent (2 r alpha + alpha) / (2 r alpha + alpha + 1)."""
    if not 0.0 < r <= 0.5:
        raise InputError(f"r must lie in (0, 1/2], got {r}")
    if not 1.0 <= capacity_alpha < math.inf:
        raise InputError(f"capacity_alpha must be finite and >= 1, got {capacity_alpha}")
    top = 2.0 * r * capacity_alpha + capacity_alpha
    return top / (top + 1.0)


@dataclass(frozen=True)
class SelectionReport:
    chosen_lambda: float
    chosen_index: int  # 1-based grid index
    rule: SelectionRule
    grid: LambdaGrid
    pairwise: tuple[dict, ...]  # keys i, j, lambda_i, lambda_j, norm_sq, threshold, pass
    thresholds_used: tuple[float, ...]
    per_lambda: tuple[dict, ...]
    params: dict

    def to_dict(self) -> dict:
        return {
            "rule": self.rule.value,
            "grid": {**asdict(self.grid), "values": [float(v) for v in self.grid.values]},
            "chosen_lambda": self.chosen_lambda,
            "chosen_index": self.chosen_index,
            "thresholds_used": list(self.thresholds_used),
            "pairwise": list(self.pairwise),
            "per_lambda": list(self.per_lambda),
            "params": self.params,
        }


def _usable_cores() -> int:
    """Cores this process may run on: its affinity set where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def fit_grid(
    family: LossFamily,
    kernel: KernelSpec,
    dataset: LabeledDataset,
    grid: LambdaGrid,
    *,
    gram: GramMatrix,
) -> list[tuple[RatioModel, FitReport]]:
    """Fit the estimator once per grid value, ascending.

    The margin-quadratic families share one closed-form setup over the grid.
    The CG fits of a sample of at least MIN_THREADED_N points run on one
    thread per usable core, up to one per value; each runs the same float
    operations on the same read-only data, so the fits are those of the
    serial loop bit for bit.  A failure names the first failing lambda in
    grid order, after the fits still running have finished.
    """
    system = ClosedFormSystem(family, gram, dataset.ys) if family.quadratic else None

    def fit_at(lam: float) -> tuple[RatioModel, FitReport]:
        try:
            return fit(family, kernel, dataset, lam, gram=gram, system=system)
        except NumericalError as exc:
            raise NumericalError(f"fit failed at lambda={lam}: {exc}") from exc

    lambdas = [float(lam) for lam in grid.values]
    workers = min(_usable_cores(), len(lambdas))
    if family.quadratic or dataset.total < MIN_THREADED_N or workers < 2:
        return [fit_at(lam) for lam in lambdas]
    from concurrent.futures import ThreadPoolExecutor  # importing it costs every `import kernelratio` 5-8 ms

    pool = ThreadPoolExecutor(workers)
    try:
        return list(pool.map(fit_at, lambdas))
    finally:
        pool.shutdown(cancel_futures=True)


def select_from_fits(
    family: LossFamily,
    gram: GramMatrix,
    dataset: LabeledDataset,
    grid: LambdaGrid,
    fits,
    rule: SelectionRule,
    consts: BoundConstants | None = None,
) -> SelectionReport:
    """Run the balancing selection over precomputed grid fits.

    Fit k must be a `family` fit made at the grid's k-th lambda, as
    `fit_grid` makes them; otherwise InputError names the first that is not.
    """
    values = grid.values
    if len(fits) != len(values):
        raise InputError(f"got {len(fits)} fits for a grid of length {len(values)}")
    n_total = dataset.total
    consts = consts or BoundConstants()

    # One row per grid value: (lambda, alpha, curvature weights, threshold).
    rows = []
    per_lambda = []
    for k, ((model, report), lam) in enumerate(zip(fits, map(float, values)), 1):
        if model.lam != lam or model.family is not family:
            raise InputError(
                f"fit {k} is {model.family.value} at lambda={model.lam!r}; "
                f"the selection needs {family.value} at the grid's lambda={lam!r}"
            )
        weights = hessian_weights(family, model, dataset, gram)
        trace = hessian_trace(gram, weights, lam)
        entry = {"lambda": lam, "trace": trace, "fit": report.to_dict()}
        if rule is SelectionRule.PRACTICAL_MJ:
            entry["m_j"] = trace**-2
            threshold = entry["m_j"] / (lam * n_total)
        else:
            entry["s_j"] = s_term(BalanceRule.FAST_RATE, consts, n_total, lam)
            threshold = 48.0 * balance_eta(BalanceRule.FAST_RATE, consts) * entry["s_j"]
        rows.append((lam, model.alpha, weights, threshold))
        per_lambda.append(entry)

    # The choice: the largest i that passes against every j < i (index 1 vacuously).
    pairwise = []
    chosen = 1
    for i, (lambda_i, alpha_i, _, _) in enumerate(rows, 1):
        qualifies = True
        for j, (lambda_j, alpha_j, weights_j, threshold_j) in enumerate(rows[: i - 1], 1):
            value = empirical_h_norm(gram, weights_j, alpha_i, alpha_j, lambda_j)
            passed = value <= threshold_j
            qualifies = qualifies and passed
            pairwise.append(
                {
                    "i": i,
                    "j": j,
                    "lambda_i": lambda_i,
                    "lambda_j": lambda_j,
                    "norm_sq": value,
                    "threshold": threshold_j,
                    "pass": passed,
                }
            )
        if qualifies:
            chosen = i
    thresholds = [threshold for *_, threshold in rows]

    params = {"rule": rule.value, "n_total": n_total}
    if rule is SelectionRule.THEORETICAL_ETA_S:
        params.update({"delta": consts.delta, "q0": consts.q0})
    params["capacity_alpha"] = consts.capacity_alpha
    return SelectionReport(
        chosen_lambda=float(values[chosen - 1]),
        chosen_index=chosen,
        rule=rule,
        grid=grid,
        pairwise=tuple(pairwise),
        thresholds_used=tuple(thresholds),
        per_lambda=tuple(per_lambda),
        params=params,
    )


def fit_and_select(
    dataset: LabeledDataset,
    family: LossFamily,
    kernel: KernelSpec,
    grid: LambdaGrid,
    rule: SelectionRule,
    consts: BoundConstants | None = None,
) -> tuple[list[tuple[RatioModel, FitReport]], SelectionReport]:
    """Fit the whole grid and pick lambda by the balancing rule; returns (fits, report)."""
    gram = gram_matrix(kernel, dataset.xs)
    fits = fit_grid(family, kernel, dataset, grid, gram=gram)
    return fits, select_from_fits(family, gram, dataset, grid, fits, rule, consts)


def select_lambda(
    dataset: LabeledDataset,
    family: LossFamily,
    kernel: KernelSpec,
    grid: LambdaGrid,
    rule: SelectionRule,
    consts: BoundConstants | None = None,
) -> SelectionReport:
    """Fit the whole grid and pick lambda by the balancing rule."""
    return fit_and_select(dataset, family, kernel, grid, rule, consts)[1]
