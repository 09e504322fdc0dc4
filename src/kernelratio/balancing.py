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
from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset
from .errors import InputError, NumericalError
from .kernel import GramMatrix, KernelSpec, gram_matrix
from .losses import LossFamily, loss_d2
from .solver import FitOptions, FitReport, RatioModel, fit, predict_margin


class BalanceRule(enum.Enum):
    SLOW_RATE = "slow_rate"
    FAST_RATE = "fast_rate"


class SelectionRule(enum.Enum):
    PRACTICAL_MJ = "mj"
    THEORETICAL_ETA_S = "eta-s"
    KNOWN_NORM_ORACLE = "known-norm"


@dataclass(frozen=True)
class LambdaGrid:
    """Geometric candidate sequence lambda_i = lambda0 * xi^i, i = 1..l."""

    lambda0: float
    xi: float
    l: int

    def __post_init__(self) -> None:
        if not (self.lambda0 > 0.0 and np.isfinite(self.lambda0)):
            raise InputError(f"lambda0 must be positive, got {self.lambda0}")
        if not self.xi > 1.0:
            raise InputError(f"xi must exceed 1, got {self.xi}")
        if self.l < 1:
            raise InputError(f"grid length must be >= 1, got {self.l}")

    @property
    def values(self) -> np.ndarray:
        return np.array([self.lambda0 * self.xi**i for i in range(1, self.l + 1)])

    @classmethod
    def from_first(cls, first: float, xi: float, l: int) -> "LambdaGrid":
        """Grid whose smallest value is `first` (so lambda0 = first / xi)."""
        if not first > 0.0:
            raise InputError(f"first grid value must be positive, got {first}")
        return cls(lambda0=first / xi, xi=xi, l=l)


@dataclass(frozen=True)
class HessianWeights:
    """Diagonal of per-sample loss curvatures at a model's margins."""

    e: np.ndarray

    def __post_init__(self) -> None:
        e = np.asarray(self.e, dtype=np.float64).reshape(-1)
        object.__setattr__(self, "e", e)
        if np.any(e < 0.0):
            raise InputError("curvature weights must be nonnegative")


def _matrix(gram) -> np.ndarray:
    return gram.values if isinstance(gram, GramMatrix) else np.asarray(gram, dtype=np.float64)


def hessian_weights(
    family: LossFamily, model: RatioModel, dataset: LabeledDataset, gram: GramMatrix | None = None
) -> HessianWeights:
    """e_i = ell''(y_i, f(x_i)) at the model's training margins.

    kulsif: (1 - y_i)/2 exactly (label-only); exp: e^{-y_i f(x_i)};
    lr: s(1-s) at s = logistic(y_i f(x_i)); sq: the constant 2.
    With the Gram matrix of the training points at hand, the margins are
    read off as K alpha instead of evaluating the kernel again.
    """
    if gram is None:
        margins = predict_margin(model, dataset.xs)
    else:
        margins = _matrix(gram) @ model.alpha
    e = loss_d2(family, dataset.ys.astype(np.float64), margins)
    return HessianWeights(e=e)


def empirical_h_norm(gram, weights: HessianWeights, alpha, beta, lambda_t: float) -> float:
    """(1/N)(a-b)^T K E K (a-b) + lambda_t (a-b)^T K (a-b), computed exactly."""
    if not (lambda_t > 0.0 and np.isfinite(lambda_t)):
        raise InputError(f"lambda_t must be positive, got {lambda_t}")
    K = _matrix(gram)
    delta = np.asarray(alpha, dtype=np.float64) - np.asarray(beta, dtype=np.float64)
    if delta.shape[0] != K.shape[0] or weights.e.shape[0] != K.shape[0]:
        raise InputError("coefficient/weight length does not match the kernel matrix")
    kd = K @ delta
    n_total = K.shape[0]
    return float((kd @ (weights.e * kd)) / n_total + lambda_t * (delta @ kd))


def hessian_trace(gram, weights: HessianWeights, lam: float = 0.0) -> float:
    """Trace of the empirical curvature operator on the representer span.

    The finite-rank part contributes (1/N) sum_i e_i K_ii; with lam > 0
    the lam * identity part adds N * lam (the span is N-dimensional).
    Basis-independent: equals the trace of the coefficient map
    (1/N) E K + lam I.
    """
    K = _matrix(gram)
    n_total = K.shape[0]
    return float(np.mean(weights.e * np.diag(K)) + n_total * lam)


def curvature_operator_norm(gram, weights: HessianWeights) -> float:
    """Spectral norm of (1/N) E K, reported as a per-lambda diagnostic.

    Rows and columns with e_i = 0 add only zero eigenvalues, so only the
    rest is decomposed (for kulsif, the Q block).
    """
    K = _matrix(gram)
    keep = np.flatnonzero(weights.e)
    root = np.sqrt(weights.e[keep])
    sym = root[:, None] * K[np.ix_(keep, keep)] * root[None, :] / K.shape[0]
    return float(np.max(np.abs(np.linalg.eigvalsh(sym)), initial=0.0))


@dataclass(frozen=True)
class BoundConstants:
    """User-supplied theory constants; never estimated from data.

    b1/b2 bound the gradient norm and curvature trace of the loss, radius
    the self-concordance directions, target_norm the risk minimizer's
    norm, q0/capacity_alpha the degrees-of-freedom decay, source_scale/
    source_r the source condition.  delta is the confidence level.
    """

    b1: float = 1.0
    b2: float = 1.0
    radius: float = 1.0
    target_norm: float = 1.0
    q0: float = 1.0
    source_scale: float = 1.0
    source_r: float = 0.5
    capacity_alpha: float = 1.0
    delta: float = 0.05

    def __post_init__(self) -> None:
        for name in ("b1", "b2", "radius", "target_norm", "q0", "source_scale"):
            value = getattr(self, name)
            if not (value > 0.0 and np.isfinite(value)):
                raise InputError(f"{name} must be a positive real, got {value}")
        if not 0.0 < self.source_r <= 0.5:
            raise InputError(f"source_r must lie in (0, 1/2], got {self.source_r}")
        if not self.capacity_alpha >= 1.0:
            raise InputError(f"capacity_alpha must be >= 1, got {self.capacity_alpha}")
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
    """
    if not n_total >= 1:
        raise InputError(f"sample count must be >= 1, got {n_total}")
    if rule is BalanceRule.SLOW_RATE:
        lam = 16.0 * consts.b1 * consts.radius * math.sqrt(consts.log_term) / math.sqrt(n_total)
    else:
        alpha = consts.capacity_alpha
        exponent = alpha / (1.0 + 2.0 * consts.source_r * alpha + alpha)
        lam = (1296.0 * consts.q0**2 / (n_total * consts.source_scale**2)) ** exponent
    balance_gap = balance_eta(rule, consts) * s_term(rule, consts, n_total, lam) - a_term(rule, consts, lam)
    if abs(balance_gap) > 1e-10 * max(a_term(rule, consts, lam), 1e-300):
        raise NumericalError(f"balance postcondition violated: residual {balance_gap}")
    return lam


def rate_exponent(r: float, capacity_alpha: float) -> float:
    """Error-rate exponent (2 r alpha + alpha) / (2 r alpha + alpha + 1)."""
    if not 0.0 < r <= 0.5:
        raise InputError(f"r must lie in (0, 1/2], got {r}")
    if not capacity_alpha >= 1.0:
        raise InputError(f"capacity_alpha must be >= 1, got {capacity_alpha}")
    top = 2.0 * r * capacity_alpha + capacity_alpha
    return top / (top + 1.0)


@dataclass(frozen=True)
class PairwiseEntry:
    """Diagnostics for one (i, j) comparison, 1-based grid indices, j < i."""

    i: int
    j: int
    lambda_i: float
    lambda_j: float
    norm_sq: float
    threshold: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "i": self.i,
            "j": self.j,
            "lambda_i": self.lambda_i,
            "lambda_j": self.lambda_j,
            "norm_sq": self.norm_sq,
            "threshold": self.threshold,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class SelectionReport:
    chosen_lambda: float
    chosen_index: int  # 1-based grid index
    rule: SelectionRule
    grid: LambdaGrid
    pairwise: tuple[PairwiseEntry, ...]
    thresholds_used: tuple[float, ...]
    per_lambda: tuple[dict, ...]
    params: dict

    def to_dict(self) -> dict:
        return {
            "rule": self.rule.value,
            "grid": {
                "lambda0": self.grid.lambda0,
                "xi": self.grid.xi,
                "l": self.grid.l,
                "values": [float(v) for v in self.grid.values],
            },
            "chosen_lambda": self.chosen_lambda,
            "chosen_index": self.chosen_index,
            "thresholds_used": list(self.thresholds_used),
            "pairwise": [entry.to_dict() for entry in self.pairwise],
            "per_lambda": list(self.per_lambda),
            "params": self.params,
        }


def choose_max_qualifying(n_candidates: int, norm_sq: dict, thresholds) -> int:
    """Largest 1-based index i whose norms pass the threshold for all j < i.

    `norm_sq` maps (i, j) with j < i to the squared distance; index 1
    qualifies vacuously.  Monotone in the thresholds: raising any
    threshold can only move the choice up.
    """
    chosen = 1
    for i in range(2, n_candidates + 1):
        if all(norm_sq[(i, j)] <= thresholds[j - 1] for j in range(1, i)):
            chosen = i
    return chosen


def _balance(
    grid: LambdaGrid, rule: SelectionRule, norm_sq, thresholds, per_lambda, params: dict
) -> SelectionReport:
    """The pairwise balancing loop shared by every selection rule.

    `norm_sq(i, j)` is the squared distance between the fits at 1-based
    grid indices j < i; `thresholds[j - 1]` bounds it.
    """
    values = grid.values
    pairwise = []
    norms = {}
    for i in range(2, len(values) + 1):
        for j in range(1, i):
            value = norm_sq(i, j)
            norms[(i, j)] = value
            pairwise.append(
                PairwiseEntry(
                    i=i,
                    j=j,
                    lambda_i=float(values[i - 1]),
                    lambda_j=float(values[j - 1]),
                    norm_sq=value,
                    threshold=thresholds[j - 1],
                    passed=value <= thresholds[j - 1],
                )
            )
    chosen = choose_max_qualifying(len(values), norms, thresholds)
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


def fit_grid(
    family: LossFamily,
    kernel: KernelSpec,
    dataset: LabeledDataset,
    grid: LambdaGrid,
    opts: FitOptions | None = None,
    *,
    gram: GramMatrix | None = None,
) -> list[tuple[RatioModel, FitReport]]:
    """Fit the estimator once per grid value, ascending."""
    if gram is None:
        gram = gram_matrix(kernel, dataset.xs)
    fits = []
    for lam in grid.values:
        try:
            fits.append(fit(family, kernel, dataset, float(lam), opts, gram=gram))
        except NumericalError as exc:
            raise NumericalError(f"fit failed at lambda={lam}: {exc}") from exc
    return fits


def select_from_fits(
    family: LossFamily,
    gram: GramMatrix,
    dataset: LabeledDataset,
    grid: LambdaGrid,
    fits,
    rule: SelectionRule,
    consts: BoundConstants | None = None,
) -> SelectionReport:
    """Run the balancing selection over precomputed grid fits."""
    if rule is SelectionRule.KNOWN_NORM_ORACLE:
        raise InputError("the known-norm rule needs an oracle form; use known_norm_select")
    values = grid.values
    if len(fits) != len(values):
        raise InputError(f"got {len(fits)} fits for a grid of length {len(values)}")
    n_total = dataset.total
    consts = consts or BoundConstants()

    weights = [hessian_weights(family, model, dataset, gram) for model, _ in fits]
    traces = [hessian_trace(gram, w, float(lam)) for w, lam in zip(weights, values)]
    # Equal weights give the same LAPACK result, so each distinct run of
    # them (kulsif's label-only weights, sq's constant ones) is decomposed once.
    curvature_norms = []
    for k, w in enumerate(weights):
        same = k > 0 and np.array_equal(w.e, weights[k - 1].e)
        curvature_norms.append(curvature_norms[-1] if same else curvature_operator_norm(gram, w))

    thresholds = []
    per_lambda = []
    for idx, lam in enumerate(values):
        lam = float(lam)
        entry = {
            "lambda": lam,
            "trace": traces[idx],
            "curvature_norm": curvature_norms[idx],
            "fit": fits[idx][1].to_dict(),
        }
        if rule is SelectionRule.PRACTICAL_MJ:
            if traces[idx] <= 0.0:
                raise NumericalError(f"curvature trace vanished at lambda={lam}")
            m_j = traces[idx] ** -2
            threshold = m_j / (lam * n_total)
            entry["m_j"] = m_j
        else:
            s_j = s_term(BalanceRule.FAST_RATE, consts, n_total, lam)
            threshold = 48.0 * balance_eta(BalanceRule.FAST_RATE, consts) * s_j
            entry["s_j"] = s_j
        thresholds.append(threshold)
        per_lambda.append(entry)

    def norm_sq(i: int, j: int) -> float:
        alpha_i, alpha_j = fits[i - 1][0].alpha, fits[j - 1][0].alpha
        return empirical_h_norm(gram, weights[j - 1], alpha_i, alpha_j, float(values[j - 1]))

    params = {"rule": rule.value, "n_total": n_total}
    if rule is SelectionRule.THEORETICAL_ETA_S:
        params.update(
            {"delta": consts.delta, "q0": consts.q0, "capacity_alpha": consts.capacity_alpha}
        )
    else:
        params["capacity_alpha"] = consts.capacity_alpha
    return _balance(grid, rule, norm_sq, thresholds, per_lambda, params)


def select_lambda(
    dataset: LabeledDataset,
    family: LossFamily,
    kernel: KernelSpec,
    grid: LambdaGrid,
    rule: SelectionRule,
    consts: BoundConstants | None = None,
    opts: FitOptions | None = None,
    *,
    gram: GramMatrix | None = None,
) -> SelectionReport:
    """Fit the whole grid and pick lambda by the balancing rule."""
    if gram is None:
        gram = gram_matrix(kernel, dataset.xs)
    fits = fit_grid(family, kernel, dataset, grid, opts, gram=gram)
    return select_from_fits(family, gram, dataset, grid, fits, rule, consts)


def known_norm_select(
    grid: LambdaGrid,
    fits,
    oracle_h_quadratic_form,
    consts: BoundConstants,
    n_total: int,
) -> SelectionReport:
    """Balancing with the population curvature norm; for tests only.

    `oracle_h_quadratic_form(coeffs, lam)` must return the population
    quadratic form of the coefficient vector at regularization lam; the
    threshold is 8 eta S(N, delta, lambda_j).
    """
    values = grid.values
    if len(fits) != len(values):
        raise InputError(f"got {len(fits)} fits for a grid of length {len(values)}")
    models = [entry[0] if isinstance(entry, tuple) else entry for entry in fits]
    eta = balance_eta(BalanceRule.FAST_RATE, consts)
    thresholds = [
        8.0 * eta * s_term(BalanceRule.FAST_RATE, consts, n_total, float(lam)) for lam in values
    ]

    def norm_sq(i: int, j: int) -> float:
        delta_coeffs = models[i - 1].alpha - models[j - 1].alpha
        return float(oracle_h_quadratic_form(delta_coeffs, float(values[j - 1])))

    per_lambda = [{"lambda": float(lam), "threshold": t} for lam, t in zip(values, thresholds)]
    params = {
        "delta": consts.delta,
        "q0": consts.q0,
        "capacity_alpha": consts.capacity_alpha,
        "n_total": n_total,
    }
    return _balance(grid, SelectionRule.KNOWN_NORM_ORACLE, norm_sq, thresholds, per_lambda, params)
