"""Coefficient optimization for the regularized empirical risk objective.

The model is the kernel expansion f = sum_j alpha_j k(x_j, .) over the
pooled training points.  With margins f = K alpha, the objective is

    J(alpha) = (1/N) sum_i ell(y_i, f_i) + (lambda/2) alpha^T K alpha,

whose gradient is K (d/N + lambda alpha) with d_i = ell'(y_i, f_i).

Two solve paths:

* nonlinear conjugate gradient (Polak-Ribiere+ with restarts, Armijo
  backtracking) from alpha = 0, for any loss family;
* a direct linear solve for the families quadratic in the margin
  (kulsif, sq), which doubles as an oracle for the iterative path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset
from .errors import InputError, NumericalError
from .kernel import GramMatrix, KernelFamily, KernelSpec, as_points, cross_matrix, gram_matrix
from .losses import (
    LossFamily,
    QUADRATIC_FAMILIES,
    loss_d1,
    loss_d2,
    loss_value,
    margin_terms,
    ratio_map,
)

# Cap on kernel block entries when evaluating margins on large grids.
_CHUNK_ENTRIES = 4_000_000


@dataclass(frozen=True)
class RatioModel:
    """Fitted ratio estimator: kernel, training points, coefficients."""

    kernel: KernelSpec
    points: np.ndarray
    alpha: np.ndarray
    lam: float
    family: LossFamily

    def __post_init__(self) -> None:
        pts = as_points(self.points)
        alpha = np.asarray(self.alpha, dtype=np.float64).reshape(-1)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "alpha", alpha)
        if pts.shape[0] < 1:
            raise InputError("a model needs at least one point")
        if alpha.shape[0] != pts.shape[0]:
            raise InputError(f"alpha length {alpha.shape[0]} != {pts.shape[0]} points")
        if not (self.lam > 0.0 and np.isfinite(self.lam)):
            raise InputError(f"lambda must be positive, got {self.lam}")


@dataclass(frozen=True)
class FitReport:
    iterations: int
    grad_norm: float
    objective: float
    converged: bool
    method: str  # "NonlinearCG" | "ClosedForm"

    def to_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "grad_norm": self.grad_norm,
            "objective": self.objective,
            "converged": self.converged,
            "method": self.method,
        }


@dataclass(frozen=True)
class FitOptions:
    method: str = "auto"  # "auto" | "cg" | "closed_form"
    tol_grad: float | None = None  # default 1e-8 * N
    max_iters: int = 5000
    armijo_c: float = 1e-4
    max_halvings: int = 60


def _gram_values(gram) -> np.ndarray:
    return gram.values if isinstance(gram, GramMatrix) else np.asarray(gram, dtype=np.float64)


def objective_and_gradient(family: LossFamily, gram, ys, alpha, lam: float):
    """Objective value and gradient at alpha; margins are K alpha."""
    K = _gram_values(gram)
    ys = np.asarray(ys, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    n_total = ys.shape[0]
    margins = K @ alpha
    value = float(np.mean(loss_value(family, ys, margins)) + 0.5 * lam * (alpha @ margins))
    grad = K @ (loss_d1(family, ys, margins) / n_total + lam * alpha)
    return value, grad


def closed_form_fit(family: LossFamily, gram, ys, lam: float) -> np.ndarray:
    """Direct linear solve for the margin-quadratic families.

    A loss quadratic in the margin has ell'(y, v) = ell'(y, 0) + ell''(y) v,
    so the stationarity condition d/N + lambda alpha = 0 at margins K alpha
    is the linear system ((1/N) E K + lambda I) alpha = -d0 / N, with E the
    curvatures and d0 the slopes at margin zero.  For kulsif E K is
    non-symmetric; LU solves either family.
    """
    if family not in QUADRATIC_FAMILIES:
        raise InputError(f"no closed form for {family.value}; use the CG path")
    K = _gram_values(gram)
    ys = np.asarray(ys, dtype=np.float64)
    n_total = ys.shape[0]
    zero = np.zeros(n_total)
    e = loss_d2(family, ys, zero)
    system = e[:, None] * K / n_total + lam * np.eye(n_total)
    # 0.0 - x, not -x: a zero slope must give +0.0, not -0.0, in the model.
    rhs = 0.0 - loss_d1(family, ys, zero) / n_total
    try:
        return np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"closed-form system is singular: {exc}") from exc


def _fit_cg(family, K, ys, lam, opts, callback=None):
    n_total = ys.shape[0]
    tol = opts.tol_grad if opts.tol_grad is not None else 1e-8 * n_total
    neg_ys = -ys
    alpha = np.zeros(n_total)
    margins = np.zeros(n_total)
    value = float(np.mean(loss_value(family, ys, margins)))
    # The loss terms at the current margins serve the gradient, the next
    # directional curvature and the next line search.
    terms = margin_terms(family, ys, margins, neg_ys)
    grad = K.dot(terms.d1 / n_total)
    direction = -grad
    gg = float(grad.dot(grad))
    step = 1.0
    iterations = 0
    converged = False

    for iteration in range(1, opts.max_iters + 1):
        grad_norm = math.sqrt(gg)
        if callback is not None:
            callback(iteration - 1, alpha, value, grad_norm)
        if grad_norm <= tol:
            converged = True
            break
        iterations = iteration

        slope = float(grad.dot(direction))
        if slope >= 0.0:  # non-descent: restart on steepest descent
            direction = -grad
            slope = -gg
        kd = K.dot(direction)
        reg1 = float(direction.dot(margins))
        reg2 = float(direction.dot(kd))

        # Trial step from the analytic directional curvature at t = 0:
        # exact line minimizer for quadratic losses, Newton guess otherwise.
        # np.add.reduce(x) / N is what np.mean(x) computes.
        curv = float(np.add.reduce(terms.d2 * kd * kd) / n_total + lam * reg2)
        if math.isfinite(curv) and curv > 0.0:
            t = -slope / curv
        else:
            t = 2.0 * step
        t = min(max(t, 1e-16), 1e12)

        accepted = False
        for _ in range(opts.max_halvings + 1):
            # Objective change from stepping t along the direction.
            t_kd = t * kd
            loss_part = float(np.add.reduce(terms.delta(t_kd)) / n_total)
            delta = loss_part + lam * (t * reg1 + 0.5 * t * t * reg2)
            if delta <= opts.armijo_c * t * slope:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            raise NumericalError(
                f"line search failed after {opts.max_halvings} halvings at iteration {iteration}"
            )

        alpha = alpha + t * direction
        margins = margins + t_kd
        value = value + delta
        step = t

        terms = margin_terms(family, ys, margins, neg_ys)
        grad_new = K.dot(terms.d1 / n_total + lam * alpha)
        gg_new = float(grad_new.dot(grad_new))
        beta = max(0.0, float(grad_new.dot(grad_new - grad)) / gg)
        # Quadratic losses with exact line steps are plain CG: restarting
        # on a schedule throws away the Krylov progress ill-conditioned
        # kernel spectra need, so only non-descent restarts apply.  The
        # curved losses get Powell's orthogonality-loss restart plus a
        # long periodic backstop.
        if family not in QUADRATIC_FAMILIES and (
            abs(float(grad_new.dot(grad))) >= 0.2 * gg_new or iteration % (10 * n_total) == 0
        ):
            beta = 0.0
        direction = beta * direction - grad_new  # equals -grad_new + beta * direction bit for bit
        grad = grad_new
        gg = gg_new

    grad_norm = math.sqrt(gg)
    # Recompute the regularized objective from scratch to avoid drift.
    value = float(np.mean(loss_value(family, ys, margins)) + 0.5 * lam * (alpha @ margins))
    return alpha, FitReport(
        iterations=iterations,
        grad_norm=grad_norm,
        objective=value,
        converged=converged,
        method="NonlinearCG",
    )


def fit(
    family: LossFamily,
    kernel: KernelSpec,
    dataset: LabeledDataset,
    lam: float,
    opts: FitOptions | None = None,
    *,
    gram: GramMatrix | None = None,
    callback=None,
) -> tuple[RatioModel, FitReport]:
    """Minimize the regularized objective; returns the model and a report.

    The closed-form path is the default for the margin-quadratic families,
    CG for the rest.  Non-convergence is reported, never silent.
    """
    if dataset.total < 1:
        raise InputError("dataset is empty")
    if not (lam > 0.0 and np.isfinite(lam)):
        raise InputError(f"lambda must be positive, got {lam}")
    opts = opts or FitOptions()
    if opts.method not in ("auto", "cg", "closed_form"):
        raise InputError(f"unknown method {opts.method!r}")
    if gram is None:
        gram = gram_matrix(kernel, dataset.xs)
    K = gram.values
    ys = dataset.ys

    use_closed = opts.method == "closed_form" or (
        opts.method == "auto" and family in QUADRATIC_FAMILIES
    )
    if use_closed:
        alpha = closed_form_fit(family, K, ys, lam)
        value, grad = objective_and_gradient(family, K, ys, alpha, lam)
        tol = opts.tol_grad if opts.tol_grad is not None else 1e-8 * dataset.total
        grad_norm = float(np.linalg.norm(grad))
        report = FitReport(
            iterations=0,
            grad_norm=grad_norm,
            objective=value,
            converged=grad_norm <= tol,
            method="ClosedForm",
        )
    else:
        alpha, report = _fit_cg(family, K, ys.astype(np.float64), lam, opts, callback)
    model = RatioModel(kernel=kernel, points=dataset.xs, alpha=alpha, lam=lam, family=family)
    return model, report


def margins_at(kernel: KernelSpec, points, alphas, xs) -> np.ndarray:
    """Margins at xs of several expansions over the same kernel and points.

    Row k holds f_k(x) = sum_j alphas[k][j] k(points_j, x).  The kernel
    matrix is built in row blocks of about _CHUNK_ENTRIES entries, each
    once, and every coefficient vector multiplies each block in turn, so
    row k is bitwise what the model with coefficients alphas[k] predicts
    on its own.
    """
    points = as_points(points)
    xs = as_points(xs)
    n_eval = xs.shape[0]
    out = np.empty((len(alphas), n_eval))
    whole = points.shape[0] * n_eval <= _CHUNK_ENTRIES
    chunk = max(1, n_eval if whole else _CHUNK_ENTRIES // points.shape[0])
    for start in range(0, n_eval, chunk):
        block = cross_matrix(kernel, xs[start : start + chunk], points)
        for row, alpha in zip(out, alphas):
            row[start : start + chunk] = block @ alpha
    return out


def predict_margin(model: RatioModel, x):
    """Margin f(x) = sum_j alpha_j k(x_j, x); scalar in, scalar out."""
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0 or (arr.ndim == 1 and model.points.shape[1] != 1)
    if arr.ndim == 1 and model.points.shape[1] != 1 and arr.shape[0] != model.points.shape[1]:
        raise InputError(f"point has dimension {arr.shape[0]}, model expects {model.points.shape[1]}")
    pts = as_points(arr if not scalar else arr.reshape(1, -1))
    if pts.shape[1] != model.points.shape[1]:
        raise InputError(f"points have dimension {pts.shape[1]}, model expects {model.points.shape[1]}")
    values = margins_at(model.kernel, model.points, [model.alpha], pts)[0]
    return float(values[0]) if scalar else values


def predict_ratio(model: RatioModel, x):
    """Density-ratio estimate g(f(x)), floored at zero."""
    margins = predict_margin(model, x)
    ratios = ratio_map(model.family, margins)
    return float(ratios) if np.ndim(ratios) == 0 else ratios


def model_to_dict(model: RatioModel, *, seed=None, dataset_hash=None) -> dict:
    return {
        "kernel_family": model.kernel.family.value,
        "bandwidth": model.kernel.bandwidth,
        "loss": model.family.value,
        "lambda": model.lam,
        "points": [[float(v) for v in row] for row in model.points],
        "alpha": [float(v) for v in model.alpha],
        "seed": seed,
        "dataset_hash": dataset_hash,
    }


def save_model(model: RatioModel, path: str, *, seed=None, dataset_hash=None) -> None:
    """Persist a model as a JSON document with stable key order."""
    doc = model_to_dict(model, seed=seed, dataset_hash=dataset_hash)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_model(path: str) -> tuple[RatioModel, dict]:
    """Load a model JSON; returns the model and the raw document.

    Anything but an object with finite points and coefficients raises
    InputError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise InputError(f"cannot read model file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"malformed model file {path}: expected a JSON object")
    try:
        model = RatioModel(
            kernel=KernelSpec(KernelFamily(doc["kernel_family"]), float(doc["bandwidth"])),
            points=np.asarray(doc["points"], dtype=np.float64),
            alpha=np.asarray(doc["alpha"], dtype=np.float64),
            lam=float(doc["lambda"]),
            family=LossFamily(doc["loss"]),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed model file {path}: {exc}") from exc
    if not (np.all(np.isfinite(model.points)) and np.all(np.isfinite(model.alpha))):
        raise InputError(f"malformed model file {path}: non-finite points or alpha")
    return model, doc
