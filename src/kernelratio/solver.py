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
  Everything in it but lambda is set up once per dataset
  (`ClosedFormSystem`), so a whole lambda grid shares one setup: a
  Lanczos basis for a large block, an LU per lambda otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .data import LabeledDataset, check_json_number, read_json, write_json
from .errors import InputError, NumericalError
from .kernel import (
    TILE_ENTRIES,
    GramMatrix,
    KernelFamily,
    KernelSpec,
    as_points,
    cross_matrix,
    gram_matrix,
    gram_values,
)
from .losses import (
    LossFamily,
    loss_d1,
    loss_value,
    margin_terms,
    ratio_map,
)

# Armijo sufficient-decrease constant and the line search's halving budget.
_ARMIJO_C = 1e-4
_MAX_HALVINGS = 60

# The curved block's row count from which the closed form solves a lambda
# grid from Lanczos bases; below it, one LU per lambda is faster.
MIN_LANCZOS_ROWS = 128


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
        alpha = np.asarray(self.alpha, dtype=np.float64)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "alpha", alpha)
        if pts.shape[0] < 1:
            raise InputError("a model needs at least one point")
        if alpha.ndim != 1:
            raise InputError(f"alpha must be a flat vector, got shape {alpha.shape}")
        if alpha.shape[0] != pts.shape[0]:
            raise InputError(f"alpha length {alpha.shape[0]} != {pts.shape[0]} points")
        if not (self.lam > 0.0 and np.isfinite(self.lam)):
            raise InputError(f"lambda must be positive, got {self.lam}")

    def check_family(self, family: LossFamily) -> None:
        """Raise InputError unless the model was fitted under family's loss."""
        if family is not self.family:
            raise InputError(f"the model was fitted under {self.family.value}'s loss, not {family.value}'s")


@dataclass(frozen=True)
class FitReport:
    iterations: int
    grad_norm: float
    objective: float
    converged: bool
    method: str  # "NonlinearCG" | "ClosedForm"

    def to_dict(self) -> dict:
        return {field.name: getattr(self, field.name) for field in fields(self)}


@dataclass(frozen=True)
class FitOptions:
    method: str = "auto"  # "auto" | "cg"
    tol_grad: float | None = None  # None: scaled by the sample count in fit
    max_iters: int = 5000


@np.errstate(over="ignore", invalid="ignore")  # past the float range J is inf or nan, which a report shows
def _objective(family: LossFamily, ys, alpha, margins, lam: float) -> float:
    """J(alpha) at margins K alpha."""
    return float(np.mean(loss_value(family, ys, margins)) + 0.5 * lam * (alpha @ margins))


def _gradient(K, d1, alpha, lam: float) -> np.ndarray:
    """The gradient K (d/N + lambda alpha) of J, from the loss slopes d1 at margins K alpha."""
    return K.dot(d1 / d1.shape[0] + lam * alpha)


def objective_and_gradient(family: LossFamily, gram, ys, alpha, lam: float):
    """Objective value and gradient at alpha; margins are K alpha."""
    K = gram_values(gram)
    ys = np.asarray(ys, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    margins = K.dot(alpha)
    return _objective(family, ys, alpha, margins, lam), _gradient(K, loss_d1(family, ys, margins), alpha, lam)


def _lanczos(block, b, cap: int):
    """Lanczos on the symmetric block from b, or None if it needs more than cap steps.

    Returns the basis (one orthonormal row per step), the tridiagonal
    projection T of the block onto it, |b| and the largest |Rayleigh
    quotient| seen.  Each new vector is reorthogonalized against the whole
    basis, twice.  The run stops when the next vector's norm is at most
    1e-14 times that quotient, so the basis spans the block's action on b
    to float resolution, or when the basis spans the whole space.
    """
    n = b.shape[0]
    norm = float(np.linalg.norm(b))
    basis = np.empty((min(cap, n), n))
    diag, off, rho = [], [], 0.0
    q = b / norm
    for j in range(n):
        if j == cap:
            return None
        basis[j] = q
        v = block @ q
        coeffs = basis[: j + 1] @ v
        v -= coeffs @ basis[: j + 1]
        v -= (basis[: j + 1] @ v) @ basis[: j + 1]
        diag.append(float(coeffs[j]))
        rho = max(rho, abs(diag[-1]))
        beta = float(np.linalg.norm(v))
        if beta <= 1e-14 * rho or j + 1 == n:
            break
        off.append(beta)
        q = v / beta
    return basis[: j + 1], np.diag(diag) + np.diag(off, 1) + np.diag(off, -1), norm, rho


class ClosedFormSystem:
    """The lambda-invariant part of the direct solve for the margin-quadratic families.

    A loss quadratic in the margin has ell'(y, v) = ell'(y, 0) + ell''(y) v,
    so the stationarity condition d/N + lambda alpha = 0 at margins K alpha
    is the linear system ((1/N) E K + lambda I) alpha = -d0 / N, with E the
    curvatures and d0 the slopes at margin zero.  A row with zero curvature
    (kulsif's P block) reads lambda alpha_i = -d0_i / N, so those rows are
    set directly; the curved rows S then solve the smaller system
    ((1/N) E_S K_SS + lambda I) alpha_S = u + w / lambda over the flat rows
    Z, with u = -d0_S / N and w = E_S K_SZ d0_Z / N^2, since
    K_SZ alpha_Z = -K_SZ d0_Z / (N lambda).  With no flat rows (sq) this is
    the full system and w is zero; kulsif's u is zero.

    Everything but lambda is built once, here, so a whole lambda grid shares
    it: the vector K_SZ d0_Z and the block B = (1/N) E_S K_SS.  When B has
    at least MIN_LANCZOS_ROWS rows and one curvature, so that it is
    symmetric, each nonzero direction of u and w also gets a Lanczos basis
    (`lanczos`) of at most max(64, rows / 4) vectors: a grid is shifts of one
    matrix, and the kernel block's fast spectral decay makes the basis
    small.  `solve` then takes alpha_S from small tridiagonal solves and
    keeps it if its residual in the block's own system is at LU level.
    Otherwise it solves by LU: it adds lambda to the block's diagonal,
    solves, and takes it off again, so one system serves one solve at a
    time.  LU also serves a small block, a basis that would outgrow its
    cap (`lanczos` is None), and a lambda below the float resolution of a
    diagonal entry, whose singular and non-finite cases it reports.
    """

    def __init__(self, family: LossFamily, gram, ys) -> None:
        if not family.quadratic:
            raise InputError(f"no closed form for {family.value}; use the CG path")
        K = gram_values(gram)
        ys = np.asarray(ys, dtype=np.float64)
        terms = margin_terms(family, ys, np.zeros(ys.shape[0]))
        e = terms.d2
        self.family, self.gram, self.ys = family, K, ys
        self.n_total = ys.shape[0]
        self.d0 = terms.d1
        self.flat = np.flatnonzero(e == 0.0)
        self.curved = np.flatnonzero(e != 0.0)
        self.e_s = e[self.curved]
        # The K_SZ gather is freed before the block below is allocated.
        self.kz_d0 = K[np.ix_(self.curved, self.flat)] @ self.d0[self.flat]
        # (1/N) E_S K_SS, built in its one buffer; _diagonal is a view of its diagonal.
        self.block = K[np.ix_(self.curved, self.curved)]
        self.block *= self.e_s[:, None]
        self.block /= self.n_total
        self._diagonal = self.block.reshape(-1)[:: self.curved.size + 1]
        self._block_diagonal = self._diagonal.copy()
        # One (basis, T, |b|, largest |Rayleigh quotient|, whether b is w) per nonzero direction.
        self.lanczos = None
        n_curved = self.curved.size
        if n_curved >= MIN_LANCZOS_ROWS and np.all(self.e_s == self.e_s[0]):
            self.lanczos = []
            directions = ((0.0 - self.d0[self.curved]) / self.n_total, self.e_s * self.kz_d0 / self.n_total**2)
            for per_lambda, b in enumerate(directions):
                if np.any(b != 0.0):
                    run = _lanczos(self.block, b, max(64, n_curved // 4))
                    if run is None:
                        self.lanczos = None
                        break
                    self.lanczos.append((*run, per_lambda))

    def serves(self, family: LossFamily, K, ys) -> bool:
        """Whether this system was set up for family over this very Gram matrix and these labels."""
        return family is self.family and K is self.gram and np.array_equal(ys, self.ys)

    # A subnormal lambda overflows the coefficients; the finite check reports
    # that, not numpy.
    @np.errstate(over="ignore", invalid="ignore", divide="ignore")
    def solve(self, lam: float) -> np.ndarray:
        n_total, flat, curved, d0 = self.n_total, self.flat, self.curved, self.d0
        alpha = np.empty(n_total)
        # 0.0 - x, not -x: a zero slope must give +0.0, not -0.0, in the model.
        alpha[flat] = 0.0 - d0[flat] / (n_total * lam)
        rhs = 0.0 - (d0[curved] - self.e_s * (self.kz_d0 / (n_total * lam))) / n_total
        x = self._solve_lanczos(lam, rhs)
        alpha[curved] = self._solve_lu(lam, rhs) if x is None else x
        if not np.all(np.isfinite(alpha)):
            raise NumericalError(f"closed-form coefficients are not finite at lambda={lam}")
        return alpha

    def _solve_lanczos(self, lam: float, rhs) -> np.ndarray | None:
        """alpha_S from the Lanczos bases, or None where LU must solve."""
        if self.lanczos is None or np.any(self._block_diagonal + lam == self._block_diagonal):
            return None
        # Starts at +0.0, so a zero right-hand side (kulsif with no P points) gives +0.0.
        x = np.zeros(self.curved.size)
        rho = 0.0
        for basis, tridiagonal, norm, run_rho, per_lambda in self.lanczos:
            first = np.zeros(tridiagonal.shape[0])
            first[0] = norm / lam if per_lambda else norm
            try:
                x += np.linalg.solve(tridiagonal + lam * np.eye(first.size), first) @ basis
            except np.linalg.LinAlgError:
                return None
            rho = max(rho, run_rho)
        # The residual certificate costs one block matvec; its scale comes
        # from the Lanczos runs, not from a norm of the block.  <=, so a nan
        # residual goes to LU.
        residual = rhs - (self.block @ x + lam * x)
        bound = 64 * np.finfo(np.float64).eps * math.sqrt(x.size) * (rho * np.linalg.norm(x) + np.linalg.norm(rhs))
        return x if np.linalg.norm(residual) <= bound else None

    def _solve_lu(self, lam: float, rhs) -> np.ndarray:
        self._diagonal[:] = self._block_diagonal + lam
        try:
            # + 0.0 turns the -0.0 that a negative LU pivot makes of a zero
            # right-hand side (kulsif with no P points) into +0.0.
            return np.linalg.solve(self.block, rhs) + 0.0
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"closed-form system is singular: {exc}") from exc
        finally:
            self._diagonal[:] = self._block_diagonal


@np.errstate(over="ignore")  # a trial step whose loss change overflows to inf fails Armijo and is halved
def _fit_cg(family, K, ys, lam, opts):
    n_total = ys.shape[0]
    neg_ys = -ys
    alpha = np.zeros(n_total)
    margins = np.zeros(n_total)
    # The loss terms at the current margins serve the gradient, the next
    # directional curvature and the next line search.
    terms = margin_terms(family, ys, margins, neg_ys)
    grad = _gradient(K, terms.d1, alpha, lam)
    direction = -grad
    gg = float(grad.dot(grad))
    step = 1.0
    iterations = 0

    # not <=: a NaN gradient norm keeps iterating, up to the cap.
    while iterations < opts.max_iters and not math.sqrt(gg) <= opts.tol_grad:
        iterations += 1
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

        for _ in range(_MAX_HALVINGS + 1):
            # Objective change from stepping t along the direction.
            t_kd = t * kd
            loss_part = float(np.add.reduce(terms.delta(t_kd)) / n_total)
            delta = loss_part + lam * (t * reg1 + 0.5 * t * t * reg2)
            if delta <= _ARMIJO_C * t * slope:
                break
            t *= 0.5
        else:
            raise NumericalError(f"line search failed after {_MAX_HALVINGS} halvings at iteration {iterations}")

        alpha = alpha + t * direction
        margins = margins + t_kd
        step = t

        terms = margin_terms(family, ys, margins, neg_ys)
        grad_new = _gradient(K, terms.d1, alpha, lam)
        gg_new = float(grad_new.dot(grad_new))
        beta = max(0.0, float(grad_new.dot(grad_new - grad)) / gg)
        # Quadratic losses with exact line steps are plain CG: restarting
        # on a schedule throws away the Krylov progress ill-conditioned
        # kernel spectra need, so only non-descent restarts apply.  The
        # curved losses get Powell's orthogonality-loss restart plus a
        # long periodic backstop.
        if not family.quadratic and (
            abs(float(grad_new.dot(grad))) >= 0.2 * gg_new or iterations % (10 * n_total) == 0
        ):
            beta = 0.0
        direction = beta * direction - grad_new  # equals -grad_new + beta * direction bit for bit
        grad = grad_new
        gg = gg_new

    return alpha, margins, iterations


def fit(
    family: LossFamily,
    kernel: KernelSpec,
    dataset: LabeledDataset,
    lam: float,
    opts: FitOptions | None = None,
    *,
    gram: GramMatrix | None = None,
    system: ClosedFormSystem | None = None,
) -> tuple[RatioModel, FitReport]:
    """Minimize the regularized objective; returns the model and a report.

    The closed-form path is the default for the margin-quadratic families,
    CG for the rest.  `system`, the closed form set up for family over
    `gram` and the dataset's labels, lets a grid of fits share that setup.
    Non-convergence is reported, never silent: the fit converged when its
    final gradient norm is at most opts.tol_grad (1e-8 N by default).
    """
    if not (lam > 0.0 and np.isfinite(lam)):
        raise InputError(f"lambda must be positive, got {lam}")
    opts = opts or FitOptions()
    if opts.tol_grad is None:
        opts = replace(opts, tol_grad=1e-8 * dataset.total)
    if opts.method not in ("auto", "cg"):
        raise InputError(f"unknown method {opts.method!r}")
    if opts.max_iters < 1:
        raise InputError(f"max_iters must be at least 1, got {opts.max_iters}")
    if gram is None:
        gram = gram_matrix(kernel, dataset.xs)
    K = gram_values(gram)
    if K.shape != (dataset.total, dataset.total):
        raise InputError(f"the Gram matrix has shape {K.shape}, not ({dataset.total}, {dataset.total})")
    ys = dataset.ys

    # At extreme lambda, or on a diverged fit, the margins, the objective and
    # the gradient norm overflow to inf or nan, which the report shows.
    with np.errstate(over="ignore", invalid="ignore"):
        if opts.method == "auto" and family.quadratic:
            if system is None:
                system = ClosedFormSystem(family, K, ys)
            elif not system.serves(family, K, ys):
                raise InputError("the closed-form system was set up for another family, Gram matrix or labels")
            alpha, iterations, method = system.solve(lam), 0, "ClosedForm"
            margins = K.dot(alpha)
        else:
            alpha, margins, iterations = _fit_cg(family, K, ys.astype(np.float64), lam, opts)
            method = "NonlinearCG"
        grad_norm = float(np.linalg.norm(_gradient(K, loss_d1(family, ys, margins), alpha, lam)))
        objective = _objective(family, ys, alpha, margins, lam)
    report = FitReport(iterations, grad_norm, objective, converged=grad_norm <= opts.tol_grad, method=method)
    model = RatioModel(kernel=kernel, points=dataset.xs, alpha=alpha, lam=lam, family=family)
    return model, report


def margins_at(kernel: KernelSpec, points, alphas, xs) -> np.ndarray:
    """Margins at xs of several expansions over the same kernel and points.

    Row k holds f_k(x) = sum_j alphas[k][j] k(points_j, x).  The kernel
    matrix is built in row tiles of TILE_ENTRIES entries or 8 rows,
    whichever is more, each once, and every coefficient vector multiplies
    each tile in turn, so row k is bitwise what the model with
    coefficients alphas[k] predicts on its own.
    """
    points = as_points(points)
    xs = as_points(xs)
    if points.shape[0] < 1:
        raise InputError("an expansion needs at least one point")
    for k, alpha in enumerate(alphas):
        if np.shape(alpha) != (points.shape[0],):
            raise InputError(f"alphas[{k}] has shape {np.shape(alpha)}, not ({points.shape[0]},) for the points")
    out = np.empty((len(alphas), xs.shape[0]))
    # A multiple of 8 rows keeps tiled margins bitwise equal to one
    # whole-block matvec (checked for N <= 1000 with BLAS on one thread):
    # dgemv may round a row differently when the block's row count leaves
    # a remainder mod 4.
    tile = max(8, TILE_ENTRIES // points.shape[0] // 8 * 8)
    # Huge coefficients overflow a margin to inf, which the caller gets.
    with np.errstate(over="ignore"):
        for start in range(0, xs.shape[0], tile):
            block = cross_matrix(kernel, xs[start : start + tile], points)
            for row, alpha in zip(out, alphas):
                row[start : start + tile] = block @ alpha
    return out


def predict_margin(model: RatioModel, x):
    """Margin f(x) = sum_j alpha_j k(x_j, x); scalar in, scalar out."""
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0 or (arr.ndim == 1 and model.points.shape[1] != 1)
    pts = as_points(arr if not scalar else arr.reshape(1, -1))
    if pts.shape[1] != model.points.shape[1]:
        raise InputError(f"point has dimension {pts.shape[1]}, model expects {model.points.shape[1]}")
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
    """Persist a model as a strict JSON document with stable key order."""
    write_json(path, model_to_dict(model, seed=seed, dataset_hash=dataset_hash))


def load_model(path: str) -> tuple[RatioModel, dict]:
    """Load a model JSON; returns the model and the raw document.

    Anything but an object with finite points and coefficients raises
    InputError, and so does a boolean, string, null or integer too large
    for a float in `bandwidth`, `lambda`, `points` or `alpha`.
    """
    doc = read_json(path, "model file")
    if not isinstance(doc, dict):
        raise InputError(f"malformed model file {path}: expected a JSON object")
    try:
        for key in ("bandwidth", "lambda", "points", "alpha"):
            pending = [doc[key]]
            while pending:  # the first bad entry in document order
                item = pending.pop()
                if isinstance(item, list):
                    pending.extend(reversed(item))
                else:
                    check_json_number(item, key)
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
