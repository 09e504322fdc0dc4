"""The four margin loss families and their ratio-estimation companions.

Each family bundles:

* a classification loss ell(y, v) on labels y in {-1, +1} and margins v,
  with analytic derivatives in v up to third order;
* an invertible link Psi mapping a class-posterior probability u in (0, 1)
  to the optimal margin, so the best classifier is Psi(P(y=1|x));
* the ratio map g(v) = Psi^{-1}(v) / (1 - Psi^{-1}(v)) turning a margin
  into a density-ratio value, so g(Psi(u)) = u / (1 - u);
* a convex scalar generator phi on ratio values whose pointwise Bregman
  divergence, integrated against the denominator measure, equals twice the
  excess classification risk of the margin function.

Families (v is the margin, t a ratio value, s(t) the logistic function):

    kulsif  ell(-1,v)=v^2/2, ell(1,v)=-v   Psi(u)=u/(1-u)   g(v)=v
            phi(t)=(t-1)^2/2, divergence (beta-t)^2/2
    lr      ell(y,v)=log(1+e^{-yv})        Psi(u)=logit(u)  g(v)=e^v
            phi(t)=t log t-(1+t)log(1+t)
    exp     ell(y,v)=e^{-yv}               Psi(u)=logit(u)/2, g(v)=e^{2v}
            phi(t)=-2 sqrt(t), divergence (sqrt(beta)-sqrt(t))^2/sqrt(t)
    sq      ell(y,v)=(1-yv)^2              Psi(u)=2u-1      g(v)=(1+v)/(1-v)
            phi(t)=4/(1+t), divergence 4(beta-t)^2/((1+beta)(1+t)^2)

kulsif and sq are quadratic in the margin (zero third derivative); lr and
exp satisfy |ell'''| <= ell'' pointwise, the scalar form of generalized
self-concordance.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import InputError

# Exponent ceiling: keeps exp() finite so a line search can reject huge
# steps by comparison instead of dying on overflow.
_EXP_ARG_MAX = 700.0

# Margin ceiling for the sq ratio map, which has a pole at v = 1.
SQ_MARGIN_CLAMP = 1e-8

# Model ratios below this are excluded from generator evaluations whose
# derivative has a pole at zero (exp family).
RATIO_FLOOR = 1e-12


class LossFamily(enum.Enum):
    KULSIF = "kulsif"
    LR = "lr"
    EXP = "exp"
    SQ = "sq"


QUADRATIC_FAMILIES = (LossFamily.KULSIF, LossFamily.SQ)

# Families whose generator derivative has a pole at ratio zero.
POLE_AT_ZERO_FAMILIES = (LossFamily.EXP,)


@dataclass(frozen=True)
class MarginDerivatives:
    """Loss value and its first three margin derivatives at one point."""

    value: float
    d1: float
    d2: float
    d3: float


@dataclass(frozen=True)
class ConcordanceReport:
    max_ratio: float
    holds: bool


def _safe_exp(t):
    return np.exp(np.minimum(t, _EXP_ARG_MAX))


def _sigmoid_parts(t):
    """p = e^{-|t|} and the logistic function of t, stable for both signs."""
    p = np.exp(-np.abs(t))
    return p, np.where(t >= 0.0, 1.0 / (1.0 + p), p / (1.0 + p))


def sigmoid(t):
    """Numerically stable logistic function, exact for both signs."""
    return _sigmoid_parts(np.asarray(t, dtype=np.float64))[1]


def _check_labels(y) -> np.ndarray:
    arr = np.asarray(y)
    if not np.all(np.isin(arr, (-1, 1))):
        raise InputError(f"labels must be -1 or +1, got {y}")
    return arr.astype(np.float64)


def loss_value(family: LossFamily, y, v):
    y = np.asarray(y, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if family is LossFamily.KULSIF:
        return np.where(y > 0, -v, 0.5 * v * v)
    if family is LossFamily.LR:
        return np.logaddexp(0.0, -y * v)
    if family is LossFamily.EXP:
        return _safe_exp(-y * v)
    return (1.0 - y * v) ** 2


class MarginTerms(NamedTuple):
    """ell' and ell'' at margins v, and the loss change delta(dv)."""

    d1: np.ndarray
    d2: np.ndarray
    delta: Callable  # dv -> ell(y, v + dv) - ell(y, v)


def margin_terms(family: LossFamily, y, v, neg_y=None) -> MarginTerms:
    """The margin derivatives and loss change at (y, v), from one family branch.

    The one home of the margin formulas.  The shared exponential is
    evaluated once: w = e^{-yv} (exponent capped) for exp, and
    p = e^{-|yv|} with s = logistic(-yv) for lr.  delta(dv) is
    ell(y, v + dv) - ell(y, v) in a cancellation-free form (exact
    expansions for the quadratic families, expm1/log1p identities for exp
    and lr), which lets a line search resolve decreases far below the
    absolute objective's float resolution.  `neg_y`, the negated labels,
    spares callers that evaluate many margins against the same labels.
    """
    y = np.asarray(y, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if family is LossFamily.KULSIF:
        pos = y > 0
        shape = np.broadcast(y, v).shape
        return MarginTerms(
            np.where(pos, -1.0, v),
            np.where(np.broadcast_to(pos, shape), 0.0, 1.0),
            lambda dv: np.where(pos, -dv, v * dv + 0.5 * dv * dv),
        )
    if family is LossFamily.SQ:
        residual = v - y
        return MarginTerms(
            2.0 * residual,
            np.full(np.broadcast(y, v).shape, 2.0),
            lambda dv: 2.0 * dv * residual + dv * dv,
        )
    ny = -y if neg_y is None else neg_y
    if family is LossFamily.LR:
        p, s = _sigmoid_parts(ny * v)
        return MarginTerms(
            ny * s,
            p / (1.0 + p) ** 2,
            lambda dv: np.log1p(s * np.expm1(np.minimum(ny * dv, _EXP_ARG_MAX))),
        )
    w = _safe_exp(ny * v)
    return MarginTerms(ny * w, w, lambda dv: w * np.expm1(np.minimum(ny * dv, _EXP_ARG_MAX)))


def loss_d1(family: LossFamily, y, v):
    return margin_terms(family, y, v).d1


def loss_d2(family: LossFamily, y, v):
    return margin_terms(family, y, v).d2


def loss_d3(family: LossFamily, y, v):
    y = np.asarray(y, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if family in QUADRATIC_FAMILIES:
        return np.zeros(np.broadcast(y, v).shape)
    if family is LossFamily.LR:
        # Factored as d2 * (1 - 2s) so |d3| <= d2 holds exactly in floats.
        s = sigmoid(-y * v)
        return -y * loss_d2(family, y, v) * (1.0 - 2.0 * s)
    return loss_d1(family, y, v)  # exp: the third derivative equals the first


def loss_value_delta(family: LossFamily, y, v, dv):
    """ell(y, v + dv) - ell(y, v) in a cancellation-free form; see margin_terms."""
    return margin_terms(family, y, v).delta(np.asarray(dv, dtype=np.float64))


def loss_derivs(family: LossFamily, y: int, v: float) -> MarginDerivatives:
    """Loss and first three margin derivatives at a single (y, v)."""
    _check_labels(y)
    return MarginDerivatives(
        value=float(loss_value(family, y, v)),
        d1=float(loss_d1(family, y, v)),
        d2=float(loss_d2(family, y, v)),
        d3=float(loss_d3(family, y, v)),
    )


def link(family: LossFamily, u):
    """Map posterior probabilities u in (0, 1) to optimal margins, elementwise."""
    u = np.asarray(u, dtype=np.float64)
    inside = (u > 0.0) & (u < 1.0)
    if not np.all(inside):
        raise InputError(f"link argument must lie in (0, 1), got {u[~inside].flat[0]}")
    if family is LossFamily.KULSIF:
        values = u / (1.0 - u)
    elif family is LossFamily.LR:
        values = np.log(u) - np.log1p(-u)
    elif family is LossFamily.EXP:
        values = 0.5 * (np.log(u) - np.log1p(-u))
    else:
        values = 2.0 * u - 1.0
    return float(values) if values.ndim == 0 else values


def link_inv(family: LossFamily, v: float) -> float:
    """Inverse link; exact on the link's range, clamped into (0, 1) outside."""
    v = float(v)
    if family is LossFamily.KULSIF:
        u = v / (1.0 + v) if v > -1.0 else np.nextafter(0.0, 1.0)
    elif family is LossFamily.LR:
        u = float(sigmoid(v))
    elif family is LossFamily.EXP:
        u = float(sigmoid(2.0 * v))
    else:
        u = 0.5 * (v + 1.0)
    tiny = np.nextafter(0.0, 1.0)
    return float(min(max(u, tiny), 1.0 - 1e-16))


def ratio_map_raw(family: LossFamily, v):
    """The exact map g(v) = Psi^{-1}(v) / (1 - Psi^{-1}(v)), unflooring.

    Used inside divergence computations, where negative kulsif/sq outputs
    are meaningful.  The sq pole at v = 1 is clamped.
    """
    v = np.asarray(v, dtype=np.float64)
    if family is LossFamily.KULSIF:
        return v + 0.0
    if family is LossFamily.LR:
        return _safe_exp(v)
    if family is LossFamily.EXP:
        return _safe_exp(2.0 * v)
    vc = np.minimum(v, 1.0 - SQ_MARGIN_CLAMP)
    return (1.0 + vc) / (1.0 - vc)


def ratio_map(family: LossFamily, v):
    """Margin-to-ratio map used at the prediction surface; floored at 0."""
    return np.maximum(ratio_map_raw(family, v), 0.0)


def phi(family: LossFamily, t):
    """Vectorized generator; see module docstring for the per-family forms.

    Domains: kulsif all reals, lr t >= 0 (phi(0) = 0 by limit),
    exp t >= 0 (derivative pole at 0), sq t > -1.
    """
    t = np.asarray(t, dtype=np.float64)
    if family is LossFamily.KULSIF:
        return 0.5 * (t - 1.0) ** 2
    if family is LossFamily.LR:
        safe = np.maximum(t, np.finfo(float).tiny)
        return np.where(t > 0.0, t * np.log(safe), 0.0) - (1.0 + t) * np.log1p(t)
    if family is LossFamily.EXP:
        return -2.0 * np.sqrt(t)
    return 4.0 / (1.0 + t)


def phi_prime(family: LossFamily, t):
    t = np.asarray(t, dtype=np.float64)
    if family is LossFamily.KULSIF:
        return t - 1.0
    if family is LossFamily.LR:
        with np.errstate(divide="ignore"):
            return np.log(t) - np.log1p(t)
    if family is LossFamily.EXP:
        return -1.0 / np.sqrt(t)
    return -4.0 / (1.0 + t) ** 2


def bregman_generator(family: LossFamily, t: float) -> tuple[float, float]:
    """Generator value and derivative (phi(t), phi'(t)) at a single ratio t."""
    t = float(t)
    if family in POLE_AT_ZERO_FAMILIES:
        if t <= 0.0:
            raise InputError(f"{family.value} generator requires t > 0 (derivative pole at 0), got {t}")
    elif t < 0.0:
        raise InputError(f"generator argument must be nonnegative, got {t}")
    with np.errstate(divide="ignore"):
        return float(phi(family, t)), float(phi_prime(family, t))


def self_concordance_check(family: LossFamily, y: int, v_grid) -> ConcordanceReport:
    """Max of |ell'''| / ell'' over a margin grid, with 0/0 read as 0.

    Holds when the ratio stays <= 1 for the lr/exp families, and when the
    third derivative vanishes identically for the quadratic families.
    """
    _check_labels(y)
    grid = np.asarray(v_grid, dtype=np.float64)
    if grid.size == 0:
        raise InputError("self_concordance_check needs a nonempty grid")
    d2 = loss_d2(family, y, grid)
    d3 = loss_d3(family, y, grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where((d3 == 0.0) & (d2 == 0.0), 0.0, np.abs(d3) / d2)
    max_ratio = float(np.max(ratio))
    if family in QUADRATIC_FAMILIES:
        holds = bool(np.all(d3 == 0.0))
    else:
        holds = max_ratio <= 1.0 + 1e-9
    return ConcordanceReport(max_ratio=max_ratio, holds=holds)
