"""The four margin loss families and their ratio-estimation companions.

Each family bundles:

* a classification loss ell(y, v) on labels y in {-1, +1} and margins v,
  with analytic derivatives in v up to third order;
* the ratio map g(v) turning a margin into a density-ratio value, and its
  inverse m(r) = g^{-1}(e^r) written in the log ratio r, so the optimal
  margin at x is m(log beta(x));
* a convex scalar generator phi on ratio values whose pointwise Bregman
  divergence D at t = g(v), integrated against the denominator measure,
  equals twice the excess classification risk of the margin function; D is
  written in the margin, free of sq's pole in g and exp's pole in phi'.

Families (v is the margin, r a log ratio, t a ratio value):

    kulsif  ell(-1,v)=v^2/2, ell(1,v)=-v   m(r)=e^r         g(v)=v
            phi(t)=(t-1)^2/2, D=(beta-v)^2/2
    lr      ell(y,v)=log(1+e^{-yv})        m(r)=r           g(v)=e^v
            phi(t)=t log t-(1+t)log(1+t), D=(1+beta)log(1+e^v)-beta v+phi(beta)
    exp     ell(y,v)=e^{-yv}               m(r)=r/2         g(v)=e^{2v}
            phi(t)=-2 sqrt(t), D=(sqrt(beta)-e^v)^2 e^{-v}
    sq      ell(y,v)=(1-yv)^2              m(r)=tanh(r/2)   g(v)=(1+v)/(1-v)
            phi(t)=4/(1+t), D=(1+beta)(v-(beta-1)/(beta+1))^2

Each family's formulas and facts are written once, in its record of the
`_FAMILIES` table: the one dispatch point, where every function looks it up.

kulsif and sq are quadratic in the margin (zero third derivative); lr and
exp satisfy |ell'''| <= ell'' pointwise, the scalar form of generalized
self-concordance.

No exponent is capped: past the float range lr's and exp's exponentials are
inf, which the consumers report.  The line search halves a step whose loss
change is inf, the oracle raises NumericalError naming the integrand and the
node, and an infinite MSE is written as null or inf.
"""

from __future__ import annotations

import enum
from typing import Callable, NamedTuple

import numpy as np

# Margin ceiling for the sq ratio map, which has a pole at v = 1.
SQ_MARGIN_CLAMP = 1e-8


class LossFamily(enum.Enum):
    KULSIF = "kulsif"
    LR = "lr"
    EXP = "exp"
    SQ = "sq"

    @property
    def quadratic(self) -> bool:
        """Whether the loss is quadratic in the margin: ell'' does not vary with it, ell''' is zero."""
        return _FAMILIES[self].quadratic

    @property
    def needs_finite_chi2(self) -> bool:
        """Whether the optimal margin is beta itself, so the risk and divergence need E_q[beta^2] < inf."""
        return _FAMILIES[self].needs_finite_chi2


def _sigmoid_parts(t):
    """p = e^{-|t|} and the logistic function of t, stable for both signs."""
    p = np.exp(-np.abs(t))
    return p, np.where(t >= 0.0, 1.0 / (1.0 + p), p / (1.0 + p))


class MarginTerms(NamedTuple):
    """ell' and ell'' at margins v, and the loss change delta(dv)."""

    d1: np.ndarray
    d2: np.ndarray
    delta: Callable  # dv -> ell(y, v + dv) - ell(y, v)


def _kulsif_terms(y, v, ny):
    pos = y > 0
    shape = np.broadcast(y, v).shape
    return MarginTerms(
        np.where(pos, -1.0, v),
        np.where(np.broadcast_to(pos, shape), 0.0, 1.0),
        lambda dv: np.where(pos, -dv, v * dv + 0.5 * dv * dv),
    )


def _lr_terms(y, v, ny):
    p, s = _sigmoid_parts(ny * v)
    one_p = 1.0 + p
    return MarginTerms(
        ny * s,
        p / (one_p * one_p),
        lambda dv: np.log1p(s * np.expm1(ny * dv)),
    )


def _exp_terms(y, v, ny):
    w = np.exp(ny * v)
    return MarginTerms(ny * w, w, lambda dv: w * np.expm1(ny * dv))


def _sq_terms(y, v, ny):
    residual = v - y
    return MarginTerms(
        2.0 * residual,
        np.full(np.broadcast(y, v).shape, 2.0),
        lambda dv: 2.0 * dv * residual + dv * dv,
    )


def _zero_d3(y, v):
    return np.zeros(np.broadcast(y, v).shape)


def _lr_d3(y, v):
    # Factored as d2 * (1 - 2s) so |d3| <= d2 holds exactly in floats.
    ny = -y
    s = _sigmoid_parts(ny * v)[1]
    return ny * _lr_terms(y, v, ny).d2 * (1.0 - 2.0 * s)


def _sq_ratio(v):
    vc = np.minimum(v, 1.0 - SQ_MARGIN_CLAMP)
    return (1.0 + vc) / (1.0 - vc)


def _lr_phi(t):
    return np.where(t > 0.0, t * np.log(np.maximum(t, np.finfo(float).tiny)), 0.0) - (1.0 + t) * np.log1p(t)


def _lr_phi_prime(t):
    with np.errstate(divide="ignore"):
        return np.log(t) - np.log1p(t)


def _exp_divergence(beta, v):
    """(sqrt(beta) - e^v)^2 e^{-v}, squared last: finite while |v| < 709, not only v < 354.

    A zero beta adds nothing to the sqrt(beta) e^{-v/2} term, also where
    e^{-v/2} overflows and the product would be 0 * inf.
    """
    with np.errstate(invalid="ignore"):
        scaled = np.where(beta == 0.0, 0.0, np.sqrt(beta) * np.exp(-0.5 * v))
    return np.square(scaled - np.exp(0.5 * v))


class _Family(NamedTuple):
    """One family's formulas, on float64 arrays, and its two facts."""

    loss: Callable  # (y, v) -> ell(y, v)
    terms: Callable  # (y, v, -y) -> MarginTerms
    d3: Callable  # (y, v) -> ell'''(y, v)
    margin: Callable  # r -> m(r) = g^{-1}(e^r), the optimal margin at log ratio r
    ratio: Callable  # v -> g(v), unfloored, sq's pole clamped
    phi: Callable  # t -> phi(t)
    phi_prime: Callable  # t -> phi'(t)
    divergence: Callable  # (beta, v) -> D(beta, v), phi's Bregman divergence at t = g(v)
    quadratic: bool  # ell'' does not depend on the margin
    needs_finite_chi2: bool  # the optimal margin is beta: the risk needs E_q[beta^2] < inf


_FAMILIES = {
    LossFamily.KULSIF: _Family(
        loss=lambda y, v: np.where(y > 0, -v, 0.5 * v * v),
        terms=_kulsif_terms,
        d3=_zero_d3,
        margin=np.exp,
        ratio=lambda v: v + 0.0,
        phi=lambda t: 0.5 * ((t - 1.0) * (t - 1.0)),
        phi_prime=lambda t: t - 1.0,
        divergence=lambda beta, v: 0.5 * ((beta - v) * (beta - v)),
        quadratic=True,
        needs_finite_chi2=True,
    ),
    LossFamily.LR: _Family(
        loss=lambda y, v: np.logaddexp(0.0, -y * v),
        terms=_lr_terms,
        d3=_lr_d3,
        margin=lambda r: r + 0.0,
        ratio=np.exp,
        phi=_lr_phi,
        phi_prime=_lr_phi_prime,
        divergence=lambda beta, v: (1.0 + beta) * np.logaddexp(0.0, v) - beta * v + _lr_phi(beta),
        quadratic=False,
        needs_finite_chi2=False,
    ),
    LossFamily.EXP: _Family(
        loss=lambda y, v: np.exp(-y * v),
        terms=_exp_terms,
        d3=lambda y, v: _exp_terms(y, v, -y).d1,  # the third derivative equals the first
        margin=lambda r: 0.5 * r,
        ratio=lambda v: np.exp(2.0 * v),
        phi=lambda t: -2.0 * np.sqrt(t),
        phi_prime=lambda t: -1.0 / np.sqrt(t),
        divergence=_exp_divergence,
        quadratic=False,
        needs_finite_chi2=False,
    ),
    LossFamily.SQ: _Family(
        loss=lambda y, v: (1.0 - y * v) * (1.0 - y * v),
        terms=_sq_terms,
        d3=_zero_d3,
        margin=lambda r: np.tanh(0.5 * r),
        ratio=_sq_ratio,
        phi=lambda t: 4.0 / (1.0 + t),
        phi_prime=lambda t: -4.0 / ((1.0 + t) * (1.0 + t)),
        divergence=lambda beta, v: (1.0 + beta) * np.square(v - (beta - 1.0) / (beta + 1.0)),
        quadratic=True,
        needs_finite_chi2=False,
    ),
}


def loss_value(family: LossFamily, y, v):
    return _FAMILIES[family].loss(np.asarray(y, dtype=np.float64), np.asarray(v, dtype=np.float64))


def margin_terms(family: LossFamily, y, v, neg_y=None) -> MarginTerms:
    """The margin derivatives and loss change at (y, v), from the family's record.

    The one home of the margin formulas.  The shared exponential is
    evaluated once: w = e^{-yv} for exp, and
    p = e^{-|yv|} with s = logistic(-yv) for lr.  delta(dv) is
    ell(y, v + dv) - ell(y, v) in a cancellation-free form (exact
    expansions for the quadratic families, expm1/log1p identities for exp
    and lr), which lets a line search resolve decreases far below the
    absolute objective's float resolution.  `neg_y`, the negated labels,
    spares callers that evaluate many margins against the same labels.
    """
    y = np.asarray(y, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    return _FAMILIES[family].terms(y, v, -y if neg_y is None else neg_y)


def loss_d1(family: LossFamily, y, v):
    return margin_terms(family, y, v).d1


def loss_d2(family: LossFamily, y, v):
    return margin_terms(family, y, v).d2


def loss_d3(family: LossFamily, y, v):
    return _FAMILIES[family].d3(np.asarray(y, dtype=np.float64), np.asarray(v, dtype=np.float64))


def optimal_margin(family: LossFamily, r):
    """The margin m(r) = g^{-1}(e^r) whose ratio is e^r, at log ratios r; kulsif's e^r may be inf."""
    with np.errstate(over="ignore"):
        return _FAMILIES[family].margin(np.asarray(r, dtype=np.float64))


def ratio_map(family: LossFamily, v):
    """The map g(v) from margins to ratios, floored at 0; sq's pole at v = 1 is clamped, lr and exp may give inf."""
    with np.errstate(over="ignore"):
        return np.maximum(_FAMILIES[family].ratio(np.asarray(v, dtype=np.float64)), 0.0)


def phi(family: LossFamily, t):
    """Vectorized generator; see module docstring for the per-family forms.

    Domains: kulsif all reals, lr t >= 0 (phi(0) = 0 by limit),
    exp t >= 0 (derivative pole at 0), sq t > -1.
    """
    return _FAMILIES[family].phi(np.asarray(t, dtype=np.float64))


def phi_prime(family: LossFamily, t):
    return _FAMILIES[family].phi_prime(np.asarray(t, dtype=np.float64))


def divergence(family: LossFamily, beta, v):
    """phi's Bregman divergence between the ratio beta and g(v), written in the margin v."""
    return _FAMILIES[family].divergence(np.asarray(beta, dtype=np.float64), np.asarray(v, dtype=np.float64))
