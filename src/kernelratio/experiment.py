"""Seeded experiment harness: grid fits, selection, oracle scoring, CSV/JSON.

A cell is one (loss, sample size, seed) combination.  For each cell the
estimator is fitted on the whole lambda grid, the balancing rule picks a
value, and every fit is scored against the quadrature oracle (dense-grid
MSE and divergence from the true ratio).  Results are merged in sorted
order so reruns are byte-identical.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .balancing import (
    BoundConstants,
    LambdaGrid,
    SelectionRule,
    fit_grid,
    select_from_fits,
)
from .data import GaussianPairSpec, sample_pair
from .errors import InputError
from .kernel import KernelFamily, KernelSpec, gram_matrix
from .losses import LossFamily
from .oracle import OracleContext, bayes_risk, grid_mse, population_risk
from .solver import FitOptions, margins_at


@dataclass(frozen=True)
class ExperimentConfig:
    pair: GaussianPairSpec = field(default_factory=GaussianPairSpec)
    losses: tuple[LossFamily, ...] = (LossFamily.KULSIF, LossFamily.EXP)
    grid: LambdaGrid = field(default_factory=lambda: LambdaGrid(lambda0=1e-4, xi=10.0, l=5))
    sample_sizes: tuple[tuple[int, int], ...] = ((3, 3), (10, 10), (100, 100))
    seeds: tuple[int, ...] = tuple(range(50))
    rule: SelectionRule = SelectionRule.PRACTICAL_MJ
    kernel: KernelSpec = field(default_factory=KernelSpec)
    output_dir: str = "experiment_out"
    consts: BoundConstants = field(default_factory=BoundConstants)

    def __post_init__(self) -> None:
        if not self.losses:
            raise InputError("losses must be nonempty")
        if not self.sample_sizes:
            raise InputError("sample_sizes must be nonempty")
        if not self.seeds:
            raise InputError("seeds must be nonempty")
        for m, n in self.sample_sizes:
            if m < 0 or n < 1:
                raise InputError(f"invalid sample size (m={m}, n={n})")

    def to_dict(self) -> dict:
        return {
            "pair": {
                "mu_p": self.pair.mu_p,
                "sigma_p": self.pair.sigma_p,
                "mu_q": self.pair.mu_q,
                "sigma_q": self.pair.sigma_q,
            },
            "losses": [loss.value for loss in self.losses],
            "grid": {"lambda0": self.grid.lambda0, "xi": self.grid.xi, "l": self.grid.l},
            "sample_sizes": [[m, n] for m, n in self.sample_sizes],
            "seeds": list(self.seeds),
            "rule": self.rule.value,
            "kernel": {"family": self.kernel.family.value, "bandwidth": self.kernel.bandwidth},
            "output_dir": self.output_dir,
            "consts": {"delta": self.consts.delta, "q0": self.consts.q0, "capacity_alpha": self.consts.capacity_alpha},
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        try:
            pair = GaussianPairSpec(**doc.get("pair", {}))
            grid_doc = doc.get("grid", {"lambda0": 1e-4, "xi": 10.0, "l": 5})
            consts_doc = doc.get("consts", {})
            return cls(
                pair=pair,
                losses=tuple(LossFamily(v) for v in doc.get("losses", ["kulsif", "exp"])),
                grid=LambdaGrid(
                    lambda0=float(grid_doc["lambda0"]), xi=float(grid_doc["xi"]), l=int(grid_doc["l"])
                ),
                sample_sizes=tuple((int(m), int(n)) for m, n in doc.get("sample_sizes", [[3, 3], [10, 10], [100, 100]])),
                seeds=tuple(int(s) for s in doc.get("seeds", range(50))),
                rule=SelectionRule(doc.get("rule", "mj")),
                kernel=KernelSpec(
                    KernelFamily(doc.get("kernel", {}).get("family", "one_plus_gaussian")),
                    float(doc.get("kernel", {}).get("bandwidth", 1.0)),
                ),
                output_dir=str(doc.get("output_dir", "experiment_out")),
                consts=BoundConstants(
                    delta=float(consts_doc.get("delta", 0.05)),
                    q0=float(consts_doc.get("q0", 1.0)),
                    capacity_alpha=float(consts_doc.get("capacity_alpha", 1.0)),
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed experiment config: {exc}") from exc

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(doc)


def _mse_rank(mses: list[float], chosen_index: int) -> int:
    """1-based rank of the chosen lambda by oracle MSE (1 = best).

    A chosen fit whose MSE is not finite ranks last.
    """
    chosen_mse = mses[chosen_index - 1]
    if not math.isfinite(chosen_mse):
        return len(mses)
    return 1 + sum(1 for value in mses if value < chosen_mse)


def run_cell(
    config: ExperimentConfig,
    family: LossFamily,
    m: int,
    n: int,
    seed: int,
    ctx: OracleContext,
    bayes_risk_value: float,
) -> dict:
    dataset = sample_pair(config.pair, m, n, seed)
    gram = gram_matrix(config.kernel, dataset.xs)
    fits = fit_grid(family, config.kernel, dataset, config.grid, FitOptions(), gram=gram)
    selection = select_from_fits(family, gram, dataset, config.grid, fits, config.rule, config.consts)

    # One kernel pass per point set scores the whole grid of fits.
    alphas = [model.alpha for model, _ in fits]
    nodes, _ = ctx.quad.nodes_weights()
    node_margins = margins_at(config.kernel, dataset.xs, alphas, nodes)
    grid_margins = margins_at(config.kernel, dataset.xs, alphas, ctx.eval_grid)
    mses = [grid_mse(ctx, model, margins) for (model, _), margins in zip(fits, grid_margins)]
    bregman = [
        2.0 * (population_risk(ctx, family, margins) - bayes_risk_value) for margins in node_margins
    ]

    rank = _mse_rank(mses, selection.chosen_index)
    return {
        "loss": family.value,
        "m": m,
        "n": n,
        "seed": seed,
        "chosen_lambda": selection.chosen_lambda,
        "chosen_index": selection.chosen_index,
        "chosen_rank_by_mse": rank,
        "lambdas": [float(v) for v in config.grid.values],
        "mse": mses,
        "bregman_error": bregman,
        "fit_reports": [report.to_dict() for _, report in fits],
        "selection": selection.to_dict(),
    }


def run_experiment(config: ExperimentConfig) -> dict:
    """Run all cells; returns the report document (also used for the CSV)."""
    ctx = OracleContext.default(config.pair)
    bayes = {family: bayes_risk(ctx, family) for family in config.losses}
    cells = []
    for family in sorted(config.losses, key=lambda fam: fam.value):
        for m, n in sorted(config.sample_sizes):
            for seed in sorted(config.seeds):
                cells.append(run_cell(config, family, m, n, seed, ctx, bayes[family]))
    return {"config": config.to_dict(), "cells": cells}


def report_summary(report: dict) -> dict:
    """How often the choice is a top-2 grid value by MSE, and unconverged fits.

    `top2_rate` has one entry per (loss, m, n), in report order.
    """
    groups: dict[tuple, list[bool]] = {}
    for cell in report["cells"]:
        key = (cell["loss"], cell["m"], cell["n"])
        groups.setdefault(key, []).append(cell["chosen_rank_by_mse"] <= 2)
    return {
        "top2_rate": [
            {"loss": loss, "m": m, "n": n, "rate": sum(hits) / len(hits)}
            for (loss, m, n), hits in groups.items()
        ],
        "unconverged_fits": sum(
            not fit["converged"] for cell in report["cells"] for fit in cell["fit_reports"]
        ),
    }


def _fmt(value: float) -> str:
    return repr(float(value))


def report_to_csv_rows(report: dict) -> list[str]:
    """Long-format rows `loss,m,n,seed,lambda,mse,chosen`, sorted."""
    rows = []
    for cell in report["cells"]:
        for lam, mse in zip(cell["lambdas"], cell["mse"]):
            chosen = 1 if lam == cell["chosen_lambda"] else 0
            rows.append(
                (cell["loss"], cell["m"], cell["n"], cell["seed"], lam, mse, chosen)
            )
    rows.sort(key=lambda row: (row[0], row[1], row[2], row[3], row[4]))
    lines = ["loss,m,n,seed,lambda,mse,chosen"]
    for loss, m, n, seed, lam, mse, chosen in rows:
        lines.append(f"{loss},{m},{n},{seed},{_fmt(lam)},{_fmt(mse)},{chosen}")
    return lines


def _finite_or_null(doc):
    """The document with every non-finite float replaced by None (JSON null)."""
    if isinstance(doc, dict):
        return {key: _finite_or_null(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_finite_or_null(value) for value in doc]
    if isinstance(doc, float) and not math.isfinite(doc):
        return None
    return doc


def write_experiment_outputs(report: dict, output_dir: str) -> tuple[str, str]:
    os.makedirs(output_dir, exist_ok=True)
    report_path = os.path.join(output_dir, "report.json")
    csv_path = os.path.join(output_dir, "results.csv")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(_finite_or_null(report), fh, indent=2, allow_nan=False)
        fh.write("\n")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(report_to_csv_rows(report)) + "\n")
    return report_path, csv_path


def run_rate_sweep(
    family: LossFamily,
    sizes,
    n_seeds: int,
    rule: SelectionRule,
    *,
    pair: GaussianPairSpec | None = None,
    kernel: KernelSpec | None = None,
    grid: LambdaGrid | None = None,
    consts: BoundConstants | None = None,
) -> dict:
    """Median divergence at the selected lambda, per pooled sample size N.

    Sizes are total counts m + n, split evenly; the fitted log-log slope
    of the medians is reported (None for a single size).
    """
    pair = pair or GaussianPairSpec()
    kernel = kernel or KernelSpec()
    grid = grid or LambdaGrid(lambda0=1e-4, xi=10.0, l=5)
    consts = consts or BoundConstants()
    sizes = sorted(int(s) for s in sizes)
    if any(s < 2 for s in sizes):
        raise InputError("each size must be at least 2 (one sample per class)")
    if n_seeds < 1:
        raise InputError("need at least one seed")

    ctx = OracleContext.default(pair)
    bayes_value = bayes_risk(ctx, family)

    medians = []
    for size in sizes:
        m = size // 2
        n = size - m
        errors = []
        for seed in range(n_seeds):
            dataset = sample_pair(pair, m, n, seed)
            gram = gram_matrix(kernel, dataset.xs)
            fits = fit_grid(family, kernel, dataset, grid, FitOptions(), gram=gram)
            selection = select_from_fits(family, gram, dataset, grid, fits, rule, consts)
            model = fits[selection.chosen_index - 1][0]
            errors.append(2.0 * (population_risk(ctx, family, model) - bayes_value))
        medians.append(float(np.median(errors)))

    slope = None
    if len(sizes) >= 2:
        slope = float(np.polyfit(np.log(np.asarray(sizes, dtype=float)), np.log(medians), 1)[0])
    return {
        "loss": family.value,
        "rule": rule.value,
        "sizes": sizes,
        "n_seeds": n_seeds,
        "median_error": medians,
        "slope": slope,
    }


def rate_sweep_csv_rows(result: dict) -> list[str]:
    lines = ["N,median_error"]
    for size, err in zip(result["sizes"], result["median_error"]):
        lines.append(f"{size},{_fmt(err)}")
    return lines
