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
from dataclasses import asdict, dataclass, field

import numpy as np

from .balancing import BoundConstants, LambdaGrid, SelectionRule, fit_and_select
from .data import DEFAULT_PAIR, GaussianPairSpec, check_json_number, check_writable, read_json, sample_pair, write_json, write_text
from .errors import InputError
from .kernel import KernelFamily, KernelSpec, check_point_count
from .losses import LossFamily
from .oracle import OracleContext, bayes_risk, grid_mse, population_risk, population_risks
from .solver import margins_at

@dataclass(frozen=True)
class ExperimentConfig:
    pair: GaussianPairSpec = field(default_factory=GaussianPairSpec)
    losses: tuple[LossFamily, ...] = (LossFamily.KULSIF, LossFamily.EXP)
    grid: LambdaGrid = LambdaGrid(lambda0=1e-4, xi=10.0, l=5)
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
            check_point_count(m + n)
        if any(seed < 0 for seed in self.seeds):
            raise InputError(f"seeds must be nonnegative, got {min(self.seeds)}")
        # A repeated entry would run its cells again and count them twice.
        entries = {
            "losses": [loss.value for loss in self.losses],
            "sample_sizes": [list(size) for size in self.sample_sizes],
            "seeds": list(self.seeds),
        }
        for name, values in entries.items():
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise InputError(f"{name} entry {json.dumps(value)} is given more than once")

    def to_dict(self) -> dict:
        return {
            "pair": asdict(self.pair),
            "losses": [loss.value for loss in self.losses],
            "grid": asdict(self.grid),
            "sample_sizes": [[m, n] for m, n in self.sample_sizes],
            "seeds": list(self.seeds),
            "rule": self.rule.value,
            "kernel": {"family": self.kernel.family.value, "bandwidth": self.kernel.bandwidth},
            "output_dir": self.output_dir,
            "consts": {"delta": self.consts.delta, "q0": self.consts.q0, "capacity_alpha": self.consts.capacity_alpha},
        }

    @classmethod
    def from_dict(cls, doc) -> "ExperimentConfig":
        """The config that `to_dict` wrote; an absent key takes ExperimentConfig()'s value.

        Unknown keys are rejected, at the top level and in each section.
        grid.l, seeds and sample sizes must be JSON integers, and the other
        pair, grid, kernel and consts values JSON numbers, kernel.family
        excepted.  losses, seeds and sample_sizes must be lists, output_dir
        a string, and rule the value of a SelectionRule.
        """
        default = cls().to_dict()
        try:
            doc = {**default, **_known_keys(doc, default, "the config")}
            for key in ("pair", "kernel", "consts"):
                doc[key] = {**default[key], **_known_keys(doc[key], default[key], key)}
            grid = _known_keys(doc["grid"], default["grid"], "grid")
            missing = [key for key in default["grid"] if key not in grid]
            if missing:
                raise InputError(f"grid lacks {', '.join(map(repr, missing))}")
            for section in ("pair", "grid", "kernel", "consts"):
                for key, value in doc[section].items():
                    if key in ("l", "family"):
                        continue
                    check_json_number(value, f"{section}.{key}")
            try:
                pair = GaussianPairSpec(**doc["pair"])
            except (TypeError, ValueError) as exc:  # ValueError covers InputError
                raise InputError(f"pair: {exc}") from exc
            for key in ("losses", "sample_sizes", "seeds"):
                if not isinstance(doc[key], list):
                    raise InputError(f"{key} must be a JSON list, got {doc[key]!r}")
            for size in doc["sample_sizes"]:
                if not (isinstance(size, list) and len(size) == 2):
                    raise InputError(f"sample_sizes must hold [m, n] pairs, got {size!r}")
            if not isinstance(doc["output_dir"], str):
                raise InputError(f"output_dir must be a JSON string, got {doc['output_dir']!r}")
            return cls(
                pair=pair,
                losses=tuple(_choice(LossFamily, v, "losses entry") for v in doc["losses"]),
                grid=LambdaGrid(float(grid["lambda0"]), float(grid["xi"]), _integer(grid["l"], "grid.l")),
                sample_sizes=tuple(
                    (_integer(m, "sample_sizes"), _integer(n, "sample_sizes")) for m, n in doc["sample_sizes"]
                ),
                seeds=tuple(_integer(s, "seeds") for s in doc["seeds"]),
                rule=_choice(SelectionRule, doc["rule"], "rule"),
                kernel=KernelSpec(
                    _choice(KernelFamily, doc["kernel"]["family"], "kernel.family"), float(doc["kernel"]["bandwidth"])
                ),
                output_dir=doc["output_dir"],
                consts=BoundConstants(**{key: float(value) for key, value in doc["consts"].items()}),
            )
        except (TypeError, ValueError, OverflowError) as exc:  # ValueError covers InputError
            raise InputError(f"malformed experiment config: {exc}") from exc

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        doc = read_json(path, "config")
        try:
            return cls.from_dict(doc)
        except InputError as exc:
            raise InputError(f"{path}: {exc}") from exc


def _known_keys(doc, default: dict, name: str) -> dict:
    """doc, checked to be a JSON object with no key that `default` lacks."""
    if not isinstance(doc, dict):
        raise InputError(f"{name} must be a JSON object")
    unknown = [key for key in doc if key not in default]
    if unknown:
        raise InputError(f"unknown key {unknown[0]!r} in {name}")
    return doc


def _integer(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{name} must hold JSON integers, got {value!r}")
    return value


def _choice(members, value, name: str):
    """The member of `members` whose value is `value`."""
    for member in members:
        if member.value == value:
            return member
    names = " or ".join(f'"{member.value}"' for member in members)
    raise InputError(f"{name} must be {names}, got {value!r}")


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
    fits, selection = fit_and_select(dataset, family, config.kernel, config.grid, config.rule, config.consts)

    # One kernel pass per point set scores the whole grid of fits: one per
    # quadrature level, and one over the eval grid.
    alphas = [model.alpha for model, _ in fits]
    risks = population_risks(ctx, family, lambda nodes: margins_at(config.kernel, dataset.xs, alphas, nodes))
    grid_margins = margins_at(config.kernel, dataset.xs, alphas, ctx.eval_grid)
    mses = [grid_mse(ctx, model, margins) for (model, _), margins in zip(fits, grid_margins)]
    bregman = [2.0 * (float(risk) - bayes_risk_value) for risk in risks]

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
    unconverged = sum(not fit["converged"] for cell in cells for fit in cell["fit_reports"])
    return {"config": config.to_dict(), "unconverged_fits": unconverged, "cells": cells}


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
        "unconverged_fits": report["unconverged_fits"],
    }


def _fmt(value: float) -> str:
    return repr(float(value))


def report_to_csv_rows(report: dict) -> list[str]:
    """Long-format rows `loss,m,n,seed,lambda,mse,chosen`, in report order.

    `run_experiment` emits cells sorted by (loss, m, n, seed), each over the
    ascending grid, so the rows are sorted by (loss, m, n, seed, lambda).
    """
    lines = ["loss,m,n,seed,lambda,mse,chosen"]
    for cell in report["cells"]:
        for lam, mse in zip(cell["lambdas"], cell["mse"]):
            chosen = 1 if lam == cell["chosen_lambda"] else 0
            lines.append(f"{cell['loss']},{cell['m']},{cell['n']},{cell['seed']},{_fmt(lam)},{_fmt(mse)},{chosen}")
    return lines


def _output_paths(output_dir: str) -> tuple[str, str]:
    return os.path.join(output_dir, "report.json"), os.path.join(output_dir, "results.csv")


def check_output_dir(output_dir: str) -> None:
    """Raise InputError if output_dir or a file in it can be neither made nor written; create nothing."""
    for path in _output_paths(output_dir):
        check_writable(path, make_dirs=True)


def write_experiment_outputs(report: dict, output_dir: str) -> tuple[str, str]:
    report_path, csv_path = _output_paths(output_dir)
    write_json(report_path, report, make_dirs=True)
    write_text(csv_path, (line + "\n" for line in report_to_csv_rows(report)))
    return report_path, csv_path


def run_rate_sweep(
    family: LossFamily,
    sizes,
    n_seeds: int,
    rule: SelectionRule,
    *,
    grid: LambdaGrid = ExperimentConfig.grid,
) -> dict:
    """Median divergence at the selected lambda, per pooled sample size N.

    Data come from DEFAULT_PAIR and are fitted with the default kernel.
    Sizes are total counts m + n, split evenly; the fitted log-log slope
    of the medians is reported (None for a single size), and so is the
    (size, seed, lambda) of every grid fit that did not converge.
    """
    sizes = sorted(int(s) for s in sizes)
    if not sizes:
        raise InputError("need at least one size")
    for smaller, larger in zip(sizes, sizes[1:]):
        if smaller == larger:
            raise InputError(f"size {smaller} is given more than once")
    if any(s < 2 for s in sizes):
        raise InputError("each size must be at least 2 (one sample per class)")
    check_point_count(sizes[-1])
    if n_seeds < 1:
        raise InputError("need at least one seed")

    ctx = OracleContext.default(DEFAULT_PAIR)
    bayes_value = bayes_risk(ctx, family)

    medians = []
    unconverged = []
    for size in sizes:
        m = size // 2
        n = size - m
        errors = []
        for seed in range(n_seeds):
            dataset = sample_pair(DEFAULT_PAIR, m, n, seed)
            fits, selection = fit_and_select(dataset, family, KernelSpec(), grid, rule)
            unconverged += [(size, seed, model.lam) for model, report in fits if not report.converged]
            model = fits[selection.chosen_index - 1][0]
            errors.append(2.0 * (population_risk(ctx, family, model) - bayes_value))
        medians.append(float(np.median(errors)))

    slope = None
    if len(sizes) >= 2:
        slope = float(np.polyfit(np.log(np.asarray(sizes, dtype=float)), np.log(medians), 1)[0])
    return {"sizes": sizes, "median_error": medians, "slope": slope, "unconverged": unconverged}


def rate_sweep_csv_rows(result: dict) -> list[str]:
    lines = ["N,median_error"]
    for size, err in zip(result["sizes"], result["median_error"]):
        lines.append(f"{size},{_fmt(err)}")
    return lines
