"""Command-line surface: fit, select, experiment, rate-sweep.

Exit codes: 0 success, 2 usage/input error, 3 numerical failure.  All
outputs are JSON/CSV and deterministic given the flags and seed.  Every
command checks its output paths before any fit.  `select` and `rate-sweep`
name any unconverged grid fit on stderr and still exit 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .balancing import BoundConstants, LambdaGrid, SelectionRule, rate_exponent, select_lambda
from .data import (
    DEFAULT_PAIR,
    GaussianPairSpec,
    check_writable,
    dataset_sha256,
    finite_or_null,
    load_two_csv,
    sample_pair,
    write_json,
    write_text,
)
from .errors import InputError, NumericalError
from .experiment import (
    ExperimentConfig,
    check_output_dir,
    rate_sweep_csv_rows,
    report_summary,
    run_experiment,
    run_rate_sweep,
    write_experiment_outputs,
)
from .kernel import KernelFamily, KernelSpec
from .losses import LossFamily
from .solver import FitOptions, fit, save_model

_KERNELS = {"one-plus-gaussian": KernelFamily.ONE_PLUS_GAUSSIAN, "gaussian": KernelFamily.GAUSSIAN}


# The flags that only shape a --synthetic sample, with the values it gives them when unset.
_SYNTHETIC_DEFAULTS = {**asdict(DEFAULT_PAIR), "m": 100, "n": 100, "seed": 0}


def _add_data_and_estimator_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--p-csv", help="CSV of numerator samples (header x_1,...,x_d)")
    parser.add_argument("--q-csv", help="CSV of denominator samples")
    parser.add_argument("--synthetic", action="store_true", help="sample a synthetic Gaussian pair")
    parser.add_argument("--mu-p", type=float)
    parser.add_argument("--sigma-p", type=float)
    parser.add_argument("--mu-q", type=float)
    parser.add_argument("--sigma-q", type=float)
    parser.add_argument("--m", type=int, help="numerator sample count")
    parser.add_argument("--n", type=int, help="denominator sample count")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--loss", required=True, choices=[f.value for f in LossFamily])
    parser.add_argument("--kernel", choices=sorted(_KERNELS), default="one-plus-gaussian")
    parser.add_argument("--bandwidth", type=float, default=KernelSpec().bandwidth)


def _dataset_from_args(args):
    if args.synthetic:
        for flag, path in (("--p-csv", args.p_csv), ("--q-csv", args.q_csv)):
            if path is not None:
                raise InputError(f"--synthetic samples its own data; it cannot be given with {flag}")
        for name, default in _SYNTHETIC_DEFAULTS.items():
            if getattr(args, name) is None:
                setattr(args, name, default)
        pair = GaussianPairSpec(args.mu_p, args.sigma_p, args.mu_q, args.sigma_q)
        return sample_pair(pair, args.m, args.n, args.seed), args.seed
    if not (args.p_csv and args.q_csv):
        raise InputError("provide --p-csv and --q-csv, or --synthetic")
    for name in _SYNTHETIC_DEFAULTS:
        if getattr(args, name) is not None:
            flag = "--" + name.replace("_", "-")
            raise InputError(f"{flag} applies only to --synthetic data; it cannot be given with --p-csv and --q-csv")
    return load_two_csv(args.p_csv, args.q_csv), None


def _kernel_from_args(args) -> KernelSpec:
    return KernelSpec(_KERNELS[args.kernel], args.bandwidth)


def _parse_grid(text: str) -> LambdaGrid:
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError(f"--grid expects lo:ratio:count, got {text!r}")
    try:
        first, ratio, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise InputError(f"--grid expects numbers lo:ratio:count, got {text!r}") from exc
    try:
        return LambdaGrid.from_first(first, ratio, count)
    except InputError as exc:
        raise InputError(f"--grid {text!r}: {exc}") from exc


def _parse_sizes(text: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",") if s.strip()]
    except ValueError as exc:
        raise InputError(f"--sizes expects comma-separated integers, got {text!r}") from exc


def _data_config(args) -> dict:
    if args.synthetic:
        return {"synthetic": True, **{name: getattr(args, name) for name in _SYNTHETIC_DEFAULTS}}
    return {"synthetic": False, "p_csv": args.p_csv, "q_csv": args.q_csv, "seed": None}


def cmd_fit(args) -> int:
    dataset, seed = _dataset_from_args(args)
    family = LossFamily(args.loss)
    check_writable(args.out)
    model, report = fit(
        family,
        _kernel_from_args(args),
        dataset,
        args.lam,
        FitOptions(method=args.method, max_iters=args.max_iters),
    )
    save_model(model, args.out, seed=seed, dataset_hash=dataset_sha256(dataset))
    print(json.dumps(finite_or_null(report.to_dict()), indent=2, allow_nan=False))
    if not report.converged:
        print(f"fit did not converge (grad_norm={report.grad_norm})", file=sys.stderr)
        return 3
    return 0


def cmd_select(args) -> int:
    dataset, _ = _dataset_from_args(args)
    family = LossFamily(args.loss)
    grid = _parse_grid(args.grid)
    rule = SelectionRule(args.rule)
    consts = BoundConstants(delta=args.delta, q0=args.q0, capacity_alpha=args.capacity_alpha)
    if args.out is not None:
        check_writable(args.out)
    report = select_lambda(dataset, family, _kernel_from_args(args), grid, rule, consts)
    if args.out is not None:
        doc = {
            "config": {
                "data": _data_config(args),
                "loss": family.value,
                "kernel": args.kernel,
                "bandwidth": args.bandwidth,
            }
        }
        doc.update(report.to_dict())
        write_json(args.out, doc)
    print(repr(float(report.chosen_lambda)))
    unconverged = [repr(e["lambda"]) for e in report.per_lambda if not e["fit"]["converged"]]
    if unconverged:
        # Still exit 0: a lambda was chosen, and --out records each fit's state.
        print(f"warning: fit did not converge at lambda {', '.join(unconverged)}", file=sys.stderr)
    return 0


def cmd_experiment(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    check_output_dir(config.output_dir)
    report = run_experiment(config)
    report_path, csv_path = write_experiment_outputs(report, config.output_dir)
    print(json.dumps({"report": report_path, "csv": csv_path, **report_summary(report)}))
    return 0


def cmd_rate_sweep(args) -> int:
    family = LossFamily(args.loss)
    sizes = _parse_sizes(args.sizes)
    if (args.r is None) != (args.capacity_alpha is None):
        raise InputError("--r and --capacity-alpha must be given together")
    exponent = None if args.r is None else rate_exponent(args.r, args.capacity_alpha)
    if args.out_csv is not None:
        check_writable(args.out_csv)
    result = run_rate_sweep(
        family,
        sizes,
        args.seeds,
        SelectionRule(args.selection),
        grid=_parse_grid(args.grid),
    )
    if args.out_csv is not None:
        write_text(args.out_csv, (line + "\n" for line in rate_sweep_csv_rows(result)))
    summary = {
        "config": {
            "loss": args.loss,
            "sizes": sizes,
            "seeds": args.seeds,
            "selection": args.selection,
            "grid": args.grid,
        },
        "slope": result["slope"],
    }
    if exponent is not None:
        summary["theoretical_exponent"] = exponent
    summary["median_error"] = dict(zip(map(str, result["sizes"]), result["median_error"]))
    print(json.dumps(summary, indent=2))
    if result["unconverged"]:
        # Still exit 0, as select does: each size and seed chose a lambda.
        fits = "; ".join(f"N={size} seed={seed} lambda={lam!r}" for size, seed, lam in result["unconverged"])
        print(f"warning: fit did not converge at {fits}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kernelratio",
        description="Kernel density-ratio estimation with balancing-principle lambda selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit one model at a fixed lambda")
    _add_data_and_estimator_flags(p_fit)
    p_fit.add_argument("--lambda", dest="lam", type=float, required=True)
    p_fit.add_argument("--method", choices=["auto", "cg"], default=FitOptions().method)
    p_fit.add_argument("--max-iters", type=int, default=FitOptions().max_iters)
    p_fit.add_argument("--out", required=True, help="model JSON output path")
    p_fit.set_defaults(func=cmd_fit)

    p_sel = sub.add_parser("select", help="choose lambda on a geometric grid")
    _add_data_and_estimator_flags(p_sel)
    p_sel.add_argument(
        "--grid", required=True, help="lo:ratio:count; geometric grid whose smallest value is lo"
    )
    p_sel.add_argument("--rule", choices=[r.value for r in SelectionRule], default=SelectionRule.PRACTICAL_MJ.value)
    p_sel.add_argument("--delta", type=float, default=BoundConstants().delta)
    p_sel.add_argument("--q0", type=float, default=BoundConstants().q0)
    p_sel.add_argument("--capacity-alpha", type=float, default=BoundConstants().capacity_alpha)
    p_sel.add_argument("--out", help="selection report JSON output path")
    p_sel.set_defaults(func=cmd_select)

    p_exp = sub.add_parser("experiment", help="run a seeded grid experiment from a config JSON")
    p_exp.add_argument("config", help="experiment config JSON path")
    p_exp.set_defaults(func=cmd_experiment)

    p_rate = sub.add_parser("rate-sweep", help="median error versus sample size")
    p_rate.add_argument("--loss", required=True, choices=[f.value for f in LossFamily])
    p_rate.add_argument("--sizes", required=True, help="comma-separated pooled sizes, e.g. 32,64,128")
    p_rate.add_argument("--seeds", type=int, default=21, help="number of seeds (0..k-1)")
    p_rate.add_argument("--selection", choices=[r.value for r in SelectionRule], default=SelectionRule.PRACTICAL_MJ.value)
    p_rate.add_argument("--grid", default="1e-3:10:5")
    p_rate.add_argument("--r", type=float, help="source regularity for the printed exponent")
    p_rate.add_argument("--capacity-alpha", type=float, help="capacity index for the printed exponent")
    p_rate.add_argument("--out-csv", help="CSV output path (N,median_error)")
    p_rate.set_defaults(func=cmd_rate_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
