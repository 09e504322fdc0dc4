"""The three benchmark workloads: inputs, timed passes, checks and metrics.

Each workload drives kernelratio the way a user does (the CLI entry point
`kernelratio.cli.main`, in process) on inputs made from the workload seed.
A pass is one run of that user path; the timed region is the pass alone.
Inputs are written before timing and checks run after it.

* default-experiment: `kernelratio experiment` on the default config over
  data seeds 0..4.  The window is contiguous from 0 whatever the workload
  seed; it holds two exp fits at m=n=10 that CG leaves unconverged, and
  they are counted, not avoided.  The workload seed picks the chosen models
  that the two oracle routes re-score.
* rate-sweep-kulsif: `kernelratio rate-sweep --loss kulsif` at N = 250,
  500, 1000 over the CLI's data seeds 0..2.  The workload seed picks the
  cell that the two oracle routes re-score.
* csv-select-predict: twelve seeded two-sample CSV pairs in d = 3; each pass
  runs `select`, `fit --out model.json`, `load_model` and `predict_ratio`
  on one pair and its seeded query set.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from kernelratio import balancing, cli, data, experiment, kernel, oracle, solver
from kernelratio.data import DEFAULT_PAIR, LabeledDataset, sample_pair
from kernelratio.kernel import KernelSpec
from kernelratio.losses import LossFamily, phi, phi_prime

from spans import Tracer, aggregate

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: |value - reference| <= TOL * max(1, |reference|); TOL is the route
#: agreement tolerance of acceptance criterion 03.
TOL = 1e-4

FAMILIES = ("kulsif", "lr", "exp")

END_TO_END = ("wall_s", "setup_s", "peak_rss_mb", "divergence_at_chosen")

PER_LAYER = (
    "kernel.gram_s",
    "kernel.gram_calls",
    "kernel.gram_bytes",
    "kernel.cross_s",
    "kernel.cross_entries",
    "kernel.cross_temp_bytes",
    *(f"solver.{kind}.{family}" for family in FAMILIES for kind in ("fit_s", "fits", "iters", "unconverged")),
    "solver.predict_s",
    "solver.predict_points",
    "balancing.select_s",
    "balancing.weights_s",
    "balancing.h_norm_s",
    "balancing.h_norm_calls",
    "balancing.curvature_norm_s",
    "oracle.risk_s",
    "oracle.risk_calls",
    "oracle.mse_s",
    "oracle.mse_calls",
    "oracle.bayes_s",
    "oracle.node_evals",
    "data.sample_s",
    "data.csv_s",
    "experiment.cells",
    "experiment.cell_self_s",
    "experiment.write_s",
    "experiment.output_bytes",
    "cli.self_s",
    "cli.model_io_s",
    "failed_fraction",
    "top2_rate",
    "predict_points_per_s",
    "trace.wall_s",
    "trace.untraced_wall_s",
    "trace.overhead_s",
    "trace.self_total_s",
    "trace.unattributed_s",
)


def _close(value: float, reference: float) -> bool:
    return abs(value - reference) <= TOL * max(1.0, abs(reference))


@dataclass
class PassResult:
    """One pass: its wall time, whether it ran cleanly, and its output."""

    input_index: int
    wall_s: float
    ok: bool
    output: bytes = b""
    detail: str = ""
    extra: dict = field(default_factory=dict)


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


class Workload:
    """Base: subclasses build inputs, run one pass, and check outputs."""

    name = ""
    inputs = 1  # distinct inputs; pass i uses input i % inputs
    traced_inputs = 1  # inputs in one round of a traced run
    min_passes = 3  # untraced passes made even when --seconds has run out
    setup_families: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def run_pass(self, index: int) -> PassResult:
        raise NotImplementedError

    def divergence_at_chosen(self, passes: list[PassResult]) -> float:
        raise NotImplementedError

    def top2_rate(self, passes: list[PassResult]) -> float:
        return 0.0

    def checks(self, passes: list[PassResult]) -> list[Check]:
        raise NotImplementedError

    def _timed(self, index: int, body) -> PassResult:
        start = time.perf_counter()
        try:
            output, extra = body()
            ok, detail = True, ""
        except _PassFailed as exc:
            output, extra, ok, detail = b"", {}, False, str(exc)
        except Exception:  # a pass that raises is a failed operation, reported
            output, extra, ok, detail = b"", {}, False, traceback.format_exc()
        return PassResult(index, time.perf_counter() - start, ok, output, detail, extra)


class _PassFailed(Exception):
    pass


def _cli_or_fail(argv: list[str]) -> str:
    """Run `kernelratio <argv>` in process and return its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise _PassFailed(f"kernelratio {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _identical_outputs(passes: list[PassResult], name: str) -> Check:
    """Passes over the same input must give byte-identical outputs."""
    first: dict[int, bytes] = {}
    for result in passes:
        if not result.ok:
            continue
        seen = first.setdefault(result.input_index, result.output)
        if seen != result.output:
            return Check(name, False, f"input {result.input_index}: outputs differ between passes")
    return Check(name, True)


def _two_routes(ctx, family: LossFamily, model, label: str) -> Check:
    """Acceptance 03: twice the excess risk equals the direct divergence."""
    via = oracle.bregman_error_via_risk(ctx, family, model)
    direct = oracle.bregman_error_direct(ctx, family, model)
    ok = abs(via - direct) <= TOL
    return Check(f"two oracle routes agree ({label})", ok, f"via_risk={via!r} direct={direct!r}")


class DefaultExperiment(Workload):
    name = "default-experiment"
    min_passes = 4
    window = 5
    sampled_models = 2
    setup_families = ("kulsif", "exp")

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.out_dir = workdir / "experiment_out"
        self.config_path = workdir / "experiment.json"
        doc = {"seeds": list(range(self.window)), "output_dir": str(self.out_dir)}
        self.config_path.write_text(json.dumps(doc), encoding="utf-8")

    def run_pass(self, index: int) -> PassResult:
        def body():
            _cli_or_fail(["experiment", str(self.config_path)])
            return b"", {}

        result = self._timed(index, body)
        if result.ok:
            result.output = (self.out_dir / "report.json").read_bytes()
        return result

    @staticmethod
    def _cells(passes: list[PassResult]) -> list[dict]:
        return json.loads(next(p.output for p in passes if p.ok))["cells"]

    def divergence_at_chosen(self, passes):
        cells = self._cells(passes)
        return float(statistics.median(c["bregman_error"][c["chosen_index"] - 1] for c in cells))

    def top2_rate(self, passes):
        cells = self._cells(passes)
        return sum(c["chosen_rank_by_mse"] <= 2 for c in cells) / len(cells)

    def checks(self, passes):
        checks = [_identical_outputs(passes, "report.json identical across passes")]
        cells = self._cells(passes)
        reference = json.loads((REFERENCE_DIR / f"{self.name}.json").read_text(encoding="utf-8"))
        checks.append(_compare_cells(cells, reference["cells"]))

        ctx = oracle.OracleContext.default(DEFAULT_PAIR)
        config = experiment.ExperimentConfig()
        rng = np.random.default_rng(self.seed)
        for pick in rng.choice(len(cells), size=self.sampled_models, replace=False):
            cell = cells[int(pick)]
            family = LossFamily(cell["loss"])
            dataset = sample_pair(config.pair, cell["m"], cell["n"], cell["seed"])
            model, _ = solver.fit(family, config.kernel, dataset, cell["chosen_lambda"])
            label = f"{cell['loss']} m={cell['m']} n={cell['n']} seed={cell['seed']}"
            checks.append(_two_routes(ctx, family, model, label))
        return checks


def _compare_cells(cells: list[dict], reference: list[dict]) -> Check:
    """Chosen index and per-lambda MSE and divergence against the reference.

    A reference fit that CG left unconverged is no reference for its value,
    so MSE and divergence are compared only where the reference fit
    converged, and the chosen index only in cells whose fits all converged.
    """
    name = "cells match the reference table"
    if len(cells) != len(reference):
        return Check(name, False, f"{len(cells)} cells, reference has {len(reference)}")
    compared = skipped = 0
    for cell, ref in zip(cells, reference):
        key = (cell["loss"], cell["m"], cell["n"], cell["seed"])
        if key != (ref["loss"], ref["m"], ref["n"], ref["seed"]):
            return Check(name, False, f"cell {key} where the reference has {ref}")
        converged = ref["converged"]
        if all(converged):
            compared += 1
            if cell["chosen_index"] != ref["chosen_index"]:
                return Check(name, False, f"{key}: chosen index {cell['chosen_index']} != {ref['chosen_index']}")
        else:
            skipped += 1
        for metric in ("mse", "bregman_error"):
            for k, ok_ref in enumerate(converged):
                if ok_ref and not _close(cell[metric][k], ref[metric][k]):
                    return Check(name, False, f"{key}: {metric}[{k}] {cell[metric][k]!r} != {ref[metric][k]!r}")
    return Check(name, True, f"{compared} cells compared in full, {skipped} with an unconverged reference fit")


class RateSweepKulsif(Workload):
    name = "rate-sweep-kulsif"
    # A pass takes about 6 s; six of them keep the median wall_s steady.
    min_passes = 6
    sizes = (250, 500, 1000)
    data_seeds = 3
    grid = "1e-3:10:5"  # the CLI default, spelled out
    setup_families = ("kulsif",)

    def argv(self) -> list[str]:
        return [
            "rate-sweep",
            "--loss",
            "kulsif",
            "--sizes",
            ",".join(map(str, self.sizes)),
            "--seeds",
            str(self.data_seeds),
            "--grid",
            self.grid,
        ]

    def run_pass(self, index: int) -> PassResult:
        return self._timed(index, lambda: (_cli_or_fail(self.argv()).encode(), {}))

    @staticmethod
    def _median_errors(passes) -> dict:
        return json.loads(next(p.output for p in passes if p.ok))["median_error"]

    def divergence_at_chosen(self, passes):
        return float(self._median_errors(passes)[str(max(self.sizes))])

    def checks(self, passes):
        checks = [_identical_outputs(passes, "rate-sweep output identical across passes")]
        errors = self._median_errors(passes)
        reference = json.loads((REFERENCE_DIR / f"{self.name}.json").read_text(encoding="utf-8"))
        bad = {n: (errors.get(n), ref) for n, ref in reference["median_error"].items()
               if n not in errors or not _close(errors[n], ref)}
        checks.append(Check("median errors match the reference table", not bad, f"mismatches {bad}" if bad else ""))

        rng = np.random.default_rng(self.seed)
        size = int(rng.choice(self.sizes))
        data_seed = int(rng.integers(self.data_seeds))
        family = LossFamily.KULSIF
        spec = KernelSpec()
        dataset = sample_pair(DEFAULT_PAIR, size // 2, size - size // 2, data_seed)
        grid = cli._parse_grid(self.grid)
        gram = kernel.gram_matrix(spec, dataset.xs)
        fits = balancing.fit_grid(family, spec, dataset, grid, gram=gram)
        selection = balancing.select_from_fits(
            family, gram, dataset, grid, fits, balancing.SelectionRule.PRACTICAL_MJ
        )
        model = fits[selection.chosen_index - 1][0]
        ctx = oracle.OracleContext.default(DEFAULT_PAIR)
        checks.append(_two_routes(ctx, family, model, f"kulsif N={size} seed={data_seed}"))
        return checks


@dataclass(frozen=True)
class _CsvInput:
    p_csv: Path
    q_csv: Path
    xp: np.ndarray
    xq: np.ndarray
    query: np.ndarray


class CsvSelectPredict(Workload):
    name = "csv-select-predict"
    # lr CG cost varies about 10% between datasets; the median over twelve
    # of them damps that variation in wall_s.
    inputs = 12
    traced_inputs = 6  # keeps a traced run, which doubles every pass, near 35 s
    min_passes = 12
    dim = 3
    m = n = 300
    queries = 10_000
    grid = "1e-2:10:5"
    mu_p, sigma_p = 0.5, 1.0  # P = N(mu_p 1, sigma_p^2 I)
    mu_q, sigma_q = 0.0, 1.5  # Q = N(mu_q 1, sigma_q^2 I); queries come from Q

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.bandwidth = repr(math.sqrt(self.dim))
        self.model_path = workdir / "model.json"
        self.data = [self._make_input(k) for k in range(self.inputs)]

    def _make_input(self, k: int) -> _CsvInput:
        rng = np.random.default_rng([self.seed, k])
        xp = rng.normal(self.mu_p, self.sigma_p, size=(self.m, self.dim))
        xq = rng.normal(self.mu_q, self.sigma_q, size=(self.n, self.dim))
        query = rng.normal(self.mu_q, self.sigma_q, size=(self.queries, self.dim))
        paths = []
        for label, block in (("p", xp), ("q", xq)):
            path = self.workdir / f"{label}{k}.csv"
            header = ",".join(f"x_{i + 1}" for i in range(self.dim))
            rows = (",".join(repr(float(v)) for v in row) for row in block)
            path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
            paths.append(path)
        return _CsvInput(paths[0], paths[1], xp, xq, query)

    def _data_flags(self, item: _CsvInput) -> list[str]:
        return ["--loss", "lr", "--p-csv", str(item.p_csv), "--q-csv", str(item.q_csv), "--bandwidth", self.bandwidth]

    def run_pass(self, index: int) -> PassResult:
        item = self.data[index % self.inputs]

        def body():
            lam = _cli_or_fail(["select", *self._data_flags(item), "--grid", self.grid]).strip()
            _cli_or_fail(["fit", *self._data_flags(item), "--lambda", lam, "--out", str(self.model_path)])
            model, _ = solver.load_model(str(self.model_path))
            start = time.perf_counter()
            ratios = solver.predict_ratio(model, item.query)
            predict_s = time.perf_counter() - start
            return lam.encode() + b"\n" + np.asarray(ratios, dtype=np.float64).tobytes(), {"predict_s": predict_s}

        return self._timed(index % self.inputs, body)

    def _ratios(self, result: PassResult) -> tuple[str, np.ndarray]:
        lam, _, raw = result.output.partition(b"\n")
        return lam.decode(), np.frombuffer(raw, dtype=np.float64)

    def _true_ratio(self, x: np.ndarray) -> np.ndarray:
        log_ratio = (
            self.dim * math.log(self.sigma_q / self.sigma_p)
            - np.sum((x - self.mu_p) ** 2, axis=1) / (2.0 * self.sigma_p**2)
            + np.sum((x - self.mu_q) ** 2, axis=1) / (2.0 * self.sigma_q**2)
        )
        return np.exp(log_ratio)

    def divergence_at_chosen(self, passes):
        """Mean over inputs of the lr Bregman divergence, Monte Carlo over Q.

        The queries are draws from Q, so the mean of the generator's
        Bregman integrand over them estimates the divergence between the
        true and the predicted ratio that the oracle integrates against q.
        """
        family = LossFamily.LR
        values = {}
        for result in passes:
            if result.ok and result.input_index not in values:
                _, predicted = self._ratios(result)
                truth = self._true_ratio(self.data[result.input_index].query)
                integrand = phi(family, truth) - phi(family, predicted) - phi_prime(family, predicted) * (truth - predicted)
                values[result.input_index] = float(np.mean(integrand))
        return statistics.fmean(values.values())

    def checks(self, passes):
        checks = [_identical_outputs(passes, "predictions identical across passes")]
        bad = []
        for result in passes:
            if result.ok:
                _, ratios = self._ratios(result)
                if ratios.shape != (self.queries,) or not np.all(np.isfinite(ratios)) or np.any(ratios < 0.0):
                    bad.append(result.input_index)
        checks.append(Check("predicted ratios finite and nonnegative", not bad, f"inputs {bad}" if bad else ""))

        # A traced run covers only the first traced_inputs inputs, so the
        # seed picks among the inputs this run made passes over.
        covered = sorted({r.input_index for r in passes})
        k = covered[self.seed % len(covered)]
        result = next((r for r in passes if r.ok and r.input_index == k), None)
        if result is None:
            checks.append(Check(f"input {k} matches the library path", False, "no clean pass over it"))
            return checks
        lam_text, ratios = self._ratios(result)
        item = self.data[k]
        family = LossFamily.LR
        spec = KernelSpec(bandwidth=float(self.bandwidth))
        dataset = LabeledDataset.from_blocks(item.xp, item.xq)
        selection = balancing.select_lambda(
            dataset, family, spec, cli._parse_grid(self.grid), balancing.SelectionRule.PRACTICAL_MJ
        )
        model, _ = solver.fit(family, spec, dataset, selection.chosen_lambda)
        expected = solver.predict_ratio(model, item.query)
        if ratios.shape != expected.shape:
            checks.append(Check(f"input {k} matches the library path", False, f"shape {ratios.shape}"))
            return checks
        gap = np.abs(ratios - expected)
        ok = float(lam_text) == selection.chosen_lambda and bool(np.all(gap <= TOL * np.maximum(1.0, np.abs(expected))))
        detail = f"lambda {lam_text} vs {selection.chosen_lambda!r}, worst ratio gap {float(gap.max())!r}"
        checks.append(Check(f"input {k} matches the library path", ok, detail))
        return checks


WORKLOADS = {cls.name: cls for cls in (DefaultExperiment, RateSweepKulsif, CsvSelectPredict)}


# --- traced passes -------------------------------------------------------------


def _cross_counts(args, kwargs, result):
    n, m = result.shape
    d = 1 if np.ndim(args[1]) < 2 else np.shape(args[1])[1]
    return {"entries": n * m, "temp_bytes": n * m * d * 8}


def _fit_counts(args, kwargs, result):
    report = result[1]
    return {"iters": report.iterations, "unconverged": int(not report.converged)}


def _risk_counts(args, kwargs, result):
    ctx, _, f = args[:3]
    points = getattr(f, "points", None)
    return {"node_evals": ctx.quad.n_nodes * points.shape[0]} if points is not None else {}


def _write_counts(args, kwargs, result):
    return {"output_bytes": sum(os.path.getsize(path) for path in result)}


def trace_targets():
    """(module, attribute, span name, counts) for every traced public function."""
    return [
        (kernel, "gram_matrix", "kernel.gram", lambda a, k, r: {"bytes": 8 * r.n * r.n}),
        (kernel, "cross_matrix", "kernel.cross", _cross_counts),
        (solver, "fit", lambda a, k: f"solver.fit.{a[0].value}", _fit_counts),
        (solver, "predict_margin", "solver.predict", lambda a, k, r: {"points": int(np.size(r))}),
        (solver, "predict_ratio", "solver.predict", None),
        (solver, "model_to_dict", "cli.model_io", None),
        (solver, "load_model", "cli.model_io", None),
        (balancing, "select_from_fits", "balancing.select", None),
        (balancing, "hessian_weights", "balancing.weights", None),
        (balancing, "empirical_h_norm", "balancing.h_norm", None),
        (balancing, "curvature_operator_norm", "balancing.curvature_norm", None),
        (oracle, "population_risk", "oracle.risk", _risk_counts),
        (oracle, "grid_mse", "oracle.mse", None),
        (oracle, "bayes_risk", "oracle.bayes", None),
        (data, "sample_pair", "data.sample", None),
        (data, "load_two_csv", "data.csv", None),
        (experiment, "run_cell", "experiment.cell", None),
        (experiment, "write_experiment_outputs", "experiment.write", _write_counts),
        (cli, "main", "cli", None),
    ]


ROOT_SPAN = "pass"


def per_layer_metrics(spans, passes: int, walls: dict, extras: dict) -> dict[str, float]:
    """Per-pass means of the traced spans, named as in BENCHMARK.json."""
    agg = aggregate(spans)

    def self_s(name):
        return agg.get(name, {}).get("self_s", 0.0) / passes

    def calls(name):
        return agg.get(name, {}).get("calls", 0) / passes

    def count(name, key):
        return agg.get(name, {}).get("counts", {}).get(key, 0) / passes

    out = {
        "kernel.gram_s": self_s("kernel.gram"),
        "kernel.gram_calls": calls("kernel.gram"),
        "kernel.gram_bytes": count("kernel.gram", "bytes"),
        "kernel.cross_s": self_s("kernel.cross"),
        "kernel.cross_entries": count("kernel.cross", "entries"),
        "kernel.cross_temp_bytes": count("kernel.cross", "temp_bytes"),
    }
    fits = failed = 0.0
    for family in FAMILIES:
        name = f"solver.fit.{family}"
        out[f"solver.fit_s.{family}"] = self_s(name)
        out[f"solver.fits.{family}"] = calls(name)
        out[f"solver.iters.{family}"] = count(name, "iters")
        out[f"solver.unconverged.{family}"] = count(name, "unconverged")
        fits += calls(name)
        failed += count(name, "unconverged") + count(name, "raised")
    out.update(
        {
            "solver.predict_s": self_s("solver.predict"),
            "solver.predict_points": count("solver.predict", "points"),
            "balancing.select_s": self_s("balancing.select"),
            "balancing.weights_s": self_s("balancing.weights"),
            "balancing.h_norm_s": self_s("balancing.h_norm"),
            "balancing.h_norm_calls": calls("balancing.h_norm"),
            "balancing.curvature_norm_s": self_s("balancing.curvature_norm"),
            "oracle.risk_s": self_s("oracle.risk"),
            "oracle.risk_calls": calls("oracle.risk"),
            "oracle.mse_s": self_s("oracle.mse"),
            "oracle.mse_calls": calls("oracle.mse"),
            "oracle.bayes_s": self_s("oracle.bayes"),
            "oracle.node_evals": count("oracle.risk", "node_evals"),
            "data.sample_s": self_s("data.sample"),
            "data.csv_s": self_s("data.csv"),
            "experiment.cells": calls("experiment.cell"),
            "experiment.cell_self_s": self_s("experiment.cell"),
            "experiment.write_s": self_s("experiment.write"),
            "experiment.output_bytes": count("experiment.write", "output_bytes"),
            "cli.self_s": self_s("cli"),
            "cli.model_io_s": self_s("cli.model_io"),
            "failed_fraction": failed / fits if fits else 0.0,
            "top2_rate": extras["top2_rate"],
            "predict_points_per_s": extras["predict_points_per_s"],
            "trace.wall_s": walls["traced"],
            "trace.untraced_wall_s": walls["untraced"],
            "trace.overhead_s": walls["traced"] - walls["untraced"],
            "trace.self_total_s": sum(self_s(n) for n in agg if n != ROOT_SPAN),
            "trace.unattributed_s": self_s(ROOT_SPAN),
        }
    )
    return out


# --- one benchmark run -------------------------------------------------------------


def run_untraced(workload: Workload, seconds: float) -> list[PassResult]:
    passes: list[PassResult] = []
    start = time.perf_counter()
    while len(passes) < max(workload.min_passes, workload.inputs) or time.perf_counter() - start < seconds:
        passes.append(workload.run_pass(len(passes)))
    return passes


def run_traced(workload: Workload, seconds: float):
    """Whole rounds of (untraced, traced) pass pairs over the traced inputs.

    The pair order alternates, so the first, colder pass of a run does
    not always land on the same side of the overhead estimate.
    """
    tracer = Tracer()
    untraced: list[PassResult] = []
    traced: list[PassResult] = []

    def traced_pass(k):
        with tracer.patch(trace_targets()), tracer.span(ROOT_SPAN):
            traced.append(workload.run_pass(k))

    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        for k in range(workload.traced_inputs):
            if len(traced) % 2:
                traced_pass(k)
                untraced.append(workload.run_pass(k))
            else:
                untraced.append(workload.run_pass(k))
                traced_pass(k)
    return untraced, traced, tracer.spans


def traced_vs_untraced(untraced: list[PassResult], traced: list[PassResult]) -> Check:
    for plain, seen in zip(untraced, traced):
        if plain.ok and seen.ok and plain.output != seen.output:
            return Check("traced outputs equal untraced outputs bit for bit", False, f"input {plain.input_index}")
    return Check("traced outputs equal untraced outputs bit for bit", True)


def predict_points_per_s(workload: Workload, passes: list[PassResult]) -> float:
    times = [p.extra["predict_s"] for p in passes if p.ok and "predict_s" in p.extra]
    return workload.queries * len(times) / sum(times) if times else 0.0


def digest(passes: list[PassResult]) -> str:
    """Short content hash of the pass outputs, printed for comparing runs."""
    h = hashlib.sha256()
    for result in passes:
        h.update(result.output)
    return h.hexdigest()[:16]
