import argparse
import contextlib
import dataclasses
import functools
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelratio import (
    DEFAULT_PAIR,
    FitOptions,
    InputError,
    KernelFamily,
    KernelSpec,
    LossFamily,
    NumericalError,
    SelectionRule,
    fit,
    load_model,
    sample_pair,
)
from kernelratio import balancing, cli, experiment, kernel, solver
from kernelratio.cli import _parse_grid, build_parser, main
from kernelratio.experiment import ExperimentConfig


def run_cli(args):
    return main(args)


def strict_json(text):
    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def csv_pair(tmp_path, dim=3, rows=40, seed=7):
    """P = N(0.5, I) and Q = N(0, I) samples written as two CSV files."""
    rng = np.random.default_rng(seed)
    paths = []
    for name, loc in (("p", 0.5), ("q", 0.0)):
        lines = [",".join(f"x_{j + 1}" for j in range(dim))]
        lines += [",".join(repr(float(v)) for v in row) for row in rng.normal(loc, 1.0, (rows, dim))]
        path = tmp_path / f"{name}.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(str(path))
    return paths


@pytest.fixture
def capped_cg(monkeypatch):
    """Fits made with the default options stop CG after two iterations.

    No lr or exp fit converges that fast, so each layer's non-convergence
    report is reached whatever path the solver takes to the optimum.
    """
    monkeypatch.setattr(solver, "FitOptions", functools.partial(FitOptions, max_iters=2))


class TestFit:
    def test_synthetic_smoke(self, tmp_path, capsys):
        out = tmp_path / "model.json"
        code = run_cli(
            [
                "fit",
                "--synthetic",
                "--m",
                "10",
                "--n",
                "10",
                "--seed",
                "7",
                "--loss",
                "kulsif",
                "--lambda",
                "0.01",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        report = json.loads(capsys.readouterr().out)
        assert report["converged"] is True
        assert report["method"] == "ClosedForm"
        doc = json.loads(out.read_text())
        assert doc["lambda"] == 0.01
        assert doc["seed"] == 7
        assert len(doc["alpha"]) == 20

    def test_missing_lambda_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["fit", "--synthetic", "--loss", "kulsif", "--out", str(tmp_path / "m.json")])
        assert excinfo.value.code == 2

    def test_missing_data_source_is_input_error(self, tmp_path, capsys):
        code = run_cli(
            ["fit", "--loss", "kulsif", "--lambda", "0.1", "--out", str(tmp_path / "m.json")]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_nonconvergence_exits_three(self, tmp_path, capsys):
        code = run_cli(
            [
                "fit",
                "--synthetic",
                "--m",
                "10",
                "--n",
                "10",
                "--loss",
                "exp",
                "--lambda",
                "0.001",
                "--max-iters",
                "2",
                "--out",
                str(tmp_path / "m.json"),
            ]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert "did not converge" in captured.err
        report = json.loads(captured.out)
        assert report["converged"] is False

    def test_repeated_runs_are_byte_identical(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code = run_cli(
                [
                    "fit",
                    "--synthetic",
                    "--m",
                    "10",
                    "--n",
                    "10",
                    "--seed",
                    "7",
                    "--loss",
                    "exp",
                    "--lambda",
                    "0.1",
                    "--out",
                    str(path),
                ]
            )
            assert code == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_csv_input(self, tmp_path, capsys):
        p = tmp_path / "p.csv"
        q = tmp_path / "q.csv"
        p.write_text("x_1\n3.9\n4.2\n", encoding="utf-8")
        q.write_text("x_1\n1.0\n2.0\n2.5\n", encoding="utf-8")
        out = tmp_path / "model.json"
        code = run_cli(
            ["fit", "--p-csv", str(p), "--q-csv", str(q), "--loss", "sq", "--lambda", "0.5", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["seed"] is None
        assert len(doc["points"]) == 5
        capsys.readouterr()

    def test_bad_csv_exits_two(self, tmp_path, capsys):
        p = tmp_path / "p.csv"
        p.write_text("x_1\nnope\n", encoding="utf-8")
        q = tmp_path / "q.csv"
        q.write_text("x_1\n1.0\n", encoding="utf-8")
        code = run_cli(
            ["fit", "--p-csv", str(p), "--q-csv", str(q), "--loss", "sq", "--lambda", "0.5", "--out", str(tmp_path / "m.json")]
        )
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "bad_line", [b"nan", b"inf", b"-Infinity", b"\xff\xfe"], ids=["nan", "inf", "-inf", "non-utf8"]
    )
    def test_bad_csv_cell_exits_two_naming_file_and_line(self, tmp_path, capsys, bad_line):
        p = tmp_path / "p.csv"
        p.write_bytes(b"x_1\n3.9\n" + bad_line + b"\n4.2\n")
        q = tmp_path / "q.csv"
        q.write_text("x_1\n1.0\n2.0\n", encoding="utf-8")
        code = run_cli(
            ["fit", "--p-csv", str(p), "--q-csv", str(q), "--loss", "lr", "--lambda", "0.5", "--out", str(tmp_path / "m.json")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert str(p) in err and "line 3" in err

    @pytest.mark.parametrize(
        "p_text, message",
        [
            ("x_1\n" + "1" * 200_000 + "\n", "{p}: line 2: field larger than field limit (131072)"),
            ("x_1,x_2\n", "dimension mismatch: {p} has d=2, {q} has d=1"),
            ('x_1,x_2,"x_3\n1,2,3\r\n4,5,6\n', r"{p}: header must be x_1,x_2,x_3, got x_1,x_2,x_3\n1,2,3\r\n4,5,6"),
            ("value\n1.0\n", "{p}: header must be x_1, got value"),
        ],
        ids=["oversized-cell", "empty-p-of-another-dimension", "header-quote-swallows-rows", "plain-bad-header"],
    )
    def test_bad_csv_exits_two_with_one_line_before_any_fit(self, tmp_path, capsys, monkeypatch, p_text, message):
        started = []
        monkeypatch.setattr(cli, "fit", lambda *args, **kwargs: started.append(args))
        p = tmp_path / "p.csv"
        p.write_text(p_text, encoding="utf-8")
        q = tmp_path / "q.csv"
        q.write_text("x_1\n1.0\n2.0\n", encoding="utf-8")
        out = tmp_path / "m.json"
        args = ["fit", "--p-csv", str(p), "--q-csv", str(q), "--loss", "sq", "--lambda", "0.5", "--out", str(out)]
        assert run_quiet(args) == 2
        assert started == []
        assert capsys.readouterr() == ("", f"error: {message.format(p=p, q=q)}\n")
        assert not out.exists()

    def test_extreme_lambda_exits_three_with_strict_json_and_no_numpy_noise(self, tmp_path, capsys):
        p, q = csv_pair(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the run
            code = run_cli(
                ["fit", "--p-csv", p, "--q-csv", q, "--loss", "kulsif", "--lambda", "1e-300"]
                + ["--out", str(tmp_path / "m.json")]
            )
        assert code == 3
        captured = capsys.readouterr()
        report = strict_json(captured.out)
        assert report["converged"] is False
        assert report["grad_norm"] is None and report["objective"] is None
        assert captured.err.splitlines() == ["fit did not converge (grad_norm=inf)"]

    def test_a_singular_closed_form_exits_three_naming_it(self, tmp_path, capsys):
        # Two equal Q points under the Gaussian kernel make the Q block all
        # 1/N; at lambda = 1e-17 adding lambda to its diagonal changes nothing.
        p, q, out = tmp_path / "p.csv", tmp_path / "q.csv", tmp_path / "m.json"
        p.write_text("x_1\n0.0\n", encoding="utf-8")
        q.write_text("x_1\n1.0\n1.0\n", encoding="utf-8")
        code = run_cli(
            ["fit", "--p-csv", str(p), "--q-csv", str(q), "--loss", "kulsif", "--kernel", "gaussian"]
            + ["--lambda", "1e-17", "--out", str(out)]
        )
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical error: closed-form system is singular: ")
        assert not out.exists()

    def test_a_failed_line_search_exits_three_naming_the_iteration_and_writes_no_model(self, tmp_path, capsys):
        # At lambda = 1e-300 CG on kulsif meets a step no halving makes
        # acceptable; the CLI reports the library's error, iteration and all.
        dataset = sample_pair(DEFAULT_PAIR, 5, 5, 0)
        with pytest.raises(NumericalError, match=r"^line search failed after \d+ halvings at iteration \d+$") as failed:
            fit(LossFamily.KULSIF, KernelSpec(KernelFamily.GAUSSIAN), dataset, 1e-300, FitOptions(method="cg"))
        out = tmp_path / "m.json"
        code = run_cli(
            ["fit", "--synthetic", "--m", "5", "--n", "5", "--seed", "0", "--loss", "kulsif", "--kernel", "gaussian"]
            + ["--method", "cg", "--lambda", "1e-300", "--out", str(out)]
        )
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [f"numerical error: {failed.value}"]
        assert not out.exists()


class TestSelect:
    def test_prints_chosen_and_writes_report(self, tmp_path, capsys):
        out = tmp_path / "selection.json"
        code = run_cli(
            [
                "select",
                "--synthetic",
                "--m",
                "20",
                "--n",
                "20",
                "--seed",
                "0",
                "--loss",
                "kulsif",
                "--grid",
                "1e-3:10:5",
                "--rule",
                "mj",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        chosen = float(capsys.readouterr().out.strip())
        report = json.loads(out.read_text())
        assert report["chosen_lambda"] == chosen
        assert len(report["pairwise"]) == 10
        assert chosen in report["grid"]["values"]

    @pytest.mark.parametrize(
        "rule, threshold_key, params",
        [
            ("mj", "m_j", ["rule", "n_total", "capacity_alpha"]),
            ("eta-s", "s_j", ["rule", "n_total", "delta", "q0", "capacity_alpha"]),
        ],
    )
    def test_report_layout(self, tmp_path, capsys, rule, threshold_key, params):
        out = tmp_path / "selection.json"
        args = ["select", "--synthetic", "--m", "10", "--n", "10", "--loss", "lr", "--grid", "1e-2:10:3"]
        assert run_cli(args + ["--rule", rule, "--out", str(out)]) == 0
        capsys.readouterr()
        report = json.loads(out.read_text())
        assert [(e["i"], e["j"]) for e in report["pairwise"]] == [(2, 1), (3, 1), (3, 2)]
        for entry in report["pairwise"]:
            assert list(entry) == ["i", "j", "lambda_i", "lambda_j", "norm_sq", "threshold", "pass"]
            assert entry["pass"] is (entry["norm_sq"] <= entry["threshold"])
        for entry in report["per_lambda"]:
            assert list(entry) == ["lambda", "trace", "fit", threshold_key]
            assert list(entry["fit"]) == ["iterations", "grad_norm", "objective", "converged", "method"]
        assert list(report["params"]) == params

    def test_eta_s_records_default_delta(self, tmp_path, capsys):
        out = tmp_path / "selection.json"
        code = run_cli(
            [
                "select",
                "--synthetic",
                "--m",
                "10",
                "--n",
                "10",
                "--loss",
                "kulsif",
                "--grid",
                "1e-3:10:3",
                "--rule",
                "eta-s",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        report = json.loads(out.read_text())
        assert report["params"]["delta"] == 0.05

    def test_single_element_grid(self, capsys):
        code = run_cli(
            [
                "select",
                "--synthetic",
                "--m",
                "5",
                "--n",
                "5",
                "--loss",
                "exp",
                "--grid",
                "0.1:10:1",
            ]
        )
        assert code == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(0.1, rel=1e-12)

    def test_unconverged_fits_are_named_on_stderr(self, tmp_path, capsys, capped_cg):
        out = tmp_path / "selection.json"
        code = run_cli(
            ["select", "--loss", "exp", "--synthetic", "--m", "10", "--n", "10", "--seed", "0"]
            + ["--grid", "1e-3:10:3", "--out", str(out)]
        )
        assert code == 0  # a lambda is still chosen
        err = capsys.readouterr().err.splitlines()
        report = json.loads(out.read_text())
        unconverged = [e["lambda"] for e in report["per_lambda"] if not e["fit"]["converged"]]
        assert unconverged == _parse_grid("1e-3:10:3").values.tolist()
        assert err == [f"warning: fit did not converge at lambda {', '.join(map(repr, unconverged))}"]

    def test_extreme_lambda_report_is_strict_json(self, tmp_path, capsys):
        p, q = csv_pair(tmp_path)
        out = tmp_path / "selection.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the run
            code = run_cli(
                ["select", "--p-csv", p, "--q-csv", q, "--loss", "kulsif", "--grid", "1e-300:10:2"]
                + ["--out", str(out)]
            )
        assert code == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "did not converge" in err[0]
        report = strict_json(out.read_text())
        assert all(e["fit"]["objective"] is None for e in report["per_lambda"])

    def test_malformed_grid(self, capsys):
        for grid, expects in (("nope", "lo:ratio:count"), ("1e-3:x:3", "numbers lo:ratio:count")):
            code = run_cli(["select", "--synthetic", "--loss", "exp", "--grid", grid])
            assert code == 2
            assert capsys.readouterr().err == f"error: --grid expects {expects}, got {grid!r}\n"

    @pytest.mark.parametrize(
        "command, grid",
        [
            ("select", "1e-300:1e15:21"),
            ("select", "1e300:1e10:3"),
            ("select", "1e-320:1e10:3"),
            ("select", "1e-3:0:3"),
            ("rate-sweep", "1e300:1e10:3"),
        ],
    )
    def test_grid_outside_the_float_range_exits_two_naming_the_flag(self, capsys, command, grid):
        data = ["--synthetic", "--m", "5", "--n", "5"] if command == "select" else ["--sizes", "8", "--seeds", "1"]
        assert run_quiet([command, *data, "--loss", "kulsif", "--grid", grid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith(f"error: --grid {grid!r}: ")


class TestExperiment:
    def _config(self, tmp_path, out_name="exp_out"):
        return {
            "pair": {"mu_p": 4.0, "sigma_p": 2.0**-0.5, "mu_q": 2.0, "sigma_q": 5.0**0.5},
            "losses": ["kulsif"],
            "grid": {"lambda0": 1e-3, "xi": 10.0, "l": 3},
            "sample_sizes": [[3, 3]],
            "seeds": [0, 1],
            "rule": "mj",
            "kernel": {"family": "one_plus_gaussian", "bandwidth": 1.0},
            "output_dir": str(tmp_path / out_name),
        }

    def test_runs_and_writes_outputs(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(self._config(tmp_path)), encoding="utf-8")
        code = run_cli(["experiment", str(config_path)])
        assert code == 0
        paths = json.loads(capsys.readouterr().out)
        report = json.loads(open(paths["report"]).read())
        assert len(report["cells"]) == 2
        for cell in report["cells"]:
            assert 1 <= cell["chosen_rank_by_mse"] <= 3
        csv_lines = open(paths["csv"]).read().splitlines()
        assert csv_lines[0] == "loss,m,n,seed,lambda,mse,chosen"
        assert len(csv_lines) == 1 + 2 * 3  # header + cells * grid points
        chosen_flags = [line.rsplit(",", 1)[1] for line in csv_lines[1:]]
        assert set(chosen_flags) <= {"0", "1"}

    def _config_path(self, tmp_path, loss, lambda0):
        """A config path for one 10 + 10 cell (seed 0) of `loss` on the grid lambda0 * 10^(1..3)."""
        config = self._config(tmp_path)
        config.update(
            losses=[loss], grid={"lambda0": lambda0, "xi": 10.0, "l": 3}, sample_sizes=[[10, 10]], seeds=[0]
        )
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        return str(config_path)

    def test_stdout_summarizes_top2_rate_and_unconverged_fits(self, tmp_path, capsys, capped_cg):
        assert run_cli(["experiment", self._config_path(tmp_path, "lr", 1e-3)]) == 0
        summary = json.loads(capsys.readouterr().out)
        report = strict_json(open(summary["report"]).read())
        (cell,) = report["cells"]
        assert summary["unconverged_fits"] == 3
        assert report["unconverged_fits"] == 3
        assert not any(fit_report["converged"] for fit_report in cell["fit_reports"])
        top2 = float(cell["chosen_rank_by_mse"] <= 2)
        assert summary["top2_rate"] == [{"loss": "lr", "m": 10, "n": 10, "rate": top2}]

    def test_an_infinite_mse_is_null_in_the_report_inf_in_the_csv_and_ranks_last(self, tmp_path, capsys, monkeypatch):
        # Every coefficient 1e3 puts each margin of the offset kernel (k >= 1)
        # at 2e4 or more, so the ratio exp(margin) overflows on the whole eval
        # grid; lr's risk, a logaddexp of the margin, stays finite.
        fit_and_select = experiment.fit_and_select

        def diverged(*args):
            fits, selection = fit_and_select(*args)
            return [(dataclasses.replace(m, alpha=np.full_like(m.alpha, 1e3)), r) for m, r in fits], selection

        monkeypatch.setattr(experiment, "fit_and_select", diverged)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert run_cli(["experiment", self._config_path(tmp_path, "lr", 1e-3)]) == 0
        captured = capsys.readouterr()
        summary = json.loads(captured.out)
        # The overflowing squared errors warn neither on stderr nor at all.
        assert captured.err == ""
        assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]
        report = strict_json(open(summary["report"]).read())
        (cell,) = report["cells"]
        assert cell["mse"] == [None, None, None]
        assert np.all(np.isfinite(cell["bregman_error"]))
        # The chosen fit's infinite MSE ranks last, so it is no top-2 hit.
        assert cell["chosen_rank_by_mse"] == 3
        assert summary["top2_rate"] == [{"loss": "lr", "m": 10, "n": 10, "rate": 0.0}]
        csv_mses = [line.split(",")[5] for line in open(summary["csv"]).read().splitlines()[1:]]
        assert csv_mses == ["inf", "inf", "inf"]

    def test_a_risk_past_the_float_range_exits_three_with_one_line(self, tmp_path, capsys):
        # At lambda0 = 1e-13 exp's fits diverge: their losses leave the float
        # range on the quadrature nodes, so no risk can be scored.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli(["experiment", self._config_path(tmp_path, "exp", 1e-13)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("numerical error: non-finite risk integrand at node x=")

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(self._config(tmp_path)), encoding="utf-8")
        assert run_cli(["experiment", str(config_path)]) == 0
        paths = json.loads(capsys.readouterr().out)
        first = open(paths["csv"], "rb").read()
        assert run_cli(["experiment", str(config_path)]) == 0
        capsys.readouterr()
        second = open(paths["csv"], "rb").read()
        assert first == second

    def test_config_with_a_byte_order_mark_runs_the_same_experiment(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        text = json.dumps(self._config(tmp_path)).encode("utf-8")
        reports = []
        for content in (text, b"\xef\xbb\xbf" + text):
            config_path.write_bytes(content)
            assert run_cli(["experiment", str(config_path)]) == 0
            reports.append(open(json.loads(capsys.readouterr().out)["report"], "rb").read())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"])
    def test_config_that_is_not_utf8_exits_two_naming_the_file(self, tmp_path, capsys, mark):
        config_path = tmp_path / "config.json"
        config_path.write_bytes(mark + b'{"seeds": [0], "output_dir": "\xff"}')
        assert run_cli(["experiment", str(config_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot read config {config_path}: "
            "'utf-8' codec can't decode byte 0xff in position 30: invalid start byte\n"
        )

    def test_invalid_config_exits_two(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text('{"losses": []}', encoding="utf-8")
        assert run_cli(["experiment", str(config_path)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "content",
        [
            b"[]",
            b'{"kernel": []}',
            b'{"consts": 5}',
            b'{"pair": null}',
            b'{"grid": {"lambda0": 1e-3, "xi": 10.0, "l": 1e400}}',
            b"\xff\xfe{}",
        ],
    )
    def test_malformed_config_exits_two_naming_the_file(self, tmp_path, capsys, content):
        config_path = tmp_path / "config.json"
        config_path.write_bytes(content)
        assert run_cli(["experiment", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(config_path) in err

    @pytest.mark.parametrize(
        "content, names",
        [
            ('{"pair": {"mu_p": 1e200}}', "mu_p=1e+200"),
            ('{"pair": {"sigma_q": 1e400}}', "sigma_q must be a finite number"),
            ('{"pair": {"mu_q": -Infinity}}', "mu_q must be a finite number"),
            ('{"pair": {"mu_p": NaN}}', "mu_p must be a finite number"),
            ('{"pair": {"sigma_p": 1e-300}}', "sigma_p=1e-300"),
            # The oracle's log ratio, which the check evaluates, is not finite:
            # 2 sigma_p**2 underflows to 0, or sigma_p**2 overflows.
            ('{"pair": {"mu_p": 0, "sigma_p": 1e-165, "mu_q": 0, "sigma_q": 1e-12}}', "not finite at x=-8e-12, "),
            ('{"pair": {"mu_p": 0, "sigma_p": 1e200, "mu_q": 0, "sigma_q": 1e200}}', "not finite at x=-8e+200, "),
            ('{"pair": {"sigma_p": -1}}', "pair: standard deviations must be positive"),
            ('{"grid": {"lambda0": 1e-3, "l": 3}}', "grid lacks 'xi'"),
            ('{"grid": {"lambda0": 1.0, "xi": 1e300, "l": 3}}', "grid values must be finite and positive, got inf"),
        ],
    )
    def test_bad_pair_or_grid_exits_two_naming_file_and_field(self, tmp_path, capsys, content, names):
        config_path = tmp_path / "config.json"
        config_path.write_text(content, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the run
            assert run_cli(["experiment", str(config_path)]) == 2
        err = capsys.readouterr().err
        section = "pair: " if content.startswith('{"pair"') else ""
        assert err.startswith(f"error: {config_path}: malformed experiment config: {section}") and names in err

    @pytest.mark.parametrize(
        "content, key",
        [
            ('{"seeds": [0], "seeds": [1], "output_dir": "o1", "output_dir": "o2"}', "seeds"),
            ('{"pair": {"mu_p": 4.0, "mu_p": 3.0}, "output_dir": "o1"}', "mu_p"),
        ],
        ids=["top-level", "nested"],
    )
    def test_a_repeated_key_exits_two_naming_it_before_any_fit(self, tmp_path, capsys, monkeypatch, content, key):
        monkeypatch.chdir(tmp_path)  # where output_dir would land
        started = []
        monkeypatch.setattr(cli, "run_experiment", lambda config: started.append(config))
        config_path = tmp_path / "config.json"
        config_path.write_text(content, encoding="utf-8")
        assert run_quiet(["experiment", str(config_path)]) == 2
        assert started == []
        assert capsys.readouterr().err == f"error: cannot read config {config_path}: repeated key {key!r}\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["config.json"]

    def test_a_deeply_nested_config_exits_two_naming_it_before_any_fit(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # where output_dir would land
        started = []
        monkeypatch.setattr(cli, "run_experiment", lambda config: started.append(config))
        config_path = tmp_path / "config.json"
        config_path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        assert run_quiet(["experiment", str(config_path)]) == 2
        assert started == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot read config {config_path}: maximum recursion depth")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["config.json"]

    def test_a_pair_the_oracle_cannot_resolve_exits_two_naming_it_before_any_fit(self, tmp_path, capsys, monkeypatch):
        # The 20,001-node rule over +-8 sigma of Q steps 0.08, eight sigma_p,
        # far too coarse to integrate p.
        started = []
        monkeypatch.setattr(experiment, "run_cell", lambda *args: started.append(args))
        config = self._config(tmp_path)
        config.update(pair={"mu_p": 0.3, "sigma_p": 0.01, "mu_q": 0.0, "sigma_q": 100.0}, sample_sizes=[[20, 20]])
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert run_quiet(["experiment", str(config_path)]) == 2
        assert started == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: the oracle's 20,001-node rule has step 0.08, ")
        assert err[0].endswith("cannot resolve the pair mu_p=0.3, sigma_p=0.01, mu_q=0.0, sigma_q=100.0")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["config.json"]


    @pytest.mark.parametrize(
        "pair, code, message",
        [
            (
                {"mu_p": 0.0, "sigma_p": 2.0, "mu_q": 0.0, "sigma_q": 1.0},
                2,
                "error: kulsif's Bayes risk and divergence need a finite E_q[beta^2], so sigma_p^2 < 2 sigma_q^2, "
                "which fails for the pair mu_p=0.0, sigma_p=2.0, mu_q=0.0, sigma_q=1.0",
            ),
            (
                {"mu_p": 0.0, "sigma_p": 0.1, "mu_q": -40.0, "sigma_q": 1.0},
                2,
                "error: kulsif's Bayes risk integrates p^2/q, whose integral e^806 is past the float range, "
                "for the pair mu_p=0.0, sigma_p=0.1, mu_q=-40.0, sigma_q=1.0",
            ),
            (
                {"mu_p": 0.0, "sigma_p": 1.4, "mu_q": 0.0, "sigma_q": 1.0},
                2,
                "error: kulsif's Bayes risk integrates p^2/q, which has 0.11 of its mass outside the oracle's "
                "interval [-11.2, 11.2], over the bound 1e-10, for the pair mu_p=0.0, sigma_p=1.4, mu_q=0.0, sigma_q=1.0",
            ),
        ],
        ids=["infinite chi2", "optimal margin past the float range", "p^2/q truncated by the interval"],
    )
    def test_a_kulsif_bayes_risk_that_is_not_finite_exits_before_any_fit(
        self, tmp_path, capsys, monkeypatch, pair, code, message
    ):
        started = []
        monkeypatch.setattr(experiment, "run_cell", lambda *args: started.append(args))
        config = self._config(tmp_path)
        config.update(pair=pair, sample_sizes=[[20, 20]], seeds=[0])
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert run_quiet(["experiment", str(config_path)]) == code
        assert started == []
        assert capsys.readouterr().err.splitlines() == [message]
        assert sorted(path.name for path in tmp_path.iterdir()) == ["config.json"]


class TestRateSweep:
    def test_default_grid_text_is_the_default_grid(self):
        # rate-sweep echoes the flag's text, so the default is kept as text;
        # it must still name ExperimentConfig's grid.
        args = build_parser().parse_args(["rate-sweep", "--loss", "kulsif", "--sizes", "8"])
        grid = _parse_grid(args.grid)
        assert grid == ExperimentConfig.grid
        assert grid.values.tobytes() == ExperimentConfig.grid.values.tobytes()

    def test_single_size_has_null_slope(self, tmp_path, capsys):
        out_csv = tmp_path / "rates.csv"
        code = run_cli(
            [
                "rate-sweep",
                "--loss",
                "kulsif",
                "--sizes",
                "16",
                "--seeds",
                "2",
                "--grid",
                "1e-2:10:2",
                "--out-csv",
                str(out_csv),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        summary = json.loads(captured.out)
        assert summary["slope"] is None
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "N,median_error"
        assert len(lines) == 2

    def test_unconverged_fits_are_named_on_stderr(self, capsys, capped_cg):
        code = run_cli(["rate-sweep", "--loss", "lr", "--sizes", "20,40", "--seeds", "2", "--grid", "1e-3:10:3"])
        assert code == 0  # every size and seed still chose a lambda
        captured = capsys.readouterr()
        assert list(json.loads(captured.out)["median_error"]) == ["20", "40"]
        named = [
            f"N={size} seed={seed} lambda={lam!r}"
            for size in (20, 40)
            for seed in (0, 1)
            for lam in _parse_grid("1e-3:10:3").values.tolist()
        ]
        assert captured.err.splitlines() == [f"warning: fit did not converge at {'; '.join(named)}"]

    def test_a_risk_past_the_float_range_exits_three_with_one_line(self, capsys):
        # At lambda = 1e-12 exp's fits diverge: their losses leave the float
        # range on the quadrature nodes, so no risk can be scored.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            args = ["rate-sweep", "--loss", "exp", "--sizes", "20,40", "--seeds", "2", "--grid", "1e-12:10:3"]
            assert run_cli(args) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("numerical error: non-finite risk integrand at node x=")

    @pytest.mark.parametrize("sizes", ["10,abc", "", ",", "8,8"])
    def test_bad_sizes_exit_two(self, sizes, capsys):
        code = run_cli(["rate-sweep", "--loss", "kulsif", "--sizes", sizes, "--seeds", "1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    def test_extreme_lambda_exits_three_without_numpy_noise(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the run
            code = run_cli(["rate-sweep", "--loss", "kulsif", "--sizes", "8", "--seeds", "1", "--grid", "1e-300:10:2"])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical error: non-finite risk integrand")

    def test_reports_theoretical_exponent(self, capsys):
        code = run_cli(
            [
                "rate-sweep",
                "--loss",
                "kulsif",
                "--sizes",
                "8,16",
                "--seeds",
                "2",
                "--grid",
                "1e-2:10:2",
                "--r",
                "0.5",
                "--capacity-alpha",
                "1",
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["theoretical_exponent"] == pytest.approx(2.0 / 3.0, rel=1e-12)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--r", "0.5"], "--r and --capacity-alpha must be given together"),
            (["--capacity-alpha", "1"], "--r and --capacity-alpha must be given together"),
            (["--r", "0.7", "--capacity-alpha", "1"], "r must lie in (0, 1/2], got 0.7"),
            (["--r", "0.5", "--capacity-alpha", "inf"], "capacity_alpha must be finite and >= 1, got inf"),
        ],
    )
    def test_bad_exponent_flags_exit_two_before_any_fit(self, capsys, monkeypatch, flags, message):
        started = []
        monkeypatch.setattr(cli, "run_rate_sweep", lambda *args, **kwargs: started.append(args))
        assert run_cli(["rate-sweep", "--loss", "kulsif", "--sizes", "8", "--seeds", "1", *flags]) == 2
        assert started == []
        assert capsys.readouterr() == ("", f"error: {message}\n")


def run_quiet(args):
    """Run the CLI with every warning as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run_cli(args)


SYNTH = ["--synthetic", "--m", "20", "--n", "20"]
HUGE = "1" + "0" * 400  # a JSON integer beyond the float range


@pytest.mark.parametrize(
    "argv, code, stream, start",
    [
        (["--help"], 0, "stdout", "usage: kernelratio "),
        (["rate-sweep", "--loss", "kulsif", "--sizes", "1"], 2, "stderr", "error: each size must be at least 2"),
    ],
    ids=["help", "input error"],
)
def test_the_module_runs_as_a_script_with_main_s_exit_code(argv, code, stream, start):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-m", "kernelratio.cli", *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == code
    assert getattr(result, stream).startswith(start)


def flag_action(command, flag):
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    (action,) = [a for a in commands.choices[command]._actions if flag in a.option_strings]
    return action


def test_every_rule_surface_offers_exactly_the_selection_rules():
    rules = [rule.value for rule in SelectionRule]
    for command, flag in (("select", "--rule"), ("rate-sweep", "--selection")):
        action = flag_action(command, flag)
        assert action.choices == rules
        assert action.default == ExperimentConfig.rule.value
    assert [ExperimentConfig.from_dict({"rule": rule}).rule.value for rule in rules] == rules
    with pytest.raises(InputError) as excinfo:
        ExperimentConfig.from_dict({"rule": "known-norm"})
    assert str(excinfo.value).endswith("rule must be " + " or ".join(f'"{rule}"' for rule in rules) + ", got 'known-norm'")


class TestOutOfRangeInput:
    @pytest.mark.parametrize(
        "args",
        [
            ["fit", *SYNTH, "--lambda", "1e-320"],
            ["select", *SYNTH, "--grid", "1e-320:10:2"],
            ["rate-sweep", "--sizes", "8", "--seeds", "1", "--grid", "1e-320:10:2"],
        ],
        ids=["fit", "select", "rate-sweep"],
    )
    def test_subnormal_lambda_exits_three_with_one_line(self, tmp_path, capsys, args):
        out = tmp_path / "m.json"
        extra = ["--out", str(out)] if args[0] == "fit" else []
        assert run_quiet(args + ["--loss", "kulsif"] + extra) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical error: ") and "not finite" in err[0]
        assert not out.exists()

    def test_tiny_normal_lambda_still_writes_the_model(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert run_quiet(["fit", *SYNTH, "--loss", "kulsif", "--lambda", "1e-300", "--out", str(out)]) == 3
        assert capsys.readouterr().err.splitlines() == ["fit did not converge (grad_norm=inf)"]
        assert all(map(np.isfinite, strict_json(out.read_text())["alpha"]))

    @pytest.mark.parametrize(
        "args, size",
        [
            (["rate-sweep", "--loss", "lr", "--sizes", "2000000", "--seeds", "1"], 2_000_000),
            (["select", "--synthetic", "--m", "3000000", "--n", "5", "--loss", "lr", "--grid", "1e-2:10:2"], 3_000_005),
            (["fit", "--synthetic", "--m", HUGE, "--n", "1", "--loss", "lr", "--lambda", "0.1", "--out", "m.json"], int(HUGE) + 1),
            (["experiment", "config.json"], 2_000_000),
            (["fit", "--p-csv", "p.csv", "--q-csv", "q.csv", "--loss", "lr", "--lambda", "0.1", "--out", "m.json"], 131_073),
        ],
        ids=["rate-sweep", "select", "fit-huge-m", "experiment", "fit-csv"],
    )
    def test_a_sample_over_the_point_bound_exits_two_naming_its_size_before_any_allocation(
        self, tmp_path, capsys, monkeypatch, args, size
    ):
        # Neither the sample nor its kernel matrix may be allocated: at sizes
        # like these numpy asks for terabytes.
        monkeypatch.chdir(tmp_path)

        def allocate(*args, **kwargs):
            pytest.fail("allocated the sample or its kernel matrix")

        monkeypatch.setattr(kernel, "cross_matrix", allocate)
        monkeypatch.setattr(np.random, "default_rng", allocate)
        config = {"sample_sizes": [[1_000_000, 1_000_000]], "seeds": [0], "output_dir": "out"}
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        (tmp_path / "p.csv").write_text("x_1\n" + "0.5\n" * 65_537, encoding="utf-8")
        (tmp_path / "q.csv").write_text("x_1\n" + "0.0\n" * 65_536, encoding="utf-8")
        assert run_quiet(args) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].endswith(f"a pooled sample of {size} points is over the limit of 131072")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["config.json", "p.csv", "q.csv"]

    @pytest.mark.parametrize("command", ["select", "experiment"])
    def test_a_grid_over_the_length_bound_exits_two_with_one_line_before_any_value_or_fit(
        self, tmp_path, capsys, monkeypatch, command
    ):
        # Listing 10^9 grid values alone takes minutes and tens of GB.
        monkeypatch.chdir(tmp_path)

        def build(*args, **kwargs):
            pytest.fail("built the grid's values or made a fit")

        monkeypatch.setattr(balancing.LambdaGrid, "values", property(build))
        monkeypatch.setattr(balancing, "fit", build)
        config = {"grid": {"lambda0": 1e-3, "xi": 1.000000001, "l": 10**9}, "output_dir": "out"}
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        args = {
            "select": ["select", *SYNTH, "--loss", "lr", "--grid", "1e-3:1.000000001:1000000000"],
            "experiment": ["experiment", "config.json"],
        }[command]
        assert run_quiet(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].endswith("a grid of 1000000000 values is over the limit of 1000"), err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("loss", ["kulsif", "lr", "exp", "sq"])
    @pytest.mark.parametrize("command", ["fit", "select"])
    def test_far_coordinates_run_without_warnings(self, tmp_path, capsys, command, loss):
        # Both coordinates of some pairs differ by about 2e200, whose square
        # overflows: their kernel value is the offset, 1.
        p, q = tmp_path / "p.csv", tmp_path / "q.csv"
        p.write_text("x_1,x_2\n1e200,-1e200\n-1e200,3\n", encoding="utf-8")
        q.write_text("x_1,x_2\n1e200,1\n-1e200,-1e200\n0.5,0\n", encoding="utf-8")
        extra = ["--lambda", "0.1", "--out", str(tmp_path / "m.json")] if command == "fit" else ["--grid", "1e-3:10:5"]
        assert run_quiet([command, "--p-csv", str(p), "--q-csv", str(q), "--loss", loss, *extra]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("bandwidth", ["1e200", "1e-170", "1e-162"])
    @pytest.mark.parametrize("command", ["fit", "select"])
    def test_bandwidth_out_of_range_exits_two_naming_it(self, tmp_path, capsys, command, bandwidth):
        extra = ["--lambda", "0.1", "--out", str(tmp_path / "m.json")] if command == "fit" else ["--grid", "1e-2:10:2"]
        code = run_quiet([command, *SYNTH, "--loss", "lr", "--bandwidth", bandwidth, *extra])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bandwidth must be a positive real with 2 * bandwidth**2 in the float range")

    @pytest.mark.parametrize("loss", ["kulsif", "lr"])
    def test_tiny_in_range_bandwidth_runs_without_warnings(self, capsys, loss):
        assert run_quiet(["select", *SYNTH, "--loss", loss, "--grid", "1e-2:10:2", "--bandwidth", "1e-160"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and float(captured.out) in (0.01, 0.1)

    def test_model_file_with_out_of_range_bandwidth_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        assert run_quiet(["fit", *SYNTH, "--loss", "kulsif", "--lambda", "0.1", "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        doc["bandwidth"] = 1e-170
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(InputError, match="bandwidth"):
            load_model(str(path))

    @pytest.mark.parametrize("command", ["fit", "select"])
    def test_negative_seed_exits_two(self, tmp_path, capsys, command):
        extra = ["--lambda", "0.1", "--out", str(tmp_path / "m.json")] if command == "fit" else ["--grid", "1e-2:10:2"]
        assert run_quiet([command, *SYNTH, "--loss", "kulsif", "--seed", "-1", *extra]) == 2
        assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"

    @pytest.mark.parametrize("max_iters", ["0", "-3"])
    @pytest.mark.parametrize("loss", ["lr", "kulsif"])  # CG and the closed form
    def test_max_iters_below_one_exits_two_before_writing(self, tmp_path, capsys, loss, max_iters):
        out = tmp_path / "m.json"
        args = ["fit", *SYNTH, "--loss", loss, "--lambda", "0.1", "--max-iters", max_iters, "--out", str(out)]
        assert run_quiet(args) == 2
        assert capsys.readouterr().err == f"error: max_iters must be at least 1, got {max_iters}\n"
        assert not out.exists()

    def test_closed_form_method_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["fit", *SYNTH, "--loss", "kulsif", "--lambda", "0.1", "--method", "closed_form", "--out", str(tmp_path / "m.json")])
        assert excinfo.value.code == 2
        assert "invalid choice: 'closed_form'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, names",
        [
            ('{"seed": [0]}', "unknown key 'seed' in the config"),
            ('{"pair": {"mu": 1.0}}', "unknown key 'mu' in pair"),
            ('{"grid": {"lambda0": 1e-3, "xi": 10.0, "l": 3, "values": [1]}}', "unknown key 'values' in grid"),
            ('{"kernel": {"sigma": 2.0}}', "unknown key 'sigma' in kernel"),
            ('{"consts": {"b1": 3}}', "unknown key 'b1' in consts"),
            ('{"grid": {"lambda0": 1e-3, "xi": 10.0, "l": 2.9}}', "grid.l must hold JSON integers, got 2.9"),
            ('{"seeds": [1.7]}', "seeds must hold JSON integers, got 1.7"),
            ('{"seeds": [true]}', "seeds must hold JSON integers, got True"),
            ('{"sample_sizes": [[3, 3.0]]}', "sample_sizes must hold JSON integers, got 3.0"),
            ('{"seeds": [0, -1]}', "seeds must be nonnegative, got -1"),
            ('{"sample_sizes": []}', "sample_sizes must be nonempty"),
            ('{"kernel": {"bandwidth": 1e-170}}', "bandwidth must be a positive real with 2 * bandwidth**2"),
            ('{"output_dir": null}', "output_dir must be a JSON string, got None"),
            ('{"output_dir": 5}', "output_dir must be a JSON string, got 5"),
            ('{"losses": "kulsif"}', "losses must be a JSON list, got 'kulsif'"),
            ('{"rule": "known-norm"}', 'rule must be "mj" or "eta-s", got \'known-norm\''),
            # A repeated entry would run the same cells again.
            ('{"losses": ["kulsif", "kulsif"], "sample_sizes": [[3, 3], [3, 3]], "seeds": [0, 0]}',
             'losses entry "kulsif" is given more than once'),
            ('{"sample_sizes": [[3, 3], [10, 10], [3, 3]]}', "sample_sizes entry [3, 3] is given more than once"),
            ('{"seeds": [0, 1, 0]}', "seeds entry 0 is given more than once"),
            # A boolean is not read as 1.0, and a non-number fails naming its field.
            ('{"grid": {"lambda0": true, "xi": 10, "l": 5}}', "grid.lambda0 must be a JSON number, got True"),
            ('{"grid": {"lambda0": 1e-3, "xi": false, "l": 5}}', "grid.xi must be a JSON number, got False"),
            ('{"kernel": {"bandwidth": true}}', "kernel.bandwidth must be a JSON number, got True"),
            ('{"pair": {"mu_p": true}}', "pair.mu_p must be a JSON number, got True"),
            ('{"consts": {"delta": true}}', "consts.delta must be a JSON number, got True"),
            ('{"grid": {"lambda0": "x", "xi": 10, "l": 5}}', "grid.lambda0 must be a JSON number, got 'x'"),
            ('{"kernel": {"bandwidth": "wide"}}', "kernel.bandwidth must be a JSON number, got 'wide'"),
            ('{"consts": {"delta": null}}', "consts.delta must be a JSON number, got None"),
            ('{"seeds": 5}', "seeds must be a JSON list, got 5"),
            ('{"sample_sizes": 7}', "sample_sizes must be a JSON list, got 7"),
            ('{"sample_sizes": [[1, 2, 3]]}', "sample_sizes must hold [m, n] pairs, got [1, 2, 3]"),
            ('{"losses": ["kulsif", 3]}', 'losses entry must be "kulsif" or "lr" or "exp" or "sq", got 3'),
            ('{"kernel": {"family": "wide"}}', 'kernel.family must be "one_plus_gaussian" or "gaussian", got \'wide\''),
            # An integer JSON reads exactly but float() cannot hold.
            (f'{{"grid": {{"lambda0": {HUGE}, "xi": 10, "l": 5}}}}', "grid.lambda0 is an integer too large for a float"),
            (f'{{"grid": {{"lambda0": 1e-3, "xi": {HUGE}, "l": 5}}}}', "grid.xi is an integer too large for a float"),
            (f'{{"kernel": {{"bandwidth": {HUGE}}}}}', "kernel.bandwidth is an integer too large for a float"),
            (f'{{"consts": {{"q0": {HUGE}}}}}', "consts.q0 is an integer too large for a float"),
            (f'{{"pair": {{"mu_p": -{HUGE}}}}}', "pair.mu_p is an integer too large for a float"),
        ],
    )
    def test_config_reads_only_what_it_writes(self, tmp_path, capsys, monkeypatch, content, names):
        monkeypatch.chdir(tmp_path)  # where a relative output_dir would land
        config_path = tmp_path / "config.json"
        config_path.write_text(content, encoding="utf-8")
        assert run_quiet(["experiment", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config_path}: malformed experiment config: {names}")
        assert err.count("malformed experiment config") == 1


class TestUnwritableOutput:
    @staticmethod
    def _record_fits(monkeypatch):
        """Stand-ins for every entry into the fits that record their calls."""
        started = []
        for name in ("fit", "select_lambda", "run_rate_sweep", "run_experiment"):
            monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: started.append(name))
        return started

    @pytest.mark.parametrize("command", ["fit", "select", "rate-sweep", "experiment"])
    def test_exits_two_naming_the_path(self, tmp_path, capsys, monkeypatch, command):
        started = self._record_fits(monkeypatch)
        (tmp_path / "a_file").write_text("", encoding="utf-8")
        missing = tmp_path / "missing"
        if command == "fit":
            path = missing / "dir" / "m.json"
            args = ["fit", *SYNTH, "--loss", "kulsif", "--lambda", "0.1", "--out", str(path)]
        elif command == "select":
            path = missing / "s.json"
            args = ["select", *SYNTH, "--loss", "kulsif", "--grid", "1e-2:10:2", "--out", str(path)]
        elif command == "rate-sweep":
            path = missing / "r.csv"
            args = ["rate-sweep", "--loss", "kulsif", "--sizes", "8", "--seeds", "1", "--grid", "1e-2:10:2"]
            args += ["--out-csv", str(path)]
        else:
            path = tmp_path / "a_file" / "out" / "report.json"
            config = {"losses": ["kulsif"], "sample_sizes": [[3, 3]], "seeds": [0], "output_dir": str(path.parent)}
            config_path = tmp_path / "config.json"
            config_path.write_text(json.dumps(config), encoding="utf-8")
            args = ["experiment", str(config_path)]
        assert run_quiet(args) == 2
        assert started == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot write {path}: ")
        assert not missing.exists()

    @pytest.mark.parametrize("command", ["fit", "select", "rate-sweep"])
    def test_a_directory_as_the_output_file_exits_two_before_any_fit(self, tmp_path, capsys, monkeypatch, command):
        started = self._record_fits(monkeypatch)
        flag = "--out-csv" if command == "rate-sweep" else "--out"
        args = {
            "fit": ["fit", *SYNTH, "--loss", "exp", "--lambda", "1e-3"],
            "select": ["select", *SYNTH, "--loss", "lr", "--grid", "1e-3:10:5"],
            "rate-sweep": ["rate-sweep", "--loss", "kulsif", "--sizes", "250,500,1000", "--seeds", "3"],
        }[command]
        assert run_quiet([*args, flag, str(tmp_path)]) == 2
        assert started == []
        assert capsys.readouterr() == ("", f"error: cannot write {tmp_path}: it is not a writable file\n")
        assert list(tmp_path.iterdir()) == []

    def test_experiment_with_a_directory_as_results_csv_exits_two_before_any_fit(self, tmp_path, capsys, monkeypatch):
        started = self._record_fits(monkeypatch)
        csv_path = tmp_path / "od" / "results.csv"
        csv_path.mkdir(parents=True)
        config = {"losses": ["kulsif"], "sample_sizes": [[3, 3]], "seeds": [0], "output_dir": str(csv_path.parent)}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert run_quiet(["experiment", str(config_path)]) == 2
        assert started == []
        assert capsys.readouterr() == ("", f"error: cannot write {csv_path}: it is not a writable file\n")
        assert list(csv_path.parent.iterdir()) == [csv_path]  # no report.json

    @pytest.mark.parametrize("command", ["fit", "select", "rate-sweep"])
    def test_an_empty_output_path_exits_two_before_any_fit(self, tmp_path, capsys, monkeypatch, command):
        started = self._record_fits(monkeypatch)
        monkeypatch.chdir(tmp_path)  # where a write to the empty path's directory would land
        args = {
            "fit": ["fit", *SYNTH, "--loss", "exp", "--lambda", "1e-3", "--out", ""],
            "select": ["select", *SYNTH, "--loss", "lr", "--grid", "1e-3:10:5", "--out", ""],
            "rate-sweep": ["rate-sweep", "--loss", "kulsif", "--sizes", "8", "--seeds", "1", "--out-csv", ""],
        }[command]
        assert run_quiet(args) == 2
        assert started == []
        assert capsys.readouterr() == ("", "error: cannot write : the path is empty\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["fit", "select"])
    @pytest.mark.parametrize("csv_flags", [["--p-csv", "--q-csv"], ["--p-csv"], ["--q-csv"]])
    def test_synthetic_with_a_csv_flag_exits_two_before_any_fit(self, tmp_path, capsys, monkeypatch, command, csv_flags):
        started = self._record_fits(monkeypatch)
        out = tmp_path / "out.json"
        args = {
            "fit": ["fit", *SYNTH, "--loss", "kulsif", "--lambda", "0.1", "--out", str(out)],
            "select": ["select", *SYNTH, "--loss", "kulsif", "--grid", "1e-2:10:2", "--out", str(out)],
        }[command]
        paths = {"--p-csv": str(tmp_path / "missing.csv"), "--q-csv": ""}  # an empty path is still given
        for flag in csv_flags:
            args += [flag, paths[flag]]
        assert run_quiet(args) == 2
        assert started == []
        message = f"error: --synthetic samples its own data; it cannot be given with {csv_flags[0]}\n"
        assert capsys.readouterr() == ("", message)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["fit", "select"])
    @pytest.mark.parametrize("flag", ["--m", "--n", "--seed", "--mu-p", "--sigma-p", "--mu-q", "--sigma-q"])
    def test_a_synthetic_only_flag_with_csv_data_exits_two_before_any_fit(
        self, tmp_path, capsys, monkeypatch, command, flag
    ):
        started = self._record_fits(monkeypatch)
        p, q = csv_pair(tmp_path)
        out = tmp_path / "out.json"
        args = {
            "fit": ["fit", "--loss", "lr", "--lambda", "0.1", "--out", str(out)],
            "select": ["select", "--loss", "lr", "--grid", "1e-2:10:2", "--out", str(out)],
        }[command]
        assert run_quiet([*args, "--p-csv", p, "--q-csv", q, flag, "5"]) == 2
        assert started == []
        message = f"error: {flag} applies only to --synthetic data; it cannot be given with --p-csv and --q-csv\n"
        assert capsys.readouterr() == ("", message)
        assert sorted(path.name for path in tmp_path.iterdir()) == ["p.csv", "q.csv"]

    @pytest.mark.parametrize("command", ["fit", "select", "rate-sweep"])
    def test_a_dangling_symlink_as_the_output_file_exits_two_before_any_fit(
        self, tmp_path, capsys, monkeypatch, command
    ):
        # open() would write through the link, into a directory that does not exist.
        started = self._record_fits(monkeypatch)
        link = tmp_path / "out.json"
        link.symlink_to(tmp_path / "missing_dir" / "m.json")
        flag = "--out-csv" if command == "rate-sweep" else "--out"
        args = {
            "fit": ["fit", *SYNTH, "--loss", "exp", "--lambda", "1e-3"],
            "select": ["select", *SYNTH, "--loss", "lr", "--grid", "1e-3:10:5"],
            "rate-sweep": ["rate-sweep", "--loss", "kulsif", "--sizes", "8", "--seeds", "1"],
        }[command]
        assert run_quiet([*args, flag, str(link)]) == 2
        assert started == []
        message = f"error: cannot write {link}: {tmp_path / 'missing_dir'} is not a writable directory\n"
        assert capsys.readouterr() == ("", message)
        assert list(tmp_path.iterdir()) == [link]

    @pytest.mark.parametrize("blocker", ["regular file", "dangling symlink"])
    def test_experiment_under_a_non_directory_exits_two_before_any_fit(self, tmp_path, capsys, monkeypatch, blocker):
        # The default config: 1500 fits, had they run before the check.
        started = []
        monkeypatch.setattr(cli, "run_experiment", lambda config: started.append(config))
        if blocker == "regular file":
            (tmp_path / "blocker").write_text("kept", encoding="utf-8")
        else:
            (tmp_path / "blocker").symlink_to(tmp_path / "nowhere")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"output_dir": str(tmp_path / "blocker" / "out")}), encoding="utf-8")
        assert run_quiet(["experiment", str(config_path)]) == 2
        assert started == []
        err = capsys.readouterr().err
        assert err == f"error: cannot write {tmp_path / 'blocker' / 'out' / 'report.json'}: {tmp_path / 'blocker'} is not a writable directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "config.json"]
        if blocker == "regular file":
            assert (tmp_path / "blocker").read_text(encoding="utf-8") == "kept"
        else:
            assert not (tmp_path / "nowhere").exists()


def run_contract(args):
    """Run the CLI quietly and check the file boundary's contract.

    The exit code is 0, 2 or 3, no exception or warning escapes, and a
    failure says why in exactly one stderr line.
    """
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run_quiet(args)
    assert code in (0, 2, 3)
    if code:
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()


# Small integers keep a valid mutant cheap to run; the huge ones are over the point bound.
_CONFIG_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.floats()
    | st.integers(-2, 4)
    | st.sampled_from([131_073, 10**6, 10**400, "exp", "lr", "eta-s", "gaussian"])
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=2),
    max_leaves=6,
)
_SMALL_CONFIG = {
    "losses": ["kulsif"],
    "grid": {"lambda0": 1e-3, "xi": 10.0, "l": 2},
    "sample_sizes": [[3, 3]],
    "seeds": [0],
}


@st.composite
def _configs(draw):
    """A small valid experiment config with one section, or one value in it, replaced."""
    doc = {**ExperimentConfig().to_dict(), **_SMALL_CONFIG}
    section = draw(st.sampled_from(sorted(key for key in doc if key != "output_dir")))
    if isinstance(doc[section], dict) and draw(st.booleans()):
        doc[section] = {**doc[section], draw(st.sampled_from(sorted(doc[section]))): draw(_CONFIG_VALUES)}
    else:
        doc[section] = draw(_CONFIG_VALUES)
    return doc


@settings(max_examples=40)
@given(doc=_configs())
def test_fuzzed_experiment_configs_keep_the_exit_contract(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**doc, "output_dir": os.path.join(tmp, "out")}, fh)
        run_contract(["experiment", path])


_CSV_CELLS = st.sampled_from(["0", "1e200", "-1e200", "1.7976931348623157e308", "-1e308", "5e-324"]) | st.floats(
    allow_nan=False, allow_infinity=False
).map(repr)
_CSV_JUNK = st.text(st.sampled_from(list('x_12,"\n\r .e-\x00é ')), max_size=12)


@st.composite
def _csv_texts(draw, d):
    """A valid d-column CSV file of far and near coordinates, with maybe one line replaced by junk."""
    lines = [",".join(f"x_{i + 1}" for i in range(d))]
    for _ in range(draw(st.integers(0, 3))):
        lines.append(",".join(draw(st.lists(_CSV_CELLS, min_size=d, max_size=d))))
    if draw(st.integers(0, 2)) == 0:
        lines[draw(st.integers(0, len(lines) - 1))] = draw(_CSV_JUNK)
    return "\n".join(lines) + "\n"


@settings(max_examples=40)
@given(
    texts=st.integers(1, 2).flatmap(lambda d: st.tuples(_csv_texts(d), _csv_texts(d))),
    loss=st.sampled_from([family.value for family in LossFamily]),
)
def test_fuzzed_csv_files_keep_the_exit_contract_through_fit_and_select(texts, loss):
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, "p.csv"), os.path.join(tmp, "q.csv")]
        for path, text in zip(paths, texts):
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        data = ["--p-csv", paths[0], "--q-csv", paths[1], "--loss", loss]
        run_contract(["fit", *data, "--lambda", "0.1", "--out", os.path.join(tmp, "m.json")])
        run_contract(["select", *data, "--grid", "1e-2:10:2"])
