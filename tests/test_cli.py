import json
import warnings

import pytest

from kernelratio.cli import main


def run_cli(args):
    return main(args)


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

    def test_unconverged_fits_are_named_on_stderr(self, tmp_path, capsys):
        out = tmp_path / "selection.json"
        code = run_cli(
            ["select", "--loss", "exp", "--synthetic", "--m", "10", "--n", "10", "--seed", "0"]
            + ["--grid", "1e-12:10:3", "--out", str(out)]
        )
        assert code == 0  # a lambda is still chosen
        err = capsys.readouterr().err.splitlines()
        report = json.loads(out.read_text())
        unconverged = [e["lambda"] for e in report["per_lambda"] if not e["fit"]["converged"]]
        assert len(unconverged) == 3
        assert len(err) == 1 and "did not converge" in err[0]
        assert all(repr(lam) in err[0] for lam in unconverged)

    def test_malformed_grid(self, capsys):
        code = run_cli(
            ["select", "--synthetic", "--loss", "exp", "--grid", "nope"]
        )
        assert code == 2
        capsys.readouterr()


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

    def test_stdout_summarizes_top2_rate_and_unconverged_fits(self, tmp_path, capsys):
        config = self._config(tmp_path)
        config.update(
            losses=["exp"], grid={"lambda0": 1e-13, "xi": 10.0, "l": 3}, sample_sizes=[[10, 10]], seeds=[0]
        )
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert run_cli(["experiment", str(config_path)]) == 0
        captured = capsys.readouterr()
        summary = json.loads(captured.out)
        # The overflowing squared errors warn neither on stderr nor at all.
        assert "RuntimeWarning" not in captured.err
        assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]

        def reject(constant):
            raise ValueError(f"report.json holds {constant}, which strict JSON rejects")

        (cell,) = json.loads(open(summary["report"]).read(), parse_constant=reject)["cells"]
        assert summary["unconverged_fits"] == 3
        assert not any(report["converged"] for report in cell["fit_reports"])
        # Every fit diverged to an infinite MSE: null in the report, inf in
        # the CSV, and the choice ranks last, so it is no top-2 hit.
        assert cell["mse"] == [None, None, None]
        assert cell["chosen_rank_by_mse"] == 3
        assert summary["top2_rate"] == [{"loss": "exp", "m": 10, "n": 10, "rate": 0.0}]
        csv_mses = [line.split(",")[5] for line in open(summary["csv"]).read().splitlines()[1:]]
        assert csv_mses == ["inf", "inf", "inf"]

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

    def test_invalid_config_exits_two(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text('{"losses": []}', encoding="utf-8")
        assert run_cli(["experiment", str(config_path)]) == 2
        capsys.readouterr()


class TestRateSweep:
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
        summary = json.loads(capsys.readouterr().out)
        assert summary["slope"] is None
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "N,median_error"
        assert len(lines) == 2

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
