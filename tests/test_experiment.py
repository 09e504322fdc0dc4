import functools
import json
import os
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelratio import (
    BoundConstants,
    GaussianPairSpec,
    InputError,
    KernelFamily,
    KernelSpec,
    LossFamily,
    OracleContext,
    gram_matrix,
    sample_pair,
)
from kernelratio import cli, experiment, solver
from kernelratio.balancing import LambdaGrid, SelectionRule, fit_grid
from kernelratio.errors import NumericalError
from kernelratio.experiment import (
    ExperimentConfig,
    _mse_rank,
    report_to_csv_rows,
    run_experiment,
    run_rate_sweep,
)
from kernelratio.oracle import bayes_risk, grid_mse, population_risk


@pytest.fixture(scope="module")
def tiny_report():
    config = ExperimentConfig(
        losses=(LossFamily.KULSIF, LossFamily.EXP),
        grid=LambdaGrid(lambda0=1e-3, xi=10.0, l=3),
        sample_sizes=((3, 3),),
        seeds=(0, 1),
        output_dir="unused",
    )
    return config, run_experiment(config)


def test_report_covers_all_cells(tiny_report):
    config, report = tiny_report
    assert len(report["cells"]) == 2 * 1 * 2
    for cell in report["cells"]:
        assert len(cell["mse"]) == config.grid.l
        assert len(cell["bregman_error"]) == config.grid.l
        assert cell["chosen_lambda"] in cell["lambdas"]
        assert 1 <= cell["chosen_rank_by_mse"] <= config.grid.l


def test_cell_scores_equal_per_model_oracle_calls_bitwise(tiny_report):
    config, report = tiny_report
    ctx = OracleContext.default(config.pair)
    for cell in report["cells"]:
        family = LossFamily(cell["loss"])
        dataset = sample_pair(config.pair, cell["m"], cell["n"], cell["seed"])
        gram = gram_matrix(config.kernel, dataset.xs)
        fits = fit_grid(family, config.kernel, dataset, config.grid, gram=gram)
        bayes = bayes_risk(ctx, family)
        assert cell["mse"] == [grid_mse(ctx, model) for model, _ in fits]
        assert cell["bregman_error"] == [2.0 * (population_risk(ctx, family, model) - bayes) for model, _ in fits]


def test_non_finite_chosen_mse_ranks_last():
    assert _mse_rank([float("inf")] * 3, 3) == 3
    assert _mse_rank([1.0, float("nan"), 0.5], 2) == 3
    assert _mse_rank([2.0, float("inf"), 0.5], 1) == 2


def test_cells_are_sorted(tiny_report):
    _, report = tiny_report
    keys = [(c["loss"], c["m"], c["n"], c["seed"]) for c in report["cells"]]
    assert keys == sorted(keys)


def test_csv_rows_are_long_format(tiny_report):
    config, report = tiny_report
    rows = report_to_csv_rows(report)
    assert rows[0] == "loss,m,n,seed,lambda,mse,chosen"
    assert len(rows) == 1 + len(report["cells"]) * config.grid.l
    chosen_per_cell = {}
    keys = []
    for row in rows[1:]:
        loss, m, n, seed, lam, mse, chosen = row.split(",")
        key = (loss, m, n, seed)
        chosen_per_cell[key] = chosen_per_cell.get(key, 0) + int(chosen)
        keys.append((loss, int(m), int(n), int(seed), float(lam)))
    assert all(count == 1 for count in chosen_per_cell.values())
    assert keys == sorted(keys)


def test_config_round_trip(tiny_report):
    config, _ = tiny_report
    doc = config.to_dict()
    again = ExperimentConfig.from_dict(doc)
    assert again.losses == config.losses
    assert again.seeds == config.seeds
    np.testing.assert_allclose(again.grid.values, config.grid.values)


def _positive(lo=1e-3, hi=1e3):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


CONFIGS = st.builds(
    ExperimentConfig,
    pair=st.builds(GaussianPairSpec, st.floats(-5.0, 5.0), _positive(0.2, 5.0), st.floats(-5.0, 5.0), _positive(0.2, 5.0)),
    losses=st.lists(st.sampled_from(LossFamily), min_size=1, max_size=4, unique=True).map(tuple),
    grid=st.builds(LambdaGrid, _positive(1e-12, 1.0), _positive(1.01, 100.0), st.integers(1, 8)),
    sample_sizes=st.lists(
        st.tuples(st.integers(0, 500), st.integers(1, 500)), min_size=1, max_size=3, unique=True
    ).map(tuple),
    seeds=st.lists(st.integers(0, 2**63), min_size=1, max_size=5, unique=True).map(tuple),
    rule=st.sampled_from(SelectionRule),
    kernel=st.builds(KernelSpec, st.sampled_from(KernelFamily), _positive(1e-100, 1e100)),
    output_dir=st.text(min_size=1, max_size=20),
    consts=st.builds(
        BoundConstants, delta=st.floats(1e-9, 0.999), q0=_positive(), capacity_alpha=_positive(1.0, 10.0)
    ),
)


@given(config=CONFIGS)
@settings(max_examples=200)
def test_config_from_dict_inverts_to_dict_through_json(config):
    assert ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config


def test_absent_config_keys_take_the_defaults():
    assert ExperimentConfig.from_dict({}) == ExperimentConfig()
    partial = ExperimentConfig.from_dict({"kernel": {"bandwidth": 2.0}, "consts": {"q0": 3.0}})
    assert partial.kernel == KernelSpec(bandwidth=2.0)
    assert partial.consts == BoundConstants(q0=3.0)


def test_config_validation():
    with pytest.raises(InputError):
        ExperimentConfig(losses=())
    with pytest.raises(InputError):
        ExperimentConfig(sample_sizes=((3, 0),))
    with pytest.raises(InputError):
        ExperimentConfig(seeds=())
    with pytest.raises(InputError, match="seeds must be nonnegative"):
        ExperimentConfig(seeds=(0, -1))


def test_rate_sweep_shape():
    result = run_rate_sweep(
        LossFamily.KULSIF,
        [16, 32],
        3,
        SelectionRule.PRACTICAL_MJ,
        grid=LambdaGrid(lambda0=1e-3, xi=10.0, l=3),
    )
    assert result["sizes"] == [16, 32]
    assert len(result["median_error"]) == 2
    assert result["slope"] is not None


def test_rate_sweep_validates_sizes():
    with pytest.raises(InputError):
        run_rate_sweep(LossFamily.KULSIF, [1], 2, SelectionRule.PRACTICAL_MJ)
    with pytest.raises(InputError, match="need at least one seed"):
        run_rate_sweep(LossFamily.KULSIF, [8], 0, SelectionRule.PRACTICAL_MJ)


class TestShares:
    """The datasets of an experiment and a rate sweep, run in forked shares."""

    GRID = LambdaGrid(lambda0=1e-3, xi=10.0, l=3)

    @staticmethod
    def _config(tmp_path, seeds, sample_sizes=((3, 3),)):
        return ExperimentConfig(
            losses=(LossFamily.KULSIF, LossFamily.EXP),
            grid=TestShares.GRID,
            sample_sizes=sample_sizes,
            seeds=seeds,
            output_dir=str(tmp_path / "out"),
        )

    @staticmethod
    def _no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_reports_csv_rows_and_rate_sweeps_equal_the_one_share_run(self, tmp_path, monkeypatch):
        config = self._config(tmp_path, (0, 1), ((3, 3), (5, 5)))
        outputs = []
        for shares in (1, 2, 3):
            monkeypatch.setattr(experiment, "_usable_cores", lambda shares=shares: shares)
            report = run_experiment(config)
            outputs.append((json.dumps(report), report_to_csv_rows(report)))
        # Every lr fit stops after two CG iterations, so the sweep lists unconverged fits.
        monkeypatch.setattr(solver, "FitOptions", functools.partial(solver.FitOptions, max_iters=2))
        sweeps = []
        for shares in (1, 2, 3):
            monkeypatch.setattr(experiment, "_usable_cores", lambda shares=shares: shares)
            sweeps.append(run_rate_sweep(LossFamily.LR, [8, 12], 3, SelectionRule.PRACTICAL_MJ, grid=self.GRID))
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
        assert sweeps[1] == sweeps[0] and sweeps[2] == sweeps[0]
        assert len(sweeps[0]["unconverged"]) == 2 * 3 * 3
        self._no_child_left()

    def test_the_error_is_the_serial_runs_whichever_share_meets_it(self, tmp_path, monkeypatch, capsys):
        # Dataset k (seed k) runs in share k.  Share 2's exp failure comes
        # before share 1's kulsif failure in report order, which lists exp first.
        def planted(config, family, m, n, seed, ctx, bayes):
            if (family, seed) == (LossFamily.EXP, 2):
                raise InputError("planted in share 2")
            if (family, seed) == (LossFamily.KULSIF, 1):
                raise NumericalError("planted in share 1")
            return {}

        monkeypatch.setattr(experiment, "run_cell", planted)
        config = self._config(tmp_path, (0, 1, 2))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config.to_dict()), encoding="utf-8")
        for shares in (1, 3):
            monkeypatch.setattr(experiment, "_usable_cores", lambda shares=shares: shares)
            with pytest.raises(InputError, match="^planted in share 2$"):
                run_experiment(config)
            assert cli.main(["experiment", str(config_path)]) == 2
            assert capsys.readouterr() == ("", "error: planted in share 2\n")
        self._no_child_left()

    def test_a_child_that_dies_is_named_and_reaped(self, tmp_path, monkeypatch):
        parent = os.getpid()

        def planted(config, family, m, n, seed, ctx, bayes):
            if seed == 1 and os.getpid() != parent:
                os._exit(1)
            return {"fit_reports": []}

        monkeypatch.setattr(experiment, "run_cell", planted)
        monkeypatch.setattr(experiment, "_usable_cores", lambda: 2)
        with pytest.raises(RuntimeError, match=r"^worker share 1 \(pid \d+\) ended without a result, exit code 1$"):
            run_experiment(self._config(tmp_path, (0, 1)))
        self._no_child_left()

    def test_an_unexpected_error_in_a_child_carries_its_traceback(self, tmp_path, monkeypatch):
        def planted(config, family, m, n, seed, ctx, bayes):
            if seed == 1:
                return {}["planted_in_a_child"]
            return {"fit_reports": []}

        monkeypatch.setattr(experiment, "run_cell", planted)
        monkeypatch.setattr(experiment, "_usable_cores", lambda: 2)
        with pytest.raises(KeyError, match="planted_in_a_child") as raised:
            run_experiment(self._config(tmp_path, (0, 1)))
        cause = str(raised.value.__cause__)
        assert cause.startswith("in a worker process:\nTraceback (most recent call last):")
        assert 'return {}["planted_in_a_child"]' in cause
        self._no_child_left()

    def test_ctrl_c_in_the_parents_share_kills_and_reaps_the_children(self, tmp_path, monkeypatch):
        parent = os.getpid()

        def planted(config, family, m, n, seed, ctx, bayes):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(10)
            return {"fit_reports": []}

        monkeypatch.setattr(experiment, "run_cell", planted)
        monkeypatch.setattr(experiment, "_usable_cores", lambda: 3)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_experiment(self._config(tmp_path, (0, 1, 2)))
        assert time.monotonic() - start < 5.0  # killed, not waited for
        self._no_child_left()

    def test_results_past_the_pipe_buffer_arrive_from_every_share(self, tmp_path, monkeypatch):
        # 100 kB per share: a child that held another child's write end open
        # would block on its own full pipe while the parent waited for EOF.
        def planted(config, family, m, n, seed, ctx, bayes):
            return {"fit_reports": [], "seed": seed, "pad": "x" * 100_000}

        def timeout(signum, frame):
            raise TimeoutError("the shares did not finish in 5 s")

        monkeypatch.setattr(experiment, "run_cell", planted)
        monkeypatch.setattr(experiment, "_usable_cores", lambda: 3)
        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(5)
        try:
            report = run_experiment(self._config(tmp_path, (0, 1, 2), ((3, 3),)))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert [cell["seed"] for cell in report["cells"]] == [0, 1, 2, 0, 1, 2]
        self._no_child_left()

    def test_a_share_whose_fork_fails_runs_in_the_parent(self, tmp_path, monkeypatch):
        config = self._config(tmp_path, (0, 1, 2))
        monkeypatch.setattr(experiment, "_usable_cores", lambda: 1)
        serial = json.dumps(run_experiment(config))
        forks = []

        def failing_fork():
            forks.append(1)
            raise OSError("planted: no more processes")

        monkeypatch.setattr(experiment, "_usable_cores", lambda: 3)
        monkeypatch.setattr(os, "fork", failing_fork)
        assert json.dumps(run_experiment(config)) == serial
        assert forks == [1, 1]
        self._no_child_left()

    @pytest.mark.parametrize("platform", ["one usable core", "no os.fork"])
    def test_one_share_forks_nothing(self, tmp_path, monkeypatch, platform):
        if platform == "one usable core":
            monkeypatch.setattr(experiment, "_usable_cores", lambda: 1)
            monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked a worker"))
        else:
            monkeypatch.setattr(experiment, "_usable_cores", lambda: 4)
            monkeypatch.delattr(os, "fork")
        report = run_experiment(self._config(tmp_path, (0, 1)))
        assert [(cell["loss"], cell["seed"]) for cell in report["cells"]] == [
            ("exp", 0), ("exp", 1), ("kulsif", 0), ("kulsif", 1)
        ]
        result = run_rate_sweep(LossFamily.KULSIF, [8, 12], 2, SelectionRule.PRACTICAL_MJ, grid=self.GRID)
        assert result["sizes"] == [8, 12]
