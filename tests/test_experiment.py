import numpy as np
import pytest

from kernelratio import InputError, LossFamily, OracleContext, gram_matrix, sample_pair
from kernelratio.balancing import LambdaGrid, SelectionRule, fit_grid
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
    for row in rows[1:]:
        loss, m, n, seed, lam, mse, chosen = row.split(",")
        key = (loss, m, n, seed)
        chosen_per_cell[key] = chosen_per_cell.get(key, 0) + int(chosen)
    assert all(count == 1 for count in chosen_per_cell.values())


def test_config_round_trip(tiny_report):
    config, _ = tiny_report
    doc = config.to_dict()
    again = ExperimentConfig.from_dict(doc)
    assert again.losses == config.losses
    assert again.seeds == config.seeds
    np.testing.assert_allclose(again.grid.values, config.grid.values)


def test_config_validation():
    with pytest.raises(InputError):
        ExperimentConfig(losses=())
    with pytest.raises(InputError):
        ExperimentConfig(sample_sizes=((3, 0),))
    with pytest.raises(InputError):
        ExperimentConfig(seeds=())


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
