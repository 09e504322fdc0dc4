import json

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
