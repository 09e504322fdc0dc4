"""Tests of the benchmark itself: span arithmetic, patching, traced runs.

    python -m pytest perfbench/tests -q
"""

import json
from pathlib import Path

import pytest

import workloads as wl
from kernelratio import balancing, kernel
from spans import Span, Tracer, aggregate, self_times

MANIFEST = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_times_on_synthetic_tree():
    #  root [0, 10] -> a [1, 4] -> a1 [2, 3]
    #               -> b [5, 9]
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("a1", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(spans)) == spans[0].duration


def test_aggregate_sums_self_time_calls_and_counts_per_name():
    spans = [
        Span("cli", 0.0, 10.0, None),
        Span("kernel.cross", 1.0, 3.0, 0, {"entries": 6}),
        Span("kernel.gram", 4.0, 8.0, 0, {"bytes": 32}),
        Span("kernel.cross", 5.0, 6.0, 2, {"entries": 4}),
    ]
    agg = aggregate(spans)
    assert agg["cli"] == {"calls": 1, "self_s": 4.0, "counts": {}}
    assert agg["kernel.gram"] == {"calls": 1, "self_s": 3.0, "counts": {"bytes": 32}}
    assert agg["kernel.cross"] == {"calls": 2, "self_s": 3.0, "counts": {"entries": 10}}


def test_tracer_nests_spans_and_marks_raised_calls():
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0]))

    def boom():
        raise ValueError("x")

    wrapped = tracer.wrap("inner", boom)
    with tracer.span("outer"):
        with pytest.raises(ValueError):
            wrapped()
        with tracer.span("sibling"):
            pass
    outer, inner, sibling = tracer.spans
    assert (inner.parent, sibling.parent, outer.parent) == (0, 0, None)
    assert inner.counts == {"raised": 1}
    assert self_times(tracer.spans) == [3.0, 1.0, 1.0]


def test_patch_wraps_imported_names_and_restores_them():
    original = kernel.gram_matrix
    assert balancing.gram_matrix is original
    tracer = Tracer()
    with tracer.patch([(kernel, "gram_matrix", "kernel.gram", lambda a, k, r: {"bytes": 8 * r.n * r.n})]):
        assert balancing.gram_matrix is kernel.gram_matrix is not original
        balancing.gram_matrix(kernel.KernelSpec(), [0.0, 1.0, 2.0])
    assert kernel.gram_matrix is original and balancing.gram_matrix is original
    (span,) = tracer.spans
    assert span.name == "kernel.gram" and span.counts == {"bytes": 72}


def test_manifest_names_every_metric_the_code_reports():
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert [m["name"] for m in manifest["end_to_end"]] == list(wl.END_TO_END)
    assert [m["name"] for m in manifest["per_layer"]] == list(wl.PER_LAYER)
    assert set(manifest["paths"]) == {"perfbench"}
    extras = {"top2_rate": 0.0, "predict_points_per_s": 0.0}
    walls = {"traced": 1.0, "untraced": 1.0}
    assert list(wl.per_layer_metrics([], 1, walls, extras)) == list(wl.PER_LAYER)
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in manifest["end_to_end"])


def _cell(chosen, mse, converged):
    return {"loss": "exp", "m": 10, "n": 10, "seed": 0, "chosen_index": chosen,
            "mse": mse, "bregman_error": mse, "converged": converged}


def test_compare_cells_skips_only_what_an_unconverged_reference_cannot_judge():
    ref = [_cell(2, [1.0, 2.0], [False, True])]
    # The unconverged reference fit's value and the cell's choice may move.
    assert wl._compare_cells([_cell(1, [5.0, 2.0], [True, True])], ref).ok
    # A converged reference fit's value may not.
    assert not wl._compare_cells([_cell(2, [1.0, 2.1], [True, True])], ref).ok
    full = [_cell(2, [1.0, 2.0], [True, True])]
    assert not wl._compare_cells([_cell(1, [1.0, 2.0], [True, True])], full).ok
    assert wl._compare_cells([_cell(2, [1.0, 2.0 + 1e-9], [True, True])], full).ok


class SmallExperiment(wl.DefaultExperiment):
    window = 1


class SmallSweep(wl.RateSweepKulsif):
    sizes = (20, 40)
    data_seeds = 1


class SmallCsv(wl.CsvSelectPredict):
    inputs = traced_inputs = 2
    m = n = 30
    queries = 200


@pytest.mark.parametrize("cls", [SmallExperiment, SmallSweep, SmallCsv])
def test_traced_outputs_match_untraced_bit_for_bit(cls, tmp_path):
    workload = cls(seed=5, workdir=tmp_path)
    untraced, traced, spans = wl.run_traced(workload, seconds=0.0)
    assert len(untraced) == len(traced) == workload.traced_inputs
    assert all(p.ok for p in untraced + traced), [p.detail for p in untraced + traced]
    assert all(a.output == b.output and a.output for a, b in zip(untraced, traced))
    assert wl.traced_vs_untraced(untraced, traced).ok
    metrics = wl.per_layer_metrics(spans, len(traced), {"traced": 1.0, "untraced": 1.0},
                                   {"top2_rate": 0.0, "predict_points_per_s": 0.0})
    assert metrics["kernel.gram_calls"] >= 1 and metrics["cli.self_s"] > 0.0
    family = "lr" if cls is SmallCsv else "kulsif"
    assert metrics[f"solver.fits.{family}"] >= 5


def test_csv_library_check_picks_an_input_the_traced_run_covered(tmp_path):
    class Csv(SmallCsv):
        inputs = 4
        traced_inputs = 2

    workload = Csv(seed=3, workdir=tmp_path)  # 3 % inputs is an input left untraced
    untraced, traced, _ = wl.run_traced(workload, seconds=0.0)
    checks = workload.checks(untraced + traced)
    assert all(c.ok for c in checks), [(c.name, c.detail) for c in checks if not c.ok]
    assert any(c.name == "input 1 matches the library path" for c in checks)
