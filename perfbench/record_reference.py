#!/usr/bin/env python3
"""Record the reference tables that the correctness checks compare against.

    python3 perfbench/record_reference.py

Runs the default-experiment and rate-sweep-kulsif workloads once, with
the benchmark's BLAS setting, and writes perfbench/reference/<workload>.json.
The tables in the repository were recorded before any change to the
program, so a later change that alters the results shows as a failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import run


def main() -> int:
    for var in run.BLAS_ENV:
        os.environ[var] = str(run.BLAS_THREADS)
    sys.path.insert(0, str(run.SRC))
    import workloads as wl

    out_dir = Path(wl.REFERENCE_DIR)
    out_dir.mkdir(exist_ok=True)
    workdir = run.ROOT / ".perfbench_out" / f"reference-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        exp = wl.DefaultExperiment(0, workdir)
        result = exp.run_pass(0)
        if not result.ok:
            print(result.detail, file=sys.stderr)
            return 1
        cells = [
            {
                "loss": c["loss"],
                "m": c["m"],
                "n": c["n"],
                "seed": c["seed"],
                "chosen_index": c["chosen_index"],
                "mse": c["mse"],
                "bregman_error": c["bregman_error"],
                "converged": [r["converged"] for r in c["fit_reports"]],
            }
            for c in json.loads(result.output)["cells"]
        ]
        doc = {"window": exp.window, "cells": cells}
        (out_dir / f"{exp.name}.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")

        sweep = wl.RateSweepKulsif(0, workdir)
        result = sweep.run_pass(0)
        if not result.ok:
            print(result.detail, file=sys.stderr)
            return 1
        doc = {"argv": sweep.argv(), "median_error": json.loads(result.output)["median_error"]}
        (out_dir / f"{sweep.name}.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
