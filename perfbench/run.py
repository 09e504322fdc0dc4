#!/usr/bin/env python3
"""kernelratio benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload default-experiment --seed 0 --seconds 20 --trace 0

Run from the repository root.  It imports kernelratio from ./src, so
nothing needs installing.  Passes of the workload repeat until --seconds
have passed (and at least the workload's minimum).  With --trace 0 the
result holds the end-to-end metrics of BENCHMARK.json; with --trace 1 it
alternates untraced and traced passes and holds the per-layer metrics.
Earlier stdout lines name every metric with its unit, the machine, and
each correctness check.  The exit code is 0 only when every pass ran
cleanly and every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: One BLAS thread: outputs are then bit-identical on any core count, and
#: a single-threaded load is the steadiest on a shared host.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 11

# Timed in a fresh interpreter: import, then the oracle set-up that
# `kernelratio experiment` and `rate-sweep` do before their first fit.
SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from kernelratio.data import DEFAULT_PAIR
from kernelratio.losses import LossFamily
from kernelratio.oracle import OracleContext, bayes_risk
if len(sys.argv) > 2:
    ctx = OracleContext.default(DEFAULT_PAIR)
    for family in sys.argv[2:]:
        bayes_risk(ctx, LossFamily(family))
print(repr(time.perf_counter() - start))
"""


def blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if one is loaded."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                func.argtypes = []
                return int(func())
    return None


def machine_record() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "blas_threads_requested": BLAS_THREADS,
    }


def measure_setup(families: tuple[str, ...]) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), *families],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description="kernelratio benchmark (one workload, one run)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kernelratio" / "__init__.py").is_file():
        print(f"perfbench: kernelratio sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    import kernelratio
    import workloads as wl

    if Path(kernelratio.__file__).resolve().parent != SRC / "kernelratio":
        print(f"perfbench: imported kernelratio from {kernelratio.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2

    machine = machine_record()
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("machine " + json.dumps(machine, sort_keys=True))

    workdir = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = wl.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            untraced, traced, spans = wl.run_traced(workload, args.seconds)
            passes = untraced + traced
        else:
            setup = measure_setup(workload.setup_families)
            passes = wl.run_untraced(workload, args.seconds)
            rss = peak_rss_mb()
        failed_passes = [p for p in passes if not p.ok]
        checks = workload.checks(passes) if len(failed_passes) < len(passes) else []
        if args.trace:
            checks.append(wl.traced_vs_untraced(untraced, traced))
        clean = [p for p in passes if p.ok]
        if args.trace:
            walls = {
                "traced": statistics.fmean(p.wall_s for p in traced),
                "untraced": statistics.fmean(p.wall_s for p in untraced),
            }
            extras = {
                "top2_rate": workload.top2_rate(clean) if clean else 0.0,
                "predict_points_per_s": wl.predict_points_per_s(workload, traced),
            }
            values = wl.per_layer_metrics(spans, len(traced), walls, extras)
        else:
            values = {
                "wall_s": statistics.median(p.wall_s for p in passes),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": rss,
                "divergence_at_chosen": workload.divergence_at_chosen(clean) if clean else 0.0,
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            workdir.parent.rmdir()

    units = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in units[key]}
    for p in failed_passes:
        print(f"FAILED pass {p.input_index}: {p.detail}")
    for check in checks:
        print(f"check {'PASS' if check.ok else 'FAIL'} {check.name} {check.detail}".rstrip())
    print(f"passes {len(passes)} walls_s " + " ".join(f"{p.wall_s:.4f}" for p in passes) + f" outputs {wl.digest(passes)}")
    if not args.trace:
        print("setup_s runs " + " ".join(f"{t:.4f}" for t in setup))
    for name, value in values.items():
        print(f"metric {name} {value!r} {units[name]}")

    failed = len(failed_passes) + sum(not c.ok for c in checks)
    result = {
        "correct": failed == 0,
        "attempted": len(passes) + len(checks),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
