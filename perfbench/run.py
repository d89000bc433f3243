"""Benchmark of the sourceset package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from `src/`.
With --trace 0 the run prints every end-to-end metric; with --trace 1 it runs
the same passes once untraced and once with every public module function
wrapped (see tracer.py), and prints the per-module metrics. Human-readable
lines come first; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. See perfbench/README.md.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # setup_s counts the imports below

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "wall_s": "s",
    "trial_s": "s",
    "calibrate_s": "s",
    "crc_calibrate_s": "s",
    "predict_sets_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def blas_threads():
    """(library, threads) of the OpenBLAS numpy loaded, or (name, None)."""
    import ctypes

    import numpy as np

    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        name = "unknown"
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return name, fn()
    return name, None


def machine() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas, threads = blas_threads()
    return {"cpu": cpu, "nproc": usable_cpus(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": threads}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shape", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the smoke test")
    return parser.parse_args(argv)


def measure(workload, passes: int, ledger, check: bool = True) -> float:
    """Run the passes; return the seconds they took (checks excluded).

    With check=True the queued output checks run between passes, an even
    share after each, so the public calls they time span the whole run.
    """
    done = len(ledger.timings["pass"])
    for index in range(passes):
        workload.run_pass(index, ledger)
        if check:
            run_checks(workload, ledger, math.ceil(len(workload.pending) / (passes - index)))
    return sum(seconds for _, seconds, _ in ledger.timings["pass"][done:])


def run_checks(workload, ledger, count: int | None = None) -> None:
    while workload.pending and (count is None or count > 0):
        workload.pending.pop(0)(ledger)
        count = None if count is None else count - 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sourceset" / "__init__.py").is_file():
        print(f"error: no sourceset package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # one process, and no more BLAS/OpenMP threads than usable cores
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, str(usable_cpus()))
    sys.path.insert(0, str(SRC))

    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _STARTED

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.shape, workdir)
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(setups)

        passes = workloads.pass_count(args.seconds, workload.shape)
        ledger = workloads.Ledger()
        if args.trace:
            # same passes twice: untraced, then traced; the difference is the
            # tracing overhead
            half = max(1, passes // 2)
            untraced_s = measure(workload, half, ledger)
            run_checks(workload, ledger)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced_s = measure(workload, half, ledger, check=False)
            finally:
                tracer.remove()
            run_checks(workload, ledger)
            metrics = tracer.metrics(overhead_s=traced_s - untraced_s)
            units = tracing.METRICS
            shares = {m: s / traced_s for m, s in tracer.module_seconds().items()}
            print(f"traced {half} pass(es): {traced_s:.3f} s traced, "
                  f"{untraced_s:.3f} s untraced")
            print("module self-time shares: " + ", ".join(
                f"{m} {share:.1%}" for m, share in
                sorted(shares.items(), key=lambda item: -item[1])))
        else:
            measure(workload, passes, ledger)
            run_checks(workload, ledger)
            metrics = ledger.metrics()
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics["setup_s"] = setup_s
            units = END_TO_END_UNITS
            print(f"{passes} pass(es) over {workload.shape.units} distinct unit(s); "
                  "raw timings (median / p90 / count):")
            for metric, (median, p90, count) in ledger.plain().items():
                print(f"  {metric}: {median:.6g} s / {p90:.6g} s / {count}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    info = machine()
    print("machine: " + ", ".join(f"{k}={v}" for k, v in info.items()))
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} shape={args.shape}")
    for message in ledger.errors:
        print(f"FAILED: {message}")
    print(f"error_rate {ledger.failed / max(ledger.attempted, 1):.6g} "
          f"({ledger.failed} of {ledger.attempted} operations)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
