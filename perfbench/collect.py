"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
        [--out perfbench/results/NAME.json]

Runs perfbench/run.py once per (workload, seed), one run at a time, with the
run_seconds of BENCHMARK.json. For each metric it reports the median, the
quartiles from statistics.quantiles(values, n=4) and the spread
(Q3 - Q1) / median, and flags an end-to-end metric whose spread exceeds a
third of its bound. With --out it writes every run and the summary, together
with the machine the runs were made on.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout}\n{proc.stderr}")
    machine = next((line for line in lines if line.startswith("machine: ")), "")
    return {"seed": seed, "process_s": elapsed, "machine": machine[len("machine: "):],
            "result": json.loads(lines[-1])}


def summarise(runs: list[dict]) -> dict:
    names = runs[0]["result"]["metrics"]
    out = {}
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else None}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    record = {"run_seconds": BENCH["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, BENCH["run_seconds"], args.trace)
                for seed in seed_list(args.seeds)]
        summary = summarise(runs)
        record["machine"] = runs[0]["machine"]
        record["workloads"][workload] = {"runs": runs, "summary": summary}
        correct = all(r["result"]["correct"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        print(f"{workload}: {len(runs)} runs, correct={correct}, failed={failed}, "
              f"process_s max {max(r['process_s'] for r in runs):.1f}")
        for name, s in summary.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and s["spread"] is not None and name != "setup_s":
                flag = "  ok" if s["spread"] < bound / 3 else "  WIDE"
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name:26s} median {s['median']:.6g}  spread {spread}"
                  f"{'' if bound is None else f' (bound {bound})'}{flag}")
        sys.stdout.flush()
        if args.out:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
