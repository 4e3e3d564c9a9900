"""Run workloads k times on one commit and print each metric's spread.

    python3 bench/spread.py --k 10 --seconds 25

Each run is ``bench/run.py --trace 0`` with its own seed, 1 to k, on
every workload in BENCHMARK.json. For every workload and end-to-end
metric this prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (q3 - q1) /
median, which the bounds in BENCHMARK.json are set from; see README.md.
It also prints each workload's failed share, which must be the same in
every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--seconds", type=float, default=25)
    args = p.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]

    for workload in workloads:
        results = []
        for seed in range(1, args.k + 1):
            res = run_once(workload, seed, args.seconds)
            results.append(res)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
            print(f"# {workload} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} {values}", flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        correct = all(r["correct"] for r in results)
        print(f"{workload}: correct in all runs: {correct}; failed shares: {shares}")
        print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(med) if med else float("nan")
            print(f"{name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f}", flush=True)


if __name__ == "__main__":
    main()
