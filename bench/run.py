"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload desk --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The library is imported in-process from
``src/`` of that checkout. A run draws its inputs from ``--seed``, does one
untimed warm-up round of the five operations (setup, simulate, solve,
solve_par, certify), then repeats whole rounds until ``--seconds`` have
passed (at least ``MIN_ROUNDS``), checks every output and prints, as its
last line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. Every operation of every round, the warm-up included, counts
as attempted; one whose output fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics, each the median over the
timed rounds. ``--trace 1`` alternates untraced and traced rounds, reports
the per-layer metrics read from the traced rounds' spans (written to
``bench/_runs/trace-<run id>.jsonl``) and the tracing overhead, traced
minus untraced, summed over the operations' medians.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MIN_ROUNDS = 3        # untraced rounds, or untraced/traced pairs with --trace 1

END_TO_END = {"setup": "setup_s", "simulate": "simulate_s", "solve": "solve_s",
              "solve_par": "solve_par_s", "certify": "certify_s"}

# per-call medians of spans, in ms
SPAN_METRICS = {
    "models.signal_grad_ms": "models.signal_grad",
    "models.signal_value_ms": "models.signal_value",
    "models.lik_grad_ms": "models.lik_grad",
    "models.lik_value_ms": "models.lik_value",
    "objective.grad_ms": "objective.grad",
    "objective.value_ms": "objective.value",
}


def fail(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    src = ROOT / "src"
    if not (src / "viterbipar" / "__init__.py").is_file():
        fail(f"no library source under {src}; run from the root of a checkout")
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    import viterbipar

    if Path(viterbipar.__file__).resolve().parent != (src / "viterbipar").resolve():
        fail(f"imported viterbipar from {viterbipar.__file__}, not from {src}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    import_library()
    from tracing import Tracer
    from workloads import OPERATIONS, OpResult, WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    print("env " + json.dumps(env_stamp()), flush=True)

    run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
    runs_dir = BENCH_DIR / "_runs"
    run_dir = runs_dir / run_id
    run_dir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, run_dir)
        workload.prepare()
        tracer = Tracer(run_id) if args.trace else None
        plain = {op: [] for op in OPERATIONS}
        traced = {op: [] for op in OPERATIONS}
        tally = {"attempted": 0, "failed": 0, "unexpected": [], "known": []}

        def do_round(traced_round: bool, timed: bool):
            for op in OPERATIONS:
                try:
                    res = getattr(workload, "op_" + op)(tracer if traced_round else None)
                except Exception as exc:  # a crash is a failed operation, not a failed run
                    res = OpResult(math.nan, [f"{op}: {type(exc).__name__}: {exc}"])
                tally["attempted"] += 1
                if res.failures:
                    tally["failed"] += 1
                    tally["known" if workload.is_known(res.failures) else "unexpected"] += res.failures
                if timed and math.isfinite(res.seconds):
                    (traced if traced_round else plain)[op].append(res.seconds)

        do_round(False, timed=False)  # warm-up: caches, imports, lazy set-up
        t_start = time.perf_counter()
        k = 0
        while True:
            k += 1
            if tracer is not None:
                tracer.start_round(k)
            do_round(tracer is not None and k % 2 == 0, timed=True)
            rounds = k // 2 if tracer is not None else k
            if (tracer is None or k % 2 == 0) and rounds >= MIN_ROUNDS \
                    and time.perf_counter() - t_start >= args.seconds:
                break

        if tracer is None:
            metrics = {END_TO_END[op]: statistics.median(v) for op, v in plain.items() if v}
            metrics["peak_rss_mb"] = peak_rss_mb()
        else:
            metrics = layer_metrics(tracer, plain, traced)
            tracer.write(runs_dir / f"trace-{run_id}.jsonl")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for failure in tally["known"][:1]:
        print(f"bench: known failure: {failure}", file=sys.stderr)
    for failure in tally["unexpected"][:10]:
        print(f"bench: check failed: {failure}", file=sys.stderr)
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"bench: no measurement for {', '.join(missing)}", file=sys.stderr)
    metrics = {name: metrics[name] for name in units if name in metrics}
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not tally["unexpected"] and not missing,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


def layer_metrics(tracer, plain, traced) -> dict:
    out = {name: tracer.median_call_ms(span_name) for name, span_name in SPAN_METRICS.items()}
    out.update({name: statistics.median(v) for name, v in tracer.values.items()})
    out["trace.overhead_s"] = sum(statistics.median(traced[op]) - statistics.median(plain[op])
                                  for op in plain if plain[op] and traced[op])
    return out


def peak_rss_mb() -> float:
    """The larger of this process's peak resident set and its largest
    child's (a solve_parallel worker or a set-up launch); ru_maxrss is in
    KiB. A forked worker's peak already counts the pages it shares with
    this process, so the two are not added."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def env_stamp() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "git_sha": git_sha(),
    }


def blas_threads():
    """OpenBLAS's thread count, asked of the loaded library itself."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


if __name__ == "__main__":
    main()
