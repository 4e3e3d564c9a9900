"""Show that the benchmark's checks accept correct outputs and reject
perturbed ones.

    python3 bench/selftest.py

For each workload this prepares the seed-1 inputs, produces each
operation's output once, and feeds the workload's checks both that output
and perturbed copies of it: a stitched path shifted by 1e-3, a solve cut
off at max_iters=5, a changed certificate constant, a bound below the
observed error, a negative slack, a changed draw, a draw with the wrong
moments, a changed observation hash and a perturbed stationary Sigma0. On
huber it also shows that only the known segment-0 failure is counted as
known: a further shifted segment or a cut-off solve makes the run
incorrect. It prints one line per case and exits 1 if any check accepts a
perturbed output or rejects a correct one.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import viterbipar as vp  # noqa: E402

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1
outcomes: list[bool] = []


def expect(label: str, failures: list, reject: bool):
    ok = bool(failures) == reject
    outcomes.append(ok)
    verdict = f"rejected ({failures[0]})" if failures else "accepted"
    print(f"{'ok  ' if ok else 'BAD '} {label}: {verdict}", flush=True)


def shifted(x):
    return x + 1e-3


def check_solve_cases(w):
    report = vp.solve_map(w.model, w.config)
    expect(f"{w.name} solve, correct", checks.check_stopped_early(report, w.config, "solve")
           + w.check_solve(report), reject=False)
    w.reference = report.solution.blocks
    cut = dataclasses.replace(w.config, max_iters=5)
    early = vp.solve_map(w.model, cut)
    expect(f"{w.name} solve cut at max_iters=5, stop rule",
           checks.check_stopped_early(early, cut, "solve"), reject=True)
    expect(f"{w.name} solve cut at max_iters=5, output check", w.check_solve(early), reject=True)
    return report.solution.blocks


def unexpected(w, failures):
    """The failures that make a run incorrect: all but the known one."""
    return [] if w.is_known(failures) else failures


def check_par_cases(w):
    report = vp.solve_parallel(w.model, w.plan, w.config, workers=2)
    failures = w.solve_par_failures(report, w.config)
    expect(f"{w.name} solve_par, library output", failures, reject=w.known_failure is not None)
    expect(f"{w.name} solve_par, library output, beyond the known failure",
           unexpected(w, failures), reject=False)
    stitched = report.stitched.blocks
    expect(f"{w.name} solve_par shifted by 1e-3", w.check_solve_par(shifted(stitched)),
           reject=True)
    lo, hi = w.plan.segments[2]
    moved = stitched.copy()
    moved[lo:hi] += 1e-3
    expect(f"{w.name} solve_par with segment 2 shifted by 1e-3, beyond the known failure",
           unexpected(w, w.check_solve_par(moved)), reject=True)
    cut = dataclasses.replace(w.config, max_iters=5)
    early = vp.solve_parallel(w.model, w.plan, cut, workers=2)
    expect(f"{w.name} solve_par cut at max_iters=5, beyond the known failure",
           unexpected(w, w.solve_par_failures(early, cut)), reject=True)


def check_certify_cases(w):
    cert = w.certify()
    bounds = w.bounds(cert)
    slack = vp.empirical_decay_convexity(w.model, cert, trials=w.slack_trials, seed=SEED)
    expect(f"{w.name} certify, correct", w.check_certify(cert, bounds, slack.min_slack),
           reject=False)
    for name in ("zeta", "zeta_tilde", "theta"):
        bad = dataclasses.replace(cert, **{name: getattr(cert, name) * (1.0 + 1e-9)})
        expect(f"{w.name} certify with {name} changed by 1e-9",
               w.check_certify(bad, bounds, slack.min_slack), reject=True)
    for name, value in bounds.items():
        low = dict(bounds, **{name: -abs(value) - 1.0})
        expect(f"{w.name} certify with {name} below the observed error",
               w.check_certify(cert, low, slack.min_slack), reject=True)
    expect(f"{w.name} certify with slack -1e-6", w.check_certify(cert, bounds, -1e-6),
           reject=True)


def check_simulate_cases(w, wrong_moments):
    draw = vp.simulate(w.skeleton, w.n, SEED)
    xs, ys = draw[0].blocks, draw[1]
    expect(f"{w.name} simulate, first draw", w.check_simulate([(xs, ys)]), reject=False)
    expect(f"{w.name} simulate, same seed again", w.check_simulate([(xs, ys)]), reject=False)
    changed = ys.copy()
    changed[0, 0] = 1.0 - changed[0, 0] if w.name == "spikes" else changed[0, 0] + 1e-12
    expect(f"{w.name} simulate, one entry changed", w.check_simulate([(xs, changed)]),
           reject=True)
    expect(f"{w.name} simulate, wrong moments", w.check_moments(*wrong_moments(xs, ys), "draw"),
           reject=True)


def check_initial_variance_cases(w):
    expect(f"{w.name} stationary Sigma0 as built", w.check_initial_variance(), reject=False)
    model = w.model
    sig = model.signal
    w.model = vp.ModelSpec(vp.LinearGaussianSignal(sig.A, sig.b, sig.Sigma, sig.b0,
                                                   sig.Sigma0 * (1.0 + 1e-3)),
                           model.likelihood, observations=model.observations, chi=model.chi)
    expect(f"{w.name} solve with Sigma0 scaled by 1.001",
           w.check_solve(vp.solve_map(w.model, w.config)), reject=True)
    w.model = model


def check_setup_cases(w):
    res = w.op_setup(None)
    expect(f"{w.name} setup, correct", res.failures, reject=False)
    expect(f"{w.name} setup, loaded array differs",
           w.check_setup({"sha256": "0" * 64}), reject=True)


def main():
    (BENCH_DIR / "_runs").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=BENCH_DIR / "_runs"))
    try:
        for name, cls in WORKLOADS.items():
            w = cls(SEED, tmp / name)
            w.prepare()
            check_setup_cases(w)
            if name == "desk":
                wrong = lambda xs, ys: (xs, xs + 2.0 * (ys - xs))  # noqa: E731
            elif name == "huber":
                wrong = lambda xs, ys: (1.2 * xs, ys)  # noqa: E731
            else:
                # spikes drawn with no coupling at all
                indep = (np.random.default_rng(0).random(w.obs.shape) < 0.5).astype(float)
                wrong = lambda xs, ys: (xs, indep)  # noqa: E731
            check_simulate_cases(w, wrong)
            solution = check_solve_cases(w)
            check_par_cases(w)
            check_certify_cases(w)
            if hasattr(w, "check_initial_variance"):
                check_initial_variance_cases(w)
            if name == "huber":
                # the known failure is the flat-start boundary mode's: with the
                # full prior on the windows the same check passes
                stitched = vp.solve_parallel(w.model, w.plan, w.config, workers=2,
                                             boundary_mode="full-prior").stitched.blocks
                expect("huber solve_par with full-prior windows", w.check_solve_par(stitched),
                       reject=False)
                rng = np.random.default_rng(0)
                expect("huber grad_U scaled by 1.001 against central differences",
                       checks.check_central_difference(
                           lambda p: vp.eval_U(w.model, p),
                           lambda p: 1.001 * vp.grad_U(w.model, p).blocks, solution, rng, "grad"),
                       reject=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    bad = outcomes.count(False)
    print(f"{len(outcomes) - bad} of {len(outcomes)} cases behaved as expected")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
