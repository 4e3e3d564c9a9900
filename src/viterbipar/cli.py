"""Command-line front end.

Commands: simulate, solve, solve-par, certify, sweep, verify. Every
command is deterministic given its configuration and seed; the worker
count never changes output bytes. Every failure prints one line on
stderr and exits with a code: 1 a ``verify`` check failed, 3 I/O
error, 6 a worker process died, 7 internal error, and a package error's
own code otherwise (2 configuration, 4 divergence, 5 certification;
see :mod:`viterbipar.errors`). The solver flags' defaults are those of
``SolverConfig``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import click
import numpy as np

from . import io as vio
from .certificates import (
    certify_huber,
    certify_linear_gaussian,
    empirical_decay_convexity,
    lambda_max,
    segment_overlap_error_bound,
    viterbi_distance_bound_chi,
)
from .core import PathVector, build_segment_plan
from .errors import CertificationError, ConfigError, ViterbiParError
from .models.likelihoods import GaussianEmission
from .models.signals import HuberNonlinearSignal, LinearGaussianSignal
from .models.spec import _NEURAL, ModelSpec, simulate
from .objective import BOUNDARY_MODES, FullObjective
from .oracles import finite_diff_grad, rts_smoother
from .parallel import solve_parallel, sweep_delta
from .solver import STEP_MODES, SolverConfig, solve_map


def _echo_json(payload):
    click.echo(json.dumps(payload, indent=2, sort_keys=True))


def handle_errors(fn):
    """Turn any exception of the command into one stderr line and its exit code."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ViterbiParError as exc:
            code, line = exc.exit_code, f"{exc.label}: {exc}"
        except OSError as exc:
            code, line = 3, f"I/O error: {exc}"
        except BrokenProcessPool as exc:
            reason = str(exc).rstrip(".")
            code, line = 6, f"worker failure: {reason}; rerun with --workers 1 to solve in this process"
        except Exception as exc:
            code, line = 7, f"internal error: {type(exc).__name__}: {exc}"
        click.echo(line, err=True)
        sys.exit(code)

    return wrapper


def _load_model(model_path, obs_path) -> ModelSpec:
    model = vio.load_model_config(model_path)
    if isinstance(model.likelihood, _NEURAL):
        if obs_path is not None:
            spikes = vio.read_spike_bundle(obs_path)
            lik = type(model.likelihood)(spikes.shape[2], spikes.shape[1], spikes=spikes)
            model = ModelSpec(model.signal, lik, observations=None, chi=model.chi)
        return model
    if obs_path is None:
        raise ConfigError("this model family needs --obs (observation CSV)")
    ys = vio.read_observations_csv(obs_path)
    return ModelSpec(model.signal, model.likelihood, observations=ys, chi=model.chi)


def _write_run(out_dir, solution: PathVector, payload: dict):
    """Write a solve's path to solution.csv and ``payload``, with that file
    name added, to report.json, and echo the payload."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    vio.write_path_csv(out / "solution.csv", solution.blocks)
    payload["solution"] = str(out / "solution.csv")
    text = json.dumps(payload, indent=2, sort_keys=True)
    (out / "report.json").write_text(text + "\n")
    click.echo(text)


def _certify_model(model: ModelSpec, lambda_g: float):
    if isinstance(model.signal, LinearGaussianSignal):
        return certify_linear_gaussian(model.signal, lambda_g=lambda_g)
    if isinstance(model.signal, HuberNonlinearSignal):
        return certify_huber(model.signal, lambda_g=lambda_g)
    raise CertificationError("no certificate route for this signal family")


def solver_options(fn):
    """The four solver flags, handed to the command as one ``config``.
    Commands list ``handle_errors`` above it, so an invalid value exits 2."""

    @functools.wraps(fn)
    def wrapper(*args, step_mode, step_size, max_iters, grad_tol, **kwargs):
        config = SolverConfig(step_mode=step_mode, step_size=step_size, max_iters=max_iters,
                              grad_tol=grad_tol)
        return fn(*args, config=config, **kwargs)

    wrapper = click.option("--step-mode", type=click.Choice(STEP_MODES), default=SolverConfig.step_mode, show_default=True)(wrapper)
    wrapper = click.option("--step-size", type=float, default=SolverConfig.step_size, show_default=True, help="the fixed mode's step; the adaptive mode reads none")(wrapper)
    wrapper = click.option("--max-iters", type=int, default=SolverConfig.max_iters, show_default=True)(wrapper)
    wrapper = click.option("--grad-tol", type=float, default=SolverConfig.grad_tol, help="stop when the gradient's 2-norm falls below this")(wrapper)
    return wrapper


workers_option = click.option(
    "--workers", type=click.IntRange(min=1), default=1, show_default=True, envvar="VITERBI_PAR_WORKERS",
    show_envvar=True, help="worker processes",
)


@click.group()
def main():
    """MAP path estimation with certified segment-parallel solves."""


@main.command(name="simulate")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--n", "horizon", required=True, type=int, help="horizon: indices 0..n are generated")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@handle_errors
def simulate_cmd(model_path, horizon, seed, out_dir):
    """Draw states and observations from the model."""
    model = vio.load_model_config(model_path)
    xs, ys = simulate(model, horizon, seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    vio.write_path_csv(out / "states.csv", xs.blocks)
    written = {"states": str(out / "states.csv")}
    if isinstance(model.likelihood, _NEURAL):
        manifest = vio.write_spike_bundle(out / "spikes", ys)
        written["observations"] = str(manifest)
    else:
        vio.write_observations_csv(out / "observations.csv", ys)
        written["observations"] = str(out / "observations.csv")
    v = xs.blocks[:, 0]
    lag1 = float(np.corrcoef(v[:-1], v[1:])[0, 1]) if horizon >= 2 else None
    _echo_json(
        {
            "command": "simulate",
            "seed": seed,
            "horizon": horizon,
            "state_dim": model.dim,
            "lag1_autocorrelation": lag1,
            "files": written,
        }
    )


@main.command(name="solve")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--obs", "obs_path", type=click.Path(exists=True), default=None)
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@handle_errors
@solver_options
def solve_cmd(model_path, obs_path, out_dir, config):
    """Solve the full-path MAP problem."""
    report = solve_map(_load_model(model_path, obs_path), config)
    _write_run(out_dir, report.solution, {"command": "solve", **report.to_dict()})


@main.command(name="solve-par")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--obs", "obs_path", type=click.Path(exists=True), default=None)
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.option("--l", "num_segments", required=True, type=int, help="number of segments")
@click.option("--delta", required=True, type=int, help="overlap added on both sides of each segment")
@workers_option
@click.option("--boundary-mode", type=click.Choice(BOUNDARY_MODES), default=None,
              help="start term of the windows that begin after index 0 (the first window always "
                   "carries the initial density); default marginal-prior when the signal has "
                   "closed-form marginals, else flat-start")
@handle_errors
@solver_options
def solve_par_cmd(model_path, obs_path, out_dir, num_segments, delta, workers, boundary_mode, config):
    """Solve the overlapped segments in parallel and stitch."""
    model = _load_model(model_path, obs_path)
    plan = build_segment_plan(model.horizon, num_segments, delta)
    report = solve_parallel(model, plan, config, workers=workers, boundary_mode=boundary_mode)
    _write_run(out_dir, report.stitched, {"command": "solve-par", **report.to_dict()})


@main.command(name="certify")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--obs", "obs_path", type=click.Path(exists=True), default=None)
@click.option("--lambda-g", type=float, default=0.0, show_default=True,
              help="semi-log-concavity constant of the likelihood")
@click.option("--gamma", type=float, default=None, help="override the chosen discount")
@click.option("--lam", "--lambda", "lam", type=float, default=None, help="override the chosen rate")
@handle_errors
def certify_cmd(model_path, obs_path, lambda_g, gamma, lam):
    """Evaluate the decay-convexity certificate; exit 5 when infeasible."""
    # certificates need no data; given data is loaded as every command loads it
    model = vio.load_model_config(model_path) if obs_path is None else _load_model(model_path, obs_path)
    cert = _certify_model(model, lambda_g)
    if not cert.feasible:
        payload = cert.to_dict()
        payload["reason"] = (
            f"with semi-log-concavity constant lambda_g={lambda_g:g}, coupling "
            f"theta={cert.theta:g} is not below min(zeta/2, zeta_tilde)="
            f"{min(cert.zeta / 2.0, cert.zeta_tilde):g}; the decay-convexity "
            "condition fails"
        )
        _echo_json(payload)
        sys.exit(CertificationError.exit_code)
    if gamma is not None:
        if not cert.gamma_interval.contains(gamma):
            raise CertificationError(f"gamma={gamma} outside the feasible interval")
        cert = dataclasses.replace(
            cert, chosen_gamma=gamma, chosen_lambda=lambda_max(cert, gamma)
        )
    if lam is not None:
        cap = lambda_max(cert, cert.chosen_gamma)
        if not 0 < lam <= cap:
            raise CertificationError(f"lambda={lam} not in (0, {cap:g}]")
        cert = dataclasses.replace(cert, chosen_lambda=lam)
    payload = cert.to_dict()
    if model.observations is not None and model.chi is not None:
        n = model.horizon // 2
        payload["bounds"] = {
            "viterbi_distance_chi": viterbi_distance_bound_chi(model, cert, n, model.horizon),
            "at_horizon": n,
            "tail_horizon": model.horizon,
        }
    _echo_json(payload)


@main.command(name="sweep")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--obs", "obs_path", type=click.Path(exists=True), default=None)
@click.option("--out", "out_csv", required=True, type=click.Path(dir_okay=False))
@click.option("--l", "num_segments", required=True, type=int)
@click.option("--deltas", required=True, help="comma-separated nonnegative overlaps, ascending")
@workers_option
@click.option("--lambda-g", type=float, default=0.0, show_default=True)
@handle_errors
@solver_options
def sweep_cmd(model_path, obs_path, out_csv, num_segments, deltas, workers, lambda_g, config):
    """Overlap sweep: error/cost table, one row per delta."""
    model = _load_model(model_path, obs_path)
    try:
        delta_list = [int(v) for v in deltas.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad --deltas list: {exc}") from exc
    rows, reference, mode = sweep_delta(
        model, num_segments, delta_list, config, workers=workers
    )
    bounds = None
    try:
        cert = _certify_model(model, lambda_g)
        if cert.feasible and model.chi is not None:
            plan = build_segment_plan(model.horizon, num_segments, 0)
            tail = model.horizon - plan.block_len_Delta
            bounds = [
                segment_overlap_error_bound(model, cert, plan.block_len_Delta, d, tail)
                for d in delta_list
            ]
    except ValueError:  # no certificate, or too short a tail for the bound
        bounds = None
    vio.write_sweep_csv(out_csv, rows, bounds)
    _echo_json(
        {
            "command": "sweep",
            "table": str(out_csv),
            "boundary_mode": mode,
            "reference_iterations": reference.iterations,
            "reference_wall_clock_seconds": reference.wall_clock_seconds,
            "rows": [
                {"delta": r.delta, "rel_error": r.rel_error, "speedup": r.speedup}
                for r in rows
            ],
            "certified_bound_column": bounds is not None,
        }
    )


@main.command(name="verify")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--obs", "obs_path", type=click.Path(exists=True), default=None)
@click.option("--points", type=click.IntRange(min=1), default=20, show_default=True, help="random points for the gradient check")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--lambda-g", type=float, default=0.0, show_default=True)
@handle_errors
def verify_cmd(model_path, obs_path, points, seed, lambda_g):
    """Run the oracle and property checks against the configured model;
    exit 1 when a check fails."""
    model = _load_model(model_path, obs_path)
    rng = np.random.default_rng(seed)
    checks = {}

    # one objective serves every value and gradient of the check
    objective = FullObjective(model)
    eval_U, grad_U = objective.value, objective.grad
    worst = 0.0
    for _ in range(points):
        x = PathVector(rng.standard_normal((model.horizon + 1, model.dim)))
        fd = finite_diff_grad(lambda p: eval_U(p.blocks), x, epsilon=1e-6)
        an = grad_U(x.blocks)
        denom = max(float(np.linalg.norm(fd.blocks)), 1e-12)
        worst = max(worst, float(np.linalg.norm(an - fd.blocks)) / denom)
    checks["gradient_vs_finite_difference"] = {"worst_rel_error": worst, "pass": worst <= 1e-5}

    if isinstance(model.signal, LinearGaussianSignal) and isinstance(
        model.likelihood, GaussianEmission
    ):
        exact = rts_smoother(model.signal, model.likelihood, model.observations)
        report = solve_map(model, SolverConfig(grad_tol=1e-10, max_iters=50000))
        err = float(np.max(np.abs(report.solution.blocks - exact.blocks)))
        checks["solver_vs_exact_smoother"] = {"max_block_error": err, "pass": err <= 1e-6}

    cert = _certify_model(model, lambda_g)
    if cert.feasible:
        slack = empirical_decay_convexity(model, cert, trials=200, seed=seed)
        checks["decay_convexity_slack"] = {
            "min_slack": slack.min_slack,
            "gamma": slack.gamma,
            "lambda": slack.lam,
            "pass": slack.min_slack >= -1e-10,
        }
    else:
        checks["certificate"] = {"feasible": False, "pass": True}

    ok = all(c.get("pass", True) for c in checks.values())
    _echo_json({"command": "verify", "pass": ok, "checks": checks})
    if not ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
