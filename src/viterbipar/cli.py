"""Command-line front end.

Commands: simulate, solve, solve-par, certify, sweep, verify. Every
command is deterministic given its configuration and seed; the worker
count never changes output bytes. Exit codes: 0 ok, 1 a ``verify``
check failed, 2 configuration error, 3 I/O error, 4 solver divergence,
5 certification failure, 6 a worker process died.
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
from .core import GammaWeight, PathVector, build_segment_plan
from .errors import (
    CertificationError,
    ConfigError,
    DivergenceError,
    ShapeError,
    UnsupportedBoundError,
    UnsupportedModeError,
)
from .models.likelihoods import GaussianEmission
from .models.signals import HuberNonlinearSignal, LinearGaussianSignal
from .models.spec import _NEURAL, ModelSpec, simulate
from .objective import eval_U, grad_U
from .oracles import finite_diff_grad, rts_smoother
from .parallel import solve_parallel, sweep_delta
from .solver import SolverConfig, solve_map

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DIVERGENCE = 4
EXIT_CERTIFICATION = 5
EXIT_WORKER = 6


def _echo_json(payload):
    click.echo(json.dumps(payload, indent=2, sort_keys=True))


def handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except DivergenceError as exc:
            click.echo(f"solver divergence: {exc}", err=True)
            sys.exit(EXIT_DIVERGENCE)
        except CertificationError as exc:
            click.echo(f"certification error: {exc}", err=True)
            sys.exit(EXIT_CERTIFICATION)
        except (ConfigError, ShapeError, UnsupportedModeError, ValueError) as exc:
            click.echo(f"configuration error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)
        except OSError as exc:
            click.echo(f"I/O error: {exc}", err=True)
            sys.exit(EXIT_IO)
        except BrokenProcessPool as exc:
            reason = str(exc).rstrip(".")
            click.echo(f"worker failure: {reason}; rerun with --workers 1 to solve in this process",
                       err=True)
            sys.exit(EXIT_WORKER)

    return wrapper


def _load_model(model_path, obs_path) -> ModelSpec:
    model = vio.load_model_config(model_path)
    if isinstance(model.likelihood, _NEURAL):
        if obs_path is not None:
            spikes, rates, _ = vio.read_spike_bundle(obs_path)
            lik = type(model.likelihood)(
                spikes.shape[2], spikes.shape[1], rates_c=rates, spikes=spikes
            )
            model = ModelSpec(model.signal, lik, observations=None, chi=model.chi)
        return model
    if obs_path is None:
        raise ConfigError("this model family needs --obs (observation CSV)")
    ys = vio.read_observations_csv(obs_path)
    return ModelSpec(model.signal, model.likelihood, observations=ys, chi=model.chi)


def _solver_config(step_mode, step_size, max_iters, grad_tol, gamma) -> SolverConfig:
    return SolverConfig(
        step_mode=step_mode,
        step_size=step_size,
        max_iters=max_iters,
        grad_tol=grad_tol,
        gamma=GammaWeight(gamma),
    )


def _certify_model(model: ModelSpec, lambda_g: float):
    if isinstance(model.signal, LinearGaussianSignal):
        return certify_linear_gaussian(model.signal, lambda_g=lambda_g)
    if isinstance(model.signal, HuberNonlinearSignal):
        return certify_huber(model.signal, lambda_g=lambda_g)
    raise CertificationError("no certificate route for this signal family")


def solver_options(fn):
    fn = click.option("--step-mode", type=click.Choice(["fixed", "backtracking"]), default="backtracking", show_default=True)(fn)
    fn = click.option("--step-size", type=float, default=1.0, show_default=True, help="fixed step, or initial trial step when backtracking")(fn)
    fn = click.option("--max-iters", type=int, default=20000, show_default=True)(fn)
    fn = click.option("--grad-tol", type=float, default=None, help="stop when the discounted gradient norm falls below this")(fn)
    fn = click.option("--gamma", type=float, default=1.0, show_default=True, help="discount used by the stopping norm")(fn)
    return fn


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
@click.option("--seed", type=int, default=0, show_default=True)
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
@solver_options
@handle_errors
def solve_cmd(model_path, obs_path, out_dir, step_mode, step_size, max_iters, grad_tol, gamma):
    """Solve the full-path MAP problem."""
    model = _load_model(model_path, obs_path)
    config = _solver_config(step_mode, step_size, max_iters, grad_tol, gamma)
    report = solve_map(model, config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    vio.write_path_csv(out / "solution.csv", report.solution.blocks)
    payload = {"command": "solve", **report.to_dict(), "solution": str(out / "solution.csv")}
    with open(out / "report.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _echo_json(payload)


@main.command(name="solve-par")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--obs", "obs_path", type=click.Path(exists=True), default=None)
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.option("--l", "num_segments", required=True, type=int, help="number of segments")
@click.option("--delta", required=True, type=int, help="overlap added on both sides of each segment")
@workers_option
@click.option("--boundary-mode", type=click.Choice(["marginal-prior", "flat-start", "full-prior"]), default=None,
              help="start term of the windows that begin after index 0 (the first window always "
                   "carries the initial density); default marginal-prior when the signal has "
                   "closed-form marginals, else flat-start")
@solver_options
@handle_errors
def solve_par_cmd(model_path, obs_path, out_dir, num_segments, delta, workers, boundary_mode,
                  step_mode, step_size, max_iters, grad_tol, gamma):
    """Solve the overlapped segments in parallel and stitch."""
    model = _load_model(model_path, obs_path)
    config = _solver_config(step_mode, step_size, max_iters, grad_tol, gamma)
    plan = build_segment_plan(model.horizon, num_segments, delta)
    report = solve_parallel(model, plan, config, workers=workers, boundary_mode=boundary_mode)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    vio.write_path_csv(out / "solution.csv", report.stitched.blocks)
    payload = {
        "command": "solve-par",
        "num_segments": plan.num_segments_l,
        "delta": plan.overlap_delta,
        "boundary_mode": report.boundary_mode,
        "wall_clock_seconds": report.wall_clock_seconds,
        "per_segment": [r.to_dict() for r in report.per_segment],
        "solution": str(out / "solution.csv"),
    }
    with open(out / "report.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _echo_json(payload)


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
    try:
        model = _load_model(model_path, obs_path)
    except ConfigError:
        model = vio.load_model_config(model_path)  # certificates need no data
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
        sys.exit(EXIT_CERTIFICATION)
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
        try:
            payload["bounds"] = {
                "viterbi_distance_chi": viterbi_distance_bound_chi(model, cert, n, model.horizon),
                "at_horizon": n,
                "tail_horizon": model.horizon,
            }
        except (UnsupportedBoundError, CertificationError):
            pass
    _echo_json(payload)


@main.command(name="sweep")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--obs", "obs_path", type=click.Path(exists=True), default=None)
@click.option("--out", "out_csv", required=True, type=click.Path(dir_okay=False))
@click.option("--l", "num_segments", required=True, type=int)
@click.option("--deltas", required=True, help="comma-separated nonnegative overlaps, ascending")
@workers_option
@click.option("--lambda-g", type=float, default=0.0, show_default=True)
@solver_options
@handle_errors
def sweep_cmd(model_path, obs_path, out_csv, num_segments, deltas, workers, lambda_g,
              step_mode, step_size, max_iters, grad_tol, gamma):
    """Overlap sweep: error/cost table, one row per delta."""
    model = _load_model(model_path, obs_path)
    try:
        delta_list = [int(v) for v in deltas.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad --deltas list: {exc}") from exc
    config = _solver_config(step_mode, step_size, max_iters, grad_tol, gamma)
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
    except (CertificationError, UnsupportedBoundError, ValueError):
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
@click.option("--points", type=int, default=20, show_default=True, help="random points for the gradient check")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--lambda-g", type=float, default=0.0, show_default=True)
@handle_errors
def verify_cmd(model_path, obs_path, points, seed, lambda_g):
    """Run the oracle and property checks against the configured model;
    exit 1 when a check fails."""
    model = _load_model(model_path, obs_path)
    rng = np.random.default_rng(seed)
    checks = {}

    worst = 0.0
    for _ in range(points):
        x = PathVector(rng.standard_normal((model.horizon + 1, model.dim)))
        fd = finite_diff_grad(lambda p: eval_U(model, p), x, epsilon=1e-6)
        an = grad_U(model, x)
        denom = max(float(np.linalg.norm(fd.blocks)), 1e-12)
        worst = max(worst, float(np.linalg.norm(an.blocks - fd.blocks)) / denom)
    checks["gradient_vs_finite_difference"] = {"worst_rel_error": worst, "pass": worst <= 1e-5}

    if isinstance(model.signal, LinearGaussianSignal) and isinstance(
        model.likelihood, GaussianEmission
    ):
        exact = rts_smoother(model.signal, model.likelihood, model.observations)
        report = solve_map(model, SolverConfig(grad_tol=1e-10, max_iters=50000))
        err = float(np.max(np.abs(report.solution.blocks - exact.blocks)))
        checks["solver_vs_exact_smoother"] = {"max_block_error": err, "pass": err <= 1e-6}

    try:
        cert = _certify_model(model, lambda_g)
    except CertificationError:
        cert = None
    if cert is not None and cert.feasible:
        slack = empirical_decay_convexity(model, cert, trials=200, seed=seed)
        checks["decay_convexity_slack"] = {
            "min_slack": slack.min_slack,
            "gamma": slack.gamma,
            "lambda": slack.lam,
            "pass": slack.min_slack >= -1e-10,
        }
    elif cert is not None:
        checks["certificate"] = {"feasible": False, "pass": True}

    ok = all(c.get("pass", True) for c in checks.values())
    _echo_json({"command": "verify", "pass": ok, "checks": checks})
    if not ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
