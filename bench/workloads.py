"""The benchmark's workloads: their inputs, the five timed operations and
the checks of every output.

Each operation returns the seconds it took and a list of check failures.
Checks are separate methods taking the operation's output, so that
``selftest.py`` can feed them perturbed outputs.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import math
import pickle
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import viterbipar as vp
from viterbipar import io as vio
from viterbipar.errors import UnsupportedModeError
from viterbipar.objective import WindowedObjective

import checks
import loading
from tracing import span

BENCH_DIR = Path(__file__).resolve().parent
SEGMENTS = 4
WORKERS = 2
OPERATIONS = ("setup", "simulate", "solve", "solve_par", "certify")
# the library sums the stationary covariance's series to an absolute
# tolerance, 8.7e-6 (relative) short on desk; a gross error is caught
SIGMA0_REL_TOL = 1e-4


@dataclasses.dataclass
class OpResult:
    seconds: float
    failures: list


class Workload:
    """Shared operations. Subclasses supply ``draw_inputs``, ``model_json``,
    ``certify``, ``closed_form_constants`` and ``check_moments``, and
    ``strong_convexity`` where the generic solve_par check applies."""

    name = ""
    n = 0
    delta = 0
    sim_draws = 1      # simulate draws batched into one timed value
    slack_trials = 3   # empirical_decay_convexity trials, a multiple of its 3 scales
    known_failure = None  # the one failure message a named fault causes every time, as a regex

    def __init__(self, seed: int, run_dir: Path):
        self.seed = seed
        self.run_dir = run_dir
        self._sim_first = None

    # -- preparation (untimed) --------------------------------------------

    def prepare(self):
        """Draw the seeded inputs with the benchmark's own samplers, write
        them through ``viterbipar.io`` and load them back as the CLI does."""
        rng = np.random.default_rng([self.seed, 0])
        _, self.obs = self.draw_inputs(rng)
        self.write_inputs(self.run_dir, self.obs)
        self.obs_sha = hashlib.sha256(np.ascontiguousarray(self.obs, dtype=float).tobytes()).hexdigest()
        self.model = loading.load_model(self.name, self.run_dir)
        self.config = loading.solver_config(self.name, self.model)
        self.plan = vp.build_segment_plan(self.n, SEGMENTS, self.delta)
        self.skeleton = self.simulation_model()
        self.reference = None  # the round's full solve, which solve_par is checked against

    def write_inputs(self, directory: Path, obs):
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / "model.json", "w") as fh:
            json.dump(self.model_json(), fh)
        self.write_observations(directory, obs)

    def write_observations(self, directory: Path, ys):
        vio.write_observations_csv(directory / "observations.csv", ys)

    def simulation_model(self):
        """The model ``simulate`` draws from; observations are ignored."""
        return self.model

    # -- operations ---------------------------------------------------------

    def op_setup(self, tracer) -> OpResult:
        cmd = [sys.executable, str(BENCH_DIR / "setup_child.py"), self.name, str(self.run_dir)]
        if tracer is not None:
            cmd.append("--trace")
        launch = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              cwd=BENCH_DIR.parent)
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return OpResult(time.monotonic() - launch,
                            [f"setup: child exited {proc.returncode}: {tail[0]}"])
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        stamps = out["stamps"]
        if tracer is not None:
            tracer.add("cli.import", launch, stamps["imported"])
            tracer.record("cli.import_s", stamps["imported"] - launch)
            tracer.record("io.read_obs_s", out["read_obs_s"])
        return OpResult(stamps["ready"] - launch, self.check_setup(out))

    def op_simulate(self, tracer) -> OpResult:
        draws = []
        t0 = time.perf_counter()
        for j in range(self.sim_draws):
            with span(tracer, "models.sample"):
                xs, ys = vp.simulate(self.skeleton, self.n, self.seed * 1000 + j)
            with span(tracer, "io.write"):
                self.write_draw(self.run_dir / f"draw{j}", xs.blocks, ys)
            draws.append((xs.blocks, ys))
        seconds = (time.perf_counter() - t0) / self.sim_draws
        if tracer is not None:
            tracer.record("models.sample_s", sum(tracer.durations("models.sample")[-self.sim_draws:]) / self.sim_draws)
            tracer.record("io.write_s", sum(tracer.durations("io.write")[-self.sim_draws:]) / self.sim_draws)
        return OpResult(seconds, self.check_simulate(draws))

    def write_draw(self, directory: Path, xs, ys):
        directory.mkdir(parents=True, exist_ok=True)
        vio.write_path_csv(directory / "states.csv", xs)
        self.write_observations(directory, ys)

    def op_solve(self, tracer) -> OpResult:
        if tracer is None:
            t0 = time.perf_counter()
            report = vp.solve_map(self.model, self.config)
            seconds = time.perf_counter() - t0
        else:
            seconds, report = self._traced_solve(tracer)
        self.reference = report.solution.blocks
        return OpResult(seconds, checks.check_stopped_early(report, self.config, "solve")
                        + self.check_solve(report))

    def _traced_solve(self, tracer):
        """The full-horizon solve through ``solve_windowed`` on a counting
        wrapper of the full-prior window over 0..n, which the tests pin to
        ``solve_map``, with spans around the model's family methods."""
        model = traced_model(self.model, tracer)
        obj = CountingObjective(WindowedObjective(model, (0, self.n), "full-prior"), tracer)
        with tracer.span("solver.solve") as s:
            report = vp.solve_windowed(obj, self.config)
        inside = tracer.child_time(s.index)
        tracer.record("solver.iterations", report.iterations)
        tracer.record("solver.grad_evals", obj.grad_evals)
        tracer.record("solver.value_evals", obj.value_evals)
        tracer.record("solver.loop_ms_per_iter", 1e3 * (s.seconds - inside) / max(report.iterations, 1))
        return s.seconds, report

    def op_solve_par(self, tracer) -> OpResult:
        t0 = time.perf_counter()
        with span(tracer, "parallel.solve"):
            report = vp.solve_parallel(self.model, self.plan, self.config, workers=WORKERS)
        seconds = time.perf_counter() - t0
        if tracer is not None:
            self._trace_parallel(tracer, report, seconds)
        return OpResult(seconds, self.solve_par_failures(report, self.config))

    def solve_par_failures(self, report, config) -> list:
        failures = []
        for k, seg in enumerate(report.per_segment):
            failures += checks.check_stopped_early(seg, config, f"solve_par segment {k}")
        return failures + self.check_solve_par(report.stitched.blocks)

    def is_known(self, failures) -> bool:
        """True if the failures are exactly the one message the named fault
        causes; anything else, or anything more, is unexpected."""
        return (self.known_failure is not None and len(failures) == 1
                and re.fullmatch(self.known_failure, failures[0]) is not None)

    def _trace_parallel(self, tracer, report, seconds):
        walls = [r.wall_clock_seconds for r in report.per_segment]
        tracer.record("parallel.segment_compute_s", sum(walls))
        tracer.record("parallel.overhead_s", seconds - max(walls))
        tracer.record("parallel.segment_iterations", sum(r.iterations for r in report.per_segment))
        with tracer.span("parallel.serial") as s:
            vp.solve_parallel(self.model, self.plan, self.config, workers=1)
        tracer.record("parallel.serial_s", s.seconds)
        # the tasks solve_parallel pickles for its workers, one per enlarged window
        tasks = [(self.model, (lo, hi - 1), report.boundary_mode, self.config)
                 for lo, hi in self.plan.enlarged]
        tracer.record("parallel.payload_bytes", sum(len(pickle.dumps(t)) for t in tasks))
        # the marginals solve_parallel asks of the signal: the probe at index 0
        # that picks the boundary mode, then each marginal-prior window start
        with tracer.span("models.marginal_params") as s:
            try:
                self.model.signal.marginal_params(0)
            except UnsupportedModeError:
                pass
            if report.boundary_mode == "marginal-prior":
                for lo, _ in self.plan.enlarged:
                    self.model.signal.marginal_params(lo)
        tracer.record("models.marginal_params_ms", 1e3 * s.seconds)

    def op_certify(self, tracer) -> OpResult:
        t0 = time.perf_counter()
        with span(tracer, "certificates.constants") as s_const:
            cert = self.certify()
            vp.feasible_gamma_interval(cert)
            vp.lambda_max(cert, cert.chosen_gamma)
        with span(tracer, "certificates.bounds") as s_bounds:
            bounds = self.bounds(cert)
        with span(tracer, "certificates.slack") as s_slack:
            slack = vp.empirical_decay_convexity(self.model, cert, trials=self.slack_trials,
                                                 seed=self.seed)
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.record("certificates.constants_ms", 1e3 * s_const.seconds)
            tracer.record("certificates.bounds_ms", 1e3 * s_bounds.seconds)
            tracer.record("certificates.slack_s", s_slack.seconds)
        return OpResult(seconds, self.check_certify(cert, bounds, slack.min_slack))

    def bounds(self, cert) -> dict:
        """Every bound the library evaluates for this model, by name. Without
        a quadratic-growth constant chi only the discounted beta sum exists."""
        gamma = vp.GammaWeight(cert.chosen_gamma)
        return {"alpha_gamma_n": vp.alpha_gamma_n(self.model, gamma, self.n)}

    # -- checks -------------------------------------------------------------

    def check_setup(self, out) -> list:
        if out["sha256"] != self.obs_sha:
            return ["setup: the loaded observations differ from the written ones"]
        return []

    def check_simulate(self, draws) -> list:
        """The same seed gives the same draw in every round; the first
        round's draws must also show the model's moments."""
        if self._sim_first is None:
            self._sim_first = [(xs.copy(), ys.copy()) for xs, ys in draws]
            failures = []
            for j, (xs, ys) in enumerate(draws):
                failures += self.check_moments(xs, ys, f"simulate draw {j}")
            return failures
        failures = []
        for j, ((xs, ys), (xs0, ys0)) in enumerate(zip(draws, self._sim_first)):
            failures += checks.check_identical(xs, xs0, f"simulate draw {j} path")
            failures += checks.check_identical(ys, ys0, f"simulate draw {j} observations")
        return failures

    def check_solve(self, report) -> list:
        """Gradient of U at the result below the tolerance, and a
        central-difference spot check of grad_U against eval_U."""
        x = report.solution.blocks
        failures = checks.check_grad_small(vp.grad_U(self.model, x).blocks,
                                           self.config.grad_tol, "solve")
        rng = np.random.default_rng([self.seed, 1])
        failures += checks.check_central_difference(
            lambda p: vp.eval_U(self.model, p), lambda p: vp.grad_U(self.model, p).blocks,
            x, rng, "solve grad_U")
        return failures

    def check_solve_par(self, stitched) -> list:
        """Every kept segment within 2 tol / lambda of the full solve: each
        solve stops with |grad| <= tol, and U is lambda-strongly convex."""
        allowed = 2.0 * self.config.grad_tol / self.strong_convexity()
        return checks.check_segments(stitched, self.reference, self.plan.segments,
                                     allowed, "solve_par")

    def check_certify(self, cert, bounds, min_slack) -> list:
        failures = checks.check_constants(cert, self.closed_form_constants(), "certify")
        for name, value in bounds.items():
            failures += checks.check_bound(value, self.observed_error(name, cert), f"certify {name}")
        return failures + checks.check_slack(min_slack, "certify")

    def observed_error(self, bound_name, cert) -> float:
        return 0.0


def traced_model(model, tracer):
    """A copy of the model whose family methods run inside spans."""
    sig, lik = copy.copy(model.signal), copy.copy(model.likelihood)
    sig.grad_log_transitions = tracer.wrap("models.signal_grad", sig.grad_log_transitions)
    sig.log_f_sum = tracer.wrap("models.signal_value", sig.log_f_sum)
    lik.grad = tracer.wrap("models.lik_grad", lik.grad)
    lik.log_terms = tracer.wrap("models.lik_value", lik.log_terms)
    return vp.ModelSpec(sig, lik, observations=model.observations, chi=model.chi)


class CountingObjective:
    """Counts and spans the objective calls the solver makes."""

    def __init__(self, inner, tracer):
        self.inner = inner
        self.n_blocks, self.dim = inner.n_blocks, inner.dim
        self.grad_evals = self.value_evals = 0
        self._grad = tracer.wrap("objective.grad", inner.grad)
        self._value = tracer.wrap("objective.value", inner.value)

    def grad(self, xs):
        self.grad_evals += 1
        return self._grad(xs)

    def value(self, xs):
        self.value_evals += 1
        return self._value(xs)


class AR1Prior(Workload):
    """Workloads whose signal is the isotropic stationary AR(1) chain
    x_m = a x_{m-1} + N(0, sigma_sq I), certified with lambda_g = 0."""

    a = sigma_sq = 0.0
    d = 0

    def signal_json(self):
        d = self.d
        return {"type": "linear_gaussian", "A": (self.a * np.eye(d)).tolist(), "b": [0.0] * d,
                "Sigma": (self.sigma_sq * np.eye(d)).tolist(), "b0": [0.0] * d,
                "Sigma0": "stationary"}

    def certify(self):
        return vp.certify_linear_gaussian(self.model.signal, lambda_g=0.0)

    def check_solve(self, report):
        return self.check_initial_variance() + super().check_solve(report)

    def check_initial_variance(self):
        """The model's stationary Sigma0 is sigma^2 / (1 - a^2) I within
        SIGMA0_REL_TOL, so a reference built on it is the stationary MAP's."""
        want = self.sigma_sq / (1.0 - self.a * self.a) * np.eye(self.d)
        return checks.check_relative(self.model.signal.Sigma0, want, SIGMA0_REL_TOL,
                                     "solve: stationary Sigma0")

    def closed_form_constants(self):
        a, s2 = self.a, self.sigma_sq
        sigma0_sq = s2 / (1.0 - a * a)
        return {"zeta": (1.0 + a * a) / s2,
                "zeta_tilde": min(1.0 / s2, 1.0 / sigma0_sq + a * a / s2),
                "theta": abs(a) / s2}


class Desk(AR1Prior):
    """Acceptance-criterion-4 model: isotropic AR(1), Gaussian emission."""

    name = "desk"
    n, d, delta = 1999, 10, 100
    a, sigma_sq, r_sq = 0.95, 1e-4 ** 2, 5e-4 ** 2
    sim_draws = 4
    slack_trials = 240

    def draw_inputs(self, rng):
        xs = checks.sample_ar1(rng, self.n, self.d, self.a, self.sigma_sq)
        return xs, xs + math.sqrt(self.r_sq) * rng.standard_normal(xs.shape)

    def model_json(self):
        return {"signal": self.signal_json(),
                "likelihood": {"type": "gaussian_emission", "C": np.eye(self.d).tolist(),
                               "R": (self.r_sq * np.eye(self.d)).tolist()}}

    def prepare(self):
        super().prepare()
        # the initial variance as the library built it from "stationary": its
        # series stops about 1e-5 (relative) short of sigma^2 / (1 - a^2) here,
        # within the SIGMA0_REL_TOL that check_initial_variance holds it to
        sigma0_sq = float(self.model.signal.Sigma0[0, 0])
        ar1 = lambda length: checks.AR1Posterior(  # noqa: E731
            self.a, self.sigma_sq, sigma0_sq, self.r_sq, length)
        self.posterior = ar1(self.n + 1)
        self.exact = self.posterior.solve(self.obs)
        Delta = self.plan.block_len_Delta
        # the first enlarged window starts at 0, where the marginal prior is
        # the stationary initial density: its MAP is the prefix MAP
        first = ar1(Delta + self.delta).solve(self.obs[: Delta + self.delta])
        self.first_segment_error = float(np.sum((first[:Delta] - self.exact[:Delta]) ** 2))
        half = self.n // 2
        self.prefix_diff = self.exact.copy()
        self.prefix_diff[: half + 1] -= ar1(half + 1).solve(self.obs[: half + 1])
        self.segment_bound = vp.segment_overlap_error_bound(
            self.model, self.certify(), Delta, self.delta, self.n - Delta)
        self.serial = vp.solve_parallel(self.model, self.plan, self.config, workers=1).stitched.blocks

    def bounds(self, cert):
        Delta, half = self.plan.block_len_Delta, self.n // 2
        out = super().bounds(cert)
        out["segment_overlap"] = vp.segment_overlap_error_bound(
            self.model, cert, Delta, self.delta, self.n - Delta)
        out["viterbi_distance_chi"] = vp.viterbi_distance_bound_chi(self.model, cert, half, self.n)
        out["viterbi_distance_eta"] = vp.viterbi_distance_bound_eta(self.model, cert, half, self.n)
        return out

    def observed_error(self, bound_name, cert):
        if bound_name == "segment_overlap":
            return self.first_segment_error
        if bound_name.startswith("viterbi_distance"):
            w = cert.chosen_gamma ** np.arange(self.n + 1)
            return float(np.sum(self.prefix_diff ** 2, axis=1) @ w)
        return 0.0

    def check_moments(self, xs, ys, what):
        r_sq = self.r_sq
        return (checks.check_lag1(xs, self.a, what)
                + checks.check_variance(ys - xs, r_sq, 3.0 * r_sq * r_sq, what + " emission"))

    def check_solve(self, report):
        """Distance to the exact MAP of the tridiagonal normal equations
        within grad_tol / lambda_min(C' R^-1 C), as the stop rule allows."""
        return self.check_initial_variance() + checks.check_close(
            report.solution.blocks, self.exact,
            self.posterior.distance_allowance(self.config.grad_tol, self.exact),
            "solve vs banded MAP")

    def check_solve_par(self, stitched):
        failures = []
        rel = float(np.linalg.norm(stitched - self.exact) / np.linalg.norm(self.exact))
        if not rel < 1e-3:
            failures.append(f"solve_par: relative error {rel:.3g} >= 1e-3 at delta={self.delta}")
        Delta = self.plan.block_len_Delta
        seg_err = float(np.sum((stitched[:Delta] - self.exact[:Delta]) ** 2))
        failures += checks.check_bound(self.segment_bound, seg_err, "solve_par first segment")
        return failures + checks.check_identical(stitched, self.serial, "solve_par 2 vs 1 workers")


class Huber(Workload):
    """TanhDrift signal with Huber noise, Gaussian emission, flat-start windows."""

    name = "huber"
    n, d, delta = 1999, 10, 50
    scale, huber_c, r_sq = 0.5, 1.0, 0.25
    sim_draws = 4
    slack_trials = 12
    lambda_g = -1.0 / r_sq  # -lambda_min(C' R^-1 C): the emission is strongly log-concave
    # flat-start drops log mu(x_0) also on the window at 0 (see README)
    known_failure = r"solve_par: segment 0 is \S+ from the full solve \(allowed \S+\)"

    def draw_inputs(self, rng):
        xs = checks.sample_tanh_huber(rng, self.n, self.d, self.scale, self.huber_c)
        return xs, xs + math.sqrt(self.r_sq) * rng.standard_normal(xs.shape)

    def model_json(self):
        c, s = self.huber_c, self.scale
        return {"signal": {"type": "huber", "drift_map": {"kind": "tanh", "scale": s},
                           "b": [0.0] * self.d, "huber_c": c,
                           # |tanh''| <= 0.7699, so 0.77 s bounds the Jacobian's variation
                           "lipschitz_bounds": {"L_psi": 1.0, "L_grad_psi": 1.0 / c,
                                                "L_A": s, "L_grad_A": 0.77 * s}},
                "likelihood": {"type": "gaussian_emission", "C": np.eye(self.d).tolist(),
                               "R": (self.r_sq * np.eye(self.d)).tolist()}}

    def prepare(self):
        super().prepare()
        self.moments = checks.huber_moments(self.huber_c)

    def certify(self):
        return vp.certify_huber(self.model.signal, lambda_g=self.lambda_g)

    def closed_form_constants(self):
        c, s = self.huber_c, self.scale
        zeta = -(1.0 / c + s * s / c + 0.77 * s) - self.lambda_g
        return {"zeta": zeta, "zeta_tilde": zeta, "theta": s / c}

    def strong_convexity(self):
        # undiscounted decay-convexity rate min(zeta - 2 theta, zeta_tilde - theta)
        k = self.closed_form_constants()
        return min(k["zeta"] - 2.0 * k["theta"], k["zeta_tilde"] - k["theta"])

    def check_moments(self, xs, ys, what):
        m2, m4 = self.moments
        noise = np.vstack([xs[:1], xs[1:] - self.scale * np.tanh(xs[:-1])])
        r_sq = self.r_sq
        return (checks.check_variance(noise, m2, m4, what + " transition noise")
                + checks.check_variance(ys - xs, r_sq, 3.0 * r_sq * r_sq, what + " emission"))


class Spikes(AR1Prior):
    """NeuralPseudo pairwise coupling, N=6 neurons and R=20 trials, under an
    isotropic AR(1) prior on the d=15 couplings; observations are a spike bundle."""

    name = "spikes"
    N, R = 6, 20
    n, d, delta = 199, 15, 40
    a, sigma_sq = 0.5, 1.0
    rates = 0.5  # centering rates of the field the inputs are drawn from
    sim_draws = 8
    slack_trials = 18

    def draw_inputs(self, rng):
        xs = checks.sample_ar1(rng, self.n, self.d, self.a, self.sigma_sq)
        return xs, checks.sample_spikes(rng, xs, self.N, self.R, np.full(self.N, self.rates))

    def write_observations(self, directory, ys):
        vio.write_spike_bundle(directory / "spikes", ys)

    def model_json(self):
        return {"signal": self.signal_json(),
                "likelihood": {"type": "neural_pseudo", "manifest": "spikes/manifest.json"}}

    def simulation_model(self):
        lik = vp.NeuralPseudo(self.N, self.R, rates_c=np.full(self.N, self.rates),
                              spikes=np.zeros((self.n + 1, self.R, self.N)))
        return vp.ModelSpec(self.model.signal, lik)

    def strong_convexity(self):
        # the pseudo-likelihood is log-concave; the stationary AR(1) prior
        # precision has smallest eigenvalue (1 - a)^2 / sigma^2
        return (1.0 - abs(self.a)) ** 2 / self.sigma_sq

    def check_moments(self, xs, ys, what):
        return (checks.check_lag1(xs, self.a, what)
                + checks.check_spike_moments(xs, ys, self.N, np.full(self.N, self.rates), what))


WORKLOADS = {w.name: w for w in (Desk, Huber, Spikes)}
