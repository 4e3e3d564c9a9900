"""Acceptance criteria.

Each test prints one PASS line (on failure pytest reports the assert).
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

The desk-scale reproduction uses the experiment-style signal settings
(a = 0.95, noise scale 1e-4) with a Gaussian emission substituted for
the original spike data, which keeps an exact smoother available as the
noise-floor reference and exercises arbitrary state dimensions.
"""

import dataclasses
import math
import os
import time

import numpy as np
import pytest

from viterbipar import (
    GammaWeight,
    GaussianEmission,
    LinearGaussianSignal,
    ModelSpec,
    PathVector,
    SolverConfig,
    build_segment_plan,
    certify_huber,
    certify_linear_gaussian,
    empirical_decay_convexity,
    estimate_grad_lipschitz,
    eval_U,
    feasible_gamma_interval,
    finite_diff_grad,
    grad_U,
    lambda_max,
    relative_error,
    rts_smoother,
    segment_overlap_error_bound,
    simulate,
    solve_map,
    solve_parallel,
    stationary_covariance,
    viterbi_distance_bound_chi,
)
from viterbipar.core import gamma_weights
from viterbipar.models.likelihoods import NeuralExact, NeuralPseudo
from viterbipar.objective import FullObjective

from conftest import (
    balanced_spikes,
    gaussian_model_with_obs,
    hessian_quadratic_form,
    huber_signal,
    lg_signal,
    log_normalizer,
    neural_model,
    normalizer_grad,
    random_spikes,
    stochvol_model,
    student_model,
)

SEED = 20260808


def _ok(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS: {detail}")


# ---------------------------------------------------------------------------
# Desk-scale experiment model shared by criteria 4-7
# ---------------------------------------------------------------------------

A_COEF = 0.95
SIGMA = 1e-4            # transition noise scale from the experiment settings
OBS_NOISE = 5e-4        # emission noise scale chosen for the substitute model
DESK_N = 1999           # 2000 time points; horizon+1 must divide by the segment count
DELTAS = list(range(0, 101, 10))
SEGMENTS = 4


def desk_model(d, n=DESK_N, seed=SEED):
    A = A_COEF * np.eye(d)
    Sigma = SIGMA**2 * np.eye(d)
    signal = LinearGaussianSignal(
        A, np.zeros(d), Sigma, np.zeros(d), stationary_covariance(A, Sigma)
    )
    lik = GaussianEmission(np.eye(d), OBS_NOISE**2 * np.eye(d))
    skeleton = ModelSpec(signal, lik, observations=np.zeros((n + 1, d)))
    _, ys = simulate(skeleton, n, seed)
    return ModelSpec(signal, lik, observations=ys)


def desk_config(model):
    L = estimate_grad_lipschitz(FullObjective(model), seed=0)
    return SolverConfig(step_mode="fixed", step_size=1.0 / L, max_iters=20000, grad_tol=1e-6)


def fit_line(xs, ys):
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), r2


def run_delta_sweep(d):
    """Full solve, exact smoother, and one parallel solve per overlap."""
    model = desk_model(d)
    config = desk_config(model)
    full = solve_map(model, config)
    exact = rts_smoother(model.signal, model.likelihood, model.observations)
    solver_floor = relative_error(full.solution, exact)
    results = {}
    for delta in DELTAS:
        plan = build_segment_plan(model.horizon, SEGMENTS, delta)
        par = solve_parallel(model, plan, config, workers=1)
        results[delta] = par
    rel = {d_: relative_error(results[d_].stitched, full.solution) for d_ in DELTAS}
    noise_floor = max(30.0 * solver_floor, 1e-14)
    fit_deltas = [d_ for d_ in DELTAS if rel[d_] > noise_floor]
    slope, r2 = fit_line(fit_deltas, [math.log(rel[d_]) for d_ in fit_deltas])
    return {
        "model": model,
        "config": config,
        "full": full,
        "rel": rel,
        "parallel": results,
        "noise_floor": noise_floor,
        "fit_deltas": fit_deltas,
        "slope": slope,
        "r2": r2,
    }


@pytest.fixture(scope="module")
def sweep_d10():
    return run_delta_sweep(10)


# ---------------------------------------------------------------------------
# Criterion 1: oracle equivalence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [1, 3])
def test_criterion_1_oracle_equivalence(d):
    t0 = time.perf_counter()
    model = gaussian_model_with_obs(
        np.zeros((201, d)) if d > 1 else np.zeros(201), a=0.5
    )
    _, ys = simulate(model, 200, seed=SEED + d)
    model = model.with_observations(ys)
    report = solve_map(model, SolverConfig(grad_tol=1e-10, max_iters=50000))
    exact = rts_smoother(model.signal, model.likelihood, model.observations)
    err = float(np.max(np.abs(report.solution.blocks - exact.blocks)))
    elapsed = time.perf_counter() - t0
    assert err <= 1e-6, f"max block error {err:g} vs exact smoother"
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"
    _ok(1, f"d={d}: max block error {err:.2e} <= 1e-6 vs exact smoother in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# Criterion 2: gradient correctness for every family pair
# ---------------------------------------------------------------------------

FAMILY_NAMES = ["gaussian", "student_t", "stoch_vol", "neural_pseudo", "neural_exact"]


def _build_pair_model(signal_kind, family, rng):
    n, d = 6, 3
    sig = lg_signal(d=d, a=0.5) if signal_kind == "linear_gaussian" else huber_signal(
        d=d, scale=0.2, c=1.0
    )
    if family == "gaussian":
        lik = GaussianEmission(np.eye(d), np.eye(d))
        ys = rng.standard_normal((n + 1, d))
        return ModelSpec(sig, lik, observations=ys)
    if family == "student_t":
        return student_model(n=n, d=d, signal=sig)
    if family == "stoch_vol":
        return stochvol_model(d=d, n=n, signal=sig)
    exact = family == "neural_exact"
    return neural_model(N=3, R=2, n=n, exact=exact, signal=sig)


@pytest.mark.parametrize("signal_kind", ["linear_gaussian", "huber"])
def test_criterion_2_gradient_correctness(signal_kind):
    rng = np.random.default_rng(SEED)
    worst_overall = 0.0
    for family in FAMILY_NAMES:
        model = _build_pair_model(signal_kind, family, rng)
        worst = 0.0
        for _ in range(100):
            x = PathVector(rng.standard_normal((model.horizon + 1, model.dim)))
            fd = finite_diff_grad(lambda p: eval_U(model, p), x, epsilon=1e-6)
            an = grad_U(model, x)
            rel = float(
                np.linalg.norm(an.blocks - fd.blocks) / max(np.linalg.norm(fd.blocks), 1e-10)
            )
            worst = max(worst, rel)
        assert worst <= 1e-5, f"{signal_kind}/{family}: worst rel error {worst:g}"
        worst_overall = max(worst_overall, worst)
    _ok(2, f"{signal_kind} signal x 5 likelihoods, 100 points each: worst rel err {worst_overall:.2e} <= 1e-5")


# ---------------------------------------------------------------------------
# Criterion 3: decay-convexity of the certified model
# ---------------------------------------------------------------------------

def test_criterion_3_decay_convexity():
    rng = np.random.default_rng(SEED)
    model = gaussian_model_with_obs(np.zeros((201, 3)), a=0.5)
    _, ys = simulate(model, 200, seed=SEED)
    model = model.with_observations(ys)
    cert = certify_linear_gaussian(model.signal, lambda_g=0.0)
    assert cert.feasible
    report = empirical_decay_convexity(model, cert, trials=1000, seed=SEED)
    assert report.min_slack >= -1e-10, f"discounted slack {report.min_slack:g}"
    # undiscounted restatement with the same lambda, on the same sample
    report_g1 = empirical_decay_convexity(
        model, dataclasses.replace(cert, chosen_gamma=1.0), trials=1000, seed=SEED
    )
    assert report_g1.min_slack >= -1e-10, f"undiscounted slack {report_g1.min_slack:g}"
    # curvature restatement: quadratic forms dominate lambda |v|^2
    w = GammaWeight(cert.chosen_gamma)
    weights = gamma_weights(201, cert.chosen_gamma)
    worst_gap = math.inf
    for _ in range(1000):
        x = PathVector(rng.standard_normal((201, 3)))
        v = PathVector(rng.standard_normal((201, 3)))
        q = hessian_quadratic_form(model, x, v, w)
        vsq = float(np.einsum("md,md->m", v.blocks, v.blocks) @ weights)
        worst_gap = min(worst_gap, q - cert.chosen_lambda * vsq)
    assert worst_gap >= -1e-10, f"curvature gap {worst_gap:g}"
    _ok(
        3,
        f"gamma={cert.chosen_gamma:.4f}, lambda={cert.chosen_lambda:.4f}: "
        f"min slack {report.min_slack:.3e} (discounted), {report_g1.min_slack:.3e} (gamma=1), "
        f"curvature gap {worst_gap:.3e}, all >= -1e-10 over 1000 samples",
    )


# ---------------------------------------------------------------------------
# Criterion 4: overlap decay at desk scale
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_4_delta_decay(sweep_d10):
    t0 = time.perf_counter()
    rel = sweep_d10["rel"]
    assert rel[100] < 1e-3, f"rel error at delta=100 is {rel[100]:g}"
    assert rel[0] == max(rel.values())
    slope, r2 = sweep_d10["slope"], sweep_d10["r2"]
    assert slope < 0, f"slope {slope:g} not negative"
    assert r2 >= 0.9, f"R^2 {r2:g} below 0.9 (fit over {sweep_d10['fit_deltas']})"
    # observed decay is at least as fast as the certificate's rate region
    cert = certify_linear_gaussian(sweep_d10["model"].signal, lambda_g=0.0)
    assert slope <= 0.5 * math.log(cert.chosen_gamma)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _ok(
        4,
        f"n={DESK_N}, d=10, l={SEGMENTS}: rel_err(delta=100)={rel[100]:.2e} < 1e-3; "
        f"log-error slope {slope:.4f}, R^2={r2:.3f} over {len(sweep_d10['fit_deltas'])} "
        f"points above floor {sweep_d10['noise_floor']:.1e}",
    )


# ---------------------------------------------------------------------------
# Criterion 5: dimension independence of the decay rate
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_5_dimension_independence(sweep_d10):
    sweep_d110 = run_delta_sweep(110)
    s10, s110 = sweep_d10["slope"], sweep_d110["slope"]
    assert s10 < 0 and s110 < 0
    gap = abs(s110 - s10) / abs(s10)
    assert gap <= 0.25, f"slopes {s10:g} vs {s110:g} differ by {100 * gap:.1f}%"
    _ok(
        5,
        f"fitted log-error slopes d=10: {s10:.4f}, d=110: {s110:.4f} "
        f"(gap {100 * gap:.2f}% <= 25%)",
    )


# ---------------------------------------------------------------------------
# Criterion 6: certified bounds dominate observed errors
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_6_bound_dominance(sweep_d10):
    model = sweep_d10["model"]
    assert model.chi is not None
    cert = certify_linear_gaussian(model.signal, lambda_g=0.0)
    assert cert.feasible
    full = sweep_d10["full"].solution.blocks
    plan0 = build_segment_plan(model.horizon, SEGMENTS, 0)
    Delta = plan0.block_len_Delta
    tail = model.horizon - Delta
    worst_margin = math.inf
    for delta in DELTAS:
        stitched = sweep_d10["parallel"][delta].stitched.blocks
        seg_err = float(np.sum((stitched[:Delta] - full[:Delta]) ** 2))
        bound = segment_overlap_error_bound(model, cert, Delta, delta, tail)
        assert bound >= seg_err, f"delta={delta}: bound {bound:g} < observed {seg_err:g}"
        worst_margin = min(worst_margin, bound / max(seg_err, 1e-300))

    # distance-to-longer-horizon bound: exact prefix solutions via the smoother
    gamma = cert.chosen_gamma
    worst_margin2 = math.inf
    for n in range(10, 101, 10):
        m = 2 * n
        xi_n = rts_smoother(model.signal, model.likelihood, model.observations[: n + 1]).blocks
        xi_m = rts_smoother(model.signal, model.likelihood, model.observations[: m + 1]).blocks
        diff = xi_m.copy()
        diff[: n + 1] -= xi_n
        weights = gamma_weights(m + 1, gamma)
        observed = float(np.einsum("md,md->m", diff, diff) @ weights)
        bound = viterbi_distance_bound_chi(model, cert, n, tail_horizon=m)
        assert bound >= observed, f"n={n}: bound {bound:g} < observed {observed:g}"
        worst_margin2 = min(worst_margin2, bound / max(observed, 1e-300))
    _ok(
        6,
        f"segment bound >= observed for all deltas (min ratio {worst_margin:.1e}); "
        f"distance bound >= observed for n=10..100, m=2n (min ratio {worst_margin2:.1e})",
    )


# ---------------------------------------------------------------------------
# Criterion 7: parallel determinism and speed-up
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_7_parallel_determinism(sweep_d10):
    model = sweep_d10["model"]
    config = sweep_d10["config"]
    plan = build_segment_plan(model.horizon, SEGMENTS, 50)
    outputs = []
    for workers in (1, 2, 4, 8):
        par = solve_parallel(model, plan, config, workers=workers)
        outputs.append(par.stitched.blocks)
    for other in outputs[1:]:
        assert np.array_equal(outputs[0], other), "worker count changed output bytes"

    # wall-clock speed-up on the long horizon; hardware-dependent, asserted
    # only when enough cores exist (the error criteria above are the hard gate)
    big = desk_model(10, n=100_000 - 1, seed=SEED + 9)
    timing_config = SolverConfig(
        step_mode="fixed", step_size=config.step_size, max_iters=300, grad_tol=0.0
    )
    t0 = time.perf_counter()
    solve_map(big, timing_config)
    serial = time.perf_counter() - t0
    plan_big = build_segment_plan(big.horizon, SEGMENTS, 100)
    t0 = time.perf_counter()
    solve_parallel(big, plan_big, timing_config, workers=SEGMENTS)
    parallel = time.perf_counter() - t0
    speedup = serial / parallel
    cores = os.cpu_count() or 1
    if cores >= SEGMENTS:
        assert speedup >= 2.0, f"speedup {speedup:.2f} below 2 on {cores} cores"
        detail = f"speedup {speedup:.2f} >= 2 on {cores} cores"
    else:
        detail = (
            f"speedup {speedup:.2f} measured on {cores} core(s); the >= 2 target "
            f"needs >= {SEGMENTS} cores and is soft (hardware-dependent)"
        )
    _ok(7, f"bitwise-identical output for workers 1/2/4/8; {detail}")


# ---------------------------------------------------------------------------
# Criterion 8: certificate arithmetic
# ---------------------------------------------------------------------------

def test_criterion_8_certificate_arithmetic():
    cert = certify_linear_gaussian(lg_signal(a=0.5), lambda_g=0.0)
    assert abs(cert.zeta - 1.25) <= 1e-12
    assert abs(cert.zeta_tilde - 1.0) <= 1e-12
    assert abs(cert.theta - 0.5) <= 1e-12
    interval = feasible_gamma_interval(cert)
    assert abs(interval.lo - (3.0 - math.sqrt(5.0)) / 2.0) <= 1e-12
    assert interval.hi == 1.0 and interval.hi_closed
    assert abs(lambda_max(cert, 0.8) - 0.2375) <= 1e-12
    hub = certify_huber(
        huber_signal(d=2, scale=0.1, c=1.0, bounds=(1.0, 1.0, 0.1, 0.1)), lambda_g=-2.0
    )
    assert abs(hub.zeta - 0.89) <= 1e-12
    assert abs(hub.zeta_tilde - 0.89) <= 1e-12
    assert abs(hub.theta - 0.1) <= 1e-12
    assert hub.feasible
    _ok(
        8,
        "linear-Gaussian hand case (1.25, 1.0, 0.5), interval lo=(3-sqrt(5))/2, "
        "lambda_max(0.8)=0.2375 and Huber hand case (0.89, 0.89, 0.1) all within 1e-12",
    )


# ---------------------------------------------------------------------------
# Criterion 9: neural model consistency
# ---------------------------------------------------------------------------

def test_criterion_9_neural_consistency():
    rng = np.random.default_rng(SEED)
    # decoupled-coupling coincidence on balanced data for N = 2, 3, 4
    for N in (2, 3, 4):
        spikes = balanced_spikes(N, 4, 6)
        pseudo = NeuralPseudo(N, 4, spikes=spikes)
        exact = NeuralExact(N, 4, spikes=spikes)
        x0 = np.zeros((1, N * (N - 1) // 2))
        for t in range(6):
            gp = pseudo.grad(x0, spikes[t : t + 1])
            ge = exact.grad(x0, spikes[t : t + 1])
            assert float(np.max(np.abs(gp - ge))) <= 1e-10, f"N={N}, bin {t}"

    # normalizer derivative identity at 100 random couplings
    worst = 0.0
    for N in (2, 3, 4):
        lik = NeuralExact(N, 2, spikes=random_spikes(N, 2, 3, seed=N))
        d = N * (N - 1) // 2
        eps = 1e-6
        for _ in range(100):
            x = rng.standard_normal(d)
            grad = normalizer_grad(lik, x)
            i = int(rng.integers(d))
            xp, xm = x.copy(), x.copy()
            xp[i] += eps
            xm[i] -= eps
            fd = (log_normalizer(lik, xp) - log_normalizer(lik, xm)) / (2 * eps)
            worst = max(worst, abs(fd - grad[i]))
    assert worst <= 1e-8, f"derivative identity gap {worst:g}"
    _ok(
        9,
        f"pseudo/exact gradients coincide at zero coupling (N=2,3,4, balanced data); "
        f"normalizer derivative identity gap {worst:.1e} <= 1e-8 over 100 points per N",
    )
