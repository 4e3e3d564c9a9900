"""Shared model builders, reference norms, reference local gradients and
fields, reference spike-coupling kernels, a reference decay-convexity
sampler, and the csv-module writers and readers that the bulk CSV I/O
must match, for the test suite."""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from viterbipar import (
    GaussianEmission,
    HuberNonlinearSignal,
    LinearGaussianSignal,
    ModelSpec,
    NeuralExact,
    NeuralPseudo,
    StochVolFactor,
    StudentTEmission,
    TanhDrift,
    WindowedObjective,
    simulate,
    stationary_covariance,
)
from viterbipar.core import gamma_weights
from viterbipar.errors import ConfigError, ShapeError
from viterbipar.objective import FullObjective


def gamma_inner(x, y, w):
    """Discounted inner product sum_m gamma^m <x_m, y_m> of two paths."""
    if x.blocks.shape != y.blocks.shape:
        raise ShapeError(f"paths have different shapes: {x.blocks.shape} vs {y.blocks.shape}")
    per_block = np.einsum("md,md->m", x.blocks, y.blocks)
    return float(per_block @ gamma_weights(per_block.shape[0], w.gamma))


def gamma_norm(x, w):
    """Discounted norm sqrt(sum_m gamma^m |x_m|^2) of a path."""
    return math.sqrt(gamma_inner(x, x, w))


def weighted_norm_at(x, center_n, w):
    """Norm of a path with weights gamma^|m - center_n|, truncated at its
    horizon; ``center_n = 0`` gives ``gamma_norm``."""
    if center_n < 0:
        raise ValueError(f"center index must be nonnegative, got {center_n}")
    m = np.arange(x.blocks.shape[0])
    weights = float(w.gamma) ** np.abs(m - center_n)
    return math.sqrt(float(np.einsum("md,md->m", x.blocks, x.blocks) @ weights))


def grad_phi(model, xs, n):
    """Gradient, with respect to block n, of the interior local sum
    log f(x_{n-1}, x_n) + log f(x_n, x_{n+1}) + log g(x_n, y_n): minus the
    middle block of the gradient of the flat-start window (n-1, n+1),
    whose other terms do not involve x_n. Valid for 1 <= n <= horizon - 1."""
    xs = np.asarray(getattr(xs, "blocks", xs), dtype=float)
    if not 1 <= n <= xs.shape[0] - 2:
        raise IndexError(f"interior index must satisfy 1 <= n <= {xs.shape[0] - 2}, got {n}")
    obj = WindowedObjective(model, (n - 1, n + 1), "flat-start")
    return -obj.grad(xs[n - 1 : n + 2])[1]


def grad_phi_tilde(model, xs, n):
    """Gradient, with respect to block n, of the boundary local sum.

    Index 0 bundles the initial density, the forward transition (when a
    next block exists) and the emission: minus block 0 of the gradient of
    the window (0, 1), or (0, 0) for a one-block path. Index n >= 1
    bundles the backward transition and the emission: minus the last
    block of the gradient of the flat-start window (n-1, n)."""
    xs = np.asarray(getattr(xs, "blocks", xs), dtype=float)
    if not 0 <= n <= xs.shape[0] - 1:
        raise IndexError(f"index must satisfy 0 <= n <= {xs.shape[0] - 1}, got {n}")
    lo, hi = (0, min(1, xs.shape[0] - 1)) if n == 0 else (n - 1, n)
    obj = WindowedObjective(model, (lo, hi), "flat-start")
    return -obj.grad(xs[lo : hi + 1])[n - lo]


def log_g_terms(model, xs):
    """Per-index log g(x_m, y_m) of a model at indices 0..len(xs)-1."""
    model.require_horizon(xs.shape[0] - 1)
    return model.likelihood.log_terms(xs, model.observations[: xs.shape[0]])


def grad_log_g(model, xs):
    """Per-block gradients of log g(x_m, y_m) at indices 0..len(xs)-1."""
    model.require_horizon(xs.shape[0] - 1)
    return model.likelihood.grad(xs, model.observations[: xs.shape[0]])


def flat_upper(M):
    """Strict upper triangles of the trailing (N, N) matrices, flattened."""
    i, j = np.triu_indices(M.shape[-1], k=1)
    return M[..., i, j]


def scattered_coupling(x, N):
    """Coupling stack built by scattering x into zeros and adding the
    transpose."""
    X = np.zeros(x.shape[:-1] + (N, N))
    i, j = np.triu_indices(N, k=1)
    X[..., i, j] = x
    return X + np.swapaxes(X, -1, -2)


class ReferencePseudo(NeuralPseudo):
    """NeuralPseudo with kernels that rebuild and copy per call: a
    scattered coupling stack, out-of-place tanh chain and a symmetrised
    stack read by a 2-D gather."""

    def _fields(self, xs, ys):
        yc = ys - self.rates_c
        return np.matmul(yc, scattered_coupling(xs, self.N)) / self.R, yc

    def log_terms(self, xs, ys):
        yz = ys * self._fields(xs, ys)[0]
        return np.sum(np.minimum(yz, 0.0) - np.log1p(np.exp(-np.abs(yz))), axis=(1, 2))

    def grad(self, xs, ys):
        z, yc = self._fields(xs, ys)
        D = ys * (0.5 * (1.0 - np.tanh(0.5 * (ys * z))))
        M = np.matmul(np.swapaxes(D, 1, 2), yc)
        return flat_upper(M + np.swapaxes(M, 1, 2)) / self.R


def log_normalizer(lik, x_n):
    """Log normalizer of a NeuralExact family at one coupling vector."""
    return float(lik._log_normalizers(np.asarray(x_n, dtype=float)[None])[0])


def normalizer_grad(lik, x_n):
    """Gradient of a NeuralExact log normalizer at one coupling vector: the
    centered pair-product mean under the configuration distribution."""
    return lik._normalizer_grads(np.asarray(x_n, dtype=float)[None])[0]


def exact_reference_kernels(lik, xs, ys):
    """(log_terms, grad) of a NeuralExact family with its centered
    pair-product means read by ``flat_upper``."""
    yc = ys - lik.rates_c
    suff = flat_upper(np.matmul(np.swapaxes(yc, 1, 2), yc)) / lik.R
    value = np.einsum("md,md->m", xs, suff) - lik._log_normalizers(xs)
    return value, suff - lik._normalizer_grads(xs)


def pseudo_fields(lik, x_n, spikes_n):
    """Local fields z, shape (R, N), of a NeuralPseudo family at one time bin."""
    z, _ = lik._fields(np.asarray(x_n, dtype=float)[None], spikes_n[None])
    return z[0]


def neural_pseudo_field(lik, x_n, index_n, trial_k):
    """Per-neuron fields z for one time bin and trial of the pseudo-likelihood."""
    if not 0 <= index_n < lik.n_times:
        raise IndexError(f"time index {index_n} outside 0..{lik.n_times - 1}")
    if not 0 <= trial_k < lik.R:
        raise IndexError(f"trial index {trial_k} outside 0..{lik.R - 1}")
    return pseudo_fields(lik, x_n, lik.spikes[index_n])[trial_k]


def reference_decay_convexity_slack(model, trials, seed, gamma, lam, window=3):
    """(min_slack, gradient calls) of ``empirical_decay_convexity`` written
    plainly: each scale's paths are drawn into a list first, then the pairs
    (i, j) with i - window <= j < i are enumerated in order and the scale's
    share of ``trials`` is taken from the front."""
    grad = FullObjective(model).grad
    rng = np.random.default_rng(seed)
    n_blocks, d = model.horizon + 1, model.dim
    weights = gamma_weights(n_blocks, gamma)
    scales = (0.1, 1.0, 10.0)
    slacks, calls = [], 0
    for s, scale in enumerate(scales):
        share = len(range(s, trials, len(scales)))
        count = 0
        while sum(min(i, window) for i in range(count)) < share:
            count += 1
        paths = [rng.standard_normal((n_blocks, d)) * scale for _ in range(count)]
        grads = [grad(x) for x in paths]
        calls += count
        pairs = [(i, j) for i in range(count) for j in range(max(0, i - window), i)]
        for i, j in pairs[:share]:
            dx = paths[i] - paths[j]
            dg = grads[i] - grads[j]
            inner = float(np.einsum("md,md->m", dx, dg) @ weights)
            sq = float(np.einsum("md,md->m", dx, dx) @ weights)
            slacks.append(inner - lam * sq)
    return min(slacks), calls


# ---------------------------------------------------------------------------
# Reference CSV I/O: one csv.writer / csv.reader call per row and one Python
# conversion per value. viterbipar.io must write the same bytes and read the
# same arrays.
# ---------------------------------------------------------------------------

def reference_write_table_csv(path, arr, prefix):
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"{prefix}{i}" for i in range(arr.shape[1])])
        for t in range(arr.shape[0]):
            writer.writerow([t] + [repr(float(v)) for v in arr[t]])


def reference_read_table_csv(path, prefix):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if not header or header[0] != "t" or any(
            h != f"{prefix}{i}" for i, h in enumerate(header[1:])
        ):
            raise ConfigError(f"{path}: expected header t,{prefix}0,... got {header}")
        rows = [[float(v) for v in row[1:]] for row in reader if row]
    return np.asarray(rows, dtype=float)


def reference_write_spike_bundle(directory, spikes, bin_width=0.01):
    spikes = np.asarray(spikes)
    T, R, N = spikes.shape
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    files = []
    for k in range(R):
        name = f"trial_{k}.csv"
        files.append(name)
        with open(directory / name, "w", newline="") as fh:
            csv.writer(fh).writerows(spikes[:, k].astype(np.int64).tolist())
    manifest = {"N": N, "R": R, "bin_width": bin_width, "files": files}
    with open(directory / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return directory / "manifest.json"


def reference_read_spike_bundle(manifest_path):
    manifest_path = Path(manifest_path)
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    trials = []
    for name in manifest["files"]:
        with open(manifest_path.parent / name, newline="") as fh:
            trials.append(np.asarray([[float(v) for v in row] for row in csv.reader(fh) if row]))
    spikes = np.stack(trials, axis=1)
    return spikes, spikes.mean(axis=(0, 1)), float(manifest.get("bin_width", 0.01))


def reference_write_sweep_csv(path, rows, bounds=None):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["delta", "rel_error", "wall_clock_s", "speedup"]
        if bounds is not None:
            header.append("segment_bound")
        writer.writerow(header)
        for i, row in enumerate(rows):
            out = [row.delta] + [repr(float(v)) for v in (row.rel_error, row.wall_clock_s, row.speedup)]
            if bounds is not None:
                out.append(repr(float(bounds[i])))
            writer.writerow(out)


def lg_signal(d=1, a=0.5, sigma_sq=1.0, b=0.0, b0=0.0, sigma0_sq=1.0, stationary=False):
    A = a * np.eye(d)
    Sigma = sigma_sq * np.eye(d)
    Sigma0 = stationary_covariance(A, Sigma) if stationary else sigma0_sq * np.eye(d)
    return LinearGaussianSignal(A, np.full(d, b), Sigma, np.full(d, b0), Sigma0)


def huber_signal(d=2, scale=0.1, c=1.0, bounds=None):
    # tanh drift: |A'| <= scale, |A''| <= scale * 0.7699; Huber: L_psi = 1, L_grad_psi = 1/c
    return HuberNonlinearSignal(
        drift_map=TanhDrift(scale),
        b=np.zeros(d),
        huber_c=c,
        lipschitz_bounds=bounds or (1.0, 1.0 / c, scale, 0.77 * scale),
    )


def gaussian_model(d=1, n=20, a=0.5, sigma_sq=1.0, seed=0, signal=None, **kw):
    signal = signal or lg_signal(d=d, a=a, sigma_sq=sigma_sq, **kw)
    lik = GaussianEmission(np.eye(signal.dim), np.eye(signal.dim))
    skeleton = ModelSpec(signal, lik, observations=np.zeros((n + 1, signal.dim)))
    _, ys = simulate(skeleton, n, seed)
    return ModelSpec(signal, lik, observations=ys)


def gaussian_model_with_obs(ys, a=0.5, sigma_sq=1.0, **kw):
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    if ys.shape[0] == 1:
        ys = ys.T
    d = ys.shape[1]
    signal = lg_signal(d=d, a=a, sigma_sq=sigma_sq, **kw)
    lik = GaussianEmission(np.eye(d), np.eye(d))
    return ModelSpec(signal, lik, observations=ys)


def student_model(d=1, n=12, seed=1, dof=1.0, signal=None):
    signal = signal or lg_signal(d=d)
    lik = StudentTEmission(dof=dof)
    skeleton = ModelSpec(signal, lik, observations=np.zeros((n + 1, signal.dim)))
    _, ys = simulate(skeleton, n, seed)
    return ModelSpec(signal, lik, observations=ys)


def stochvol_model(d=2, q=1, n=12, seed=2, signal=None, factors=None, ys=None, B=None):
    signal = signal or lg_signal(d=d, a=0.3, sigma_sq=0.5, stationary=True)
    rng = np.random.default_rng(seed + 1000)
    if factors is None:
        factors = rng.standard_normal((n + 1, q))
    if B is None:
        B = rng.standard_normal((signal.dim, q)) * 0.5
    lik = StochVolFactor(B, factors)
    if ys is None:
        skeleton = ModelSpec(signal, lik, observations=np.zeros((n + 1, signal.dim)))
        _, ys = simulate(skeleton, n, seed)
    return ModelSpec(signal, lik, observations=ys)


def random_spikes(N, R, T, seed=3):
    rng = np.random.default_rng(seed)
    return (rng.random((T, R, N)) < 0.4).astype(float)


def balanced_spikes(N, R, T):
    """Every (bin, neuron) has exactly R/2 spiking trials, varied patterns."""
    assert R % 2 == 0
    spikes = np.zeros((T, R, N))
    for t in range(T):
        for i in range(N):
            offset = (t + i) % R
            picks = [(offset + 2 * j) % R for j in range(R // 2)]
            spikes[t, picks, i] = 1.0
    return spikes


def neural_model(N=3, R=2, n=6, seed=4, exact=False, spikes=None, signal=None):
    d = N * (N - 1) // 2
    if spikes is None:
        spikes = random_spikes(N, R, n + 1, seed=seed)
    cls = NeuralExact if exact else NeuralPseudo
    lik = cls(N, R, spikes=spikes)
    signal = signal or lg_signal(d=d, a=0.4, sigma_sq=1.0)
    return ModelSpec(signal, lik, observations=None)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
