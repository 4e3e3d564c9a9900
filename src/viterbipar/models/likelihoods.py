"""Observation likelihood families.

Each family exposes the same array-level interface:

``log_terms(xs, ys)``
    per-index log g(x_m, y_m) for the time indices 0..len-1;
``grad(xs, ys)``
    the block gradients of those terms with respect to x_m;
``sample(xs, rng)``
    observation draws given a state path.

``ys`` holds the matching observations: an (len, p) array for vector
emissions, or an (len, R, N) binary array for the spiking families. A
family that stores a time series of its own (the factor model's factors)
reads it from index 0, so a later stretch of time is a family built on
the sliced series (see ``ModelSpec.window``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, ShapeError
from .signals import _LOG_2PI, LinearDrift, _as_spd, _finite

__all__ = [
    "GaussianEmission",
    "StudentTEmission",
    "StochVolFactor",
    "NeuralPseudo",
    "NeuralExact",
    "coupling_matrix",
]

class GaussianEmission:
    """y_m = C x_m + N(0, R) noise. The conjugate, oracle-checkable family.

    C and R must be finite. The kernels run on the ``LinearDrift`` maps of
    C, R^-1 and R^-1 C, so each of them multiplies by its diagonal when it
    is square and diagonal (see ``LinearDrift``).
    """

    def __init__(self, C, R):
        self.C = np.atleast_2d(_finite("C", C))
        self.R = np.atleast_2d(np.asarray(R, dtype=float))
        if self.C.ndim != 2:
            raise ShapeError(f"C must be a matrix, got shape {self.C.shape}")
        p = self.C.shape[0]
        if self.R.shape != (p, p):
            raise ShapeError(f"R must be {p}x{p} (one row per row of C), got {self.R.shape}")
        _, self._chol_R, self._logdet_R = _as_spd("R", self.R)
        self.R_inv = _finite("R^-1", np.linalg.inv(self.R))
        self.RinvC = self.R_inv @ self.C
        self.CtRinvC = self.C.T @ self.RinvC
        self._c_map, self._ri_map, self._ric_map = map(LinearDrift, (self.C, self.R_inv, self.RinvC))

    @property
    def obs_dim(self) -> int:
        return self.C.shape[0]

    def state_dim(self) -> int | None:
        return self.C.shape[1]

    def residuals(self, xs, ys):
        """y_m - C x_m as a fresh array the callers below reuse as scratch."""
        r = self._c_map(xs)
        return np.subtract(ys, r, out=r)

    def log_terms(self, xs, ys):
        q = self._ri_map.quadratic_form(self.residuals(xs, ys), per_row=True)
        return -0.5 * (q + self._logdet_R + self.obs_dim * _LOG_2PI)

    def grad(self, xs, ys):
        """The residuals' pullback by R^-1 C, in their own array when C is square."""
        r = self.residuals(xs, ys)
        return self._ric_map.pullback(r, out=r if r.shape == xs.shape else None)

    def sample(self, xs, rng):
        noise = rng.standard_normal((xs.shape[0], self.obs_dim)) @ self._chol_R.T
        return xs @ self.C.T + noise


@dataclass(frozen=True)
class StudentTEmission:
    """Heavy-tailed per-coordinate emission centered at the state.

    Each coordinate of y - x follows a Student t with ``dof`` degrees of
    freedom (dof = 1 is the Cauchy case).
    """

    dof: float = 1.0

    def __post_init__(self):
        _finite("dof", self.dof)
        if not self.dof > 0:
            raise ConfigError(f"dof must be positive, got {self.dof}")

    def _log_const(self, d: int) -> float:
        v = self.dof
        per = math.lgamma((v + 1) / 2) - math.lgamma(v / 2) - 0.5 * math.log(v * math.pi)
        return d * per

    def state_dim(self) -> int | None:
        return None  # matches any d; obs dim equals state dim

    def log_terms(self, xs, ys):
        v = self.dof
        r = ys - xs
        return -0.5 * (v + 1) * np.sum(np.log1p(r * r / v), axis=1) + self._log_const(xs.shape[1])

    def grad(self, xs, ys):
        v = self.dof
        r = ys - xs
        return (v + 1) * r / (v + r * r)

    def sample(self, xs, rng):
        return xs + rng.standard_t(self.dof, size=xs.shape)


class StochVolFactor:
    """Factor-model likelihood with the state as per-asset log variances.

    Returns y_m = B z_m + exp(x_m/2) * standard normal noise, with observed
    factors z_m. The state dimension equals the asset count d.
    """

    def __init__(self, B, factors):
        self.B = np.atleast_2d(_finite("B", B))
        self.factors = np.atleast_2d(_finite("factors", factors))
        if self.B.ndim != 2 or self.factors.ndim != 2:
            raise ShapeError(f"B and factors must be matrices, got shapes {self.B.shape} and {self.factors.shape}")
        if self.factors.shape[1] != self.B.shape[1]:
            raise ShapeError(
                f"factor dim {self.factors.shape[1]} does not match B columns {self.B.shape[1]}"
            )
        self.factor_means = self.factors @ self.B.T  # B z_m, one row per time index

    @property
    def obs_dim(self) -> int:
        return self.B.shape[0]

    def state_dim(self) -> int | None:
        return self.B.shape[0]

    def _means(self, length):
        """B z_m for m = 0..length-1; the factors must cover them."""
        if length > self.factor_means.shape[0]:
            raise ShapeError(
                f"factors cover {self.factor_means.shape[0]} indices, need {length}"
            )
        return self.factor_means[:length]

    def log_terms(self, xs, ys):
        r = ys - self._means(xs.shape[0])
        d = xs.shape[1]
        return -0.5 * (np.sum(xs, axis=1) + np.sum(r * r * np.exp(-xs), axis=1) + d * _LOG_2PI)

    def grad(self, xs, ys):
        r = ys - self._means(xs.shape[0])
        return 0.5 * (r * r * np.exp(-xs) - 1.0)

    def sample(self, xs, rng):
        eps = rng.standard_normal(xs.shape)
        return self._means(xs.shape[0]) + np.exp(0.5 * xs) * eps


# ---------------------------------------------------------------------------
# Pairwise neural coupling families
# ---------------------------------------------------------------------------

# float64 entries per temporary of the configuration-enumerating kernels;
# time bins are processed in chunks that keep each temporary below it
_CHUNK_ENTRIES = 1 << 18


def _chunks(T: int, width: int):
    """Slices of 0..T-1 whose (bins, width) temporaries fit _CHUNK_ENTRIES."""
    step = max(1, _CHUNK_ENTRIES // width)
    return (slice(s, min(s + step, T)) for s in range(0, T, step))


def _softmax(E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise softmax of a 2-D array and the rows' log-sum-exp.

    Both come from exp(E - top) with top the row maxima, so no finite
    entry overflows.
    """
    top = np.max(E, axis=1, keepdims=True)
    P = np.exp(E - top)
    total = np.sum(P, axis=1, keepdims=True)
    P /= total
    return P, (top + np.log(total))[:, 0]


@functools.lru_cache(maxsize=32)
def _pair_index(N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat indices of the N(N-1)/2 neuron pairs (i, j), i < j, in the
    row-major (N*N,) layout of an (N, N) matrix: ``up`` holds i*N + j,
    ``lo`` holds j*N + i, and ``fill`` maps each of the N*N entries to
    its pair's coordinate, the diagonal to coordinate N(N-1)/2."""
    i, j = np.triu_indices(N, k=1)
    up, lo = i * N + j, j * N + i
    fill = np.full(N * N, i.shape[0])
    fill[up] = fill[lo] = np.arange(i.shape[0])
    for index in (up, lo, fill):  # shared by every caller
        index.setflags(write=False)
    return up, lo, fill


def coupling_matrix(x: np.ndarray, N: int) -> np.ndarray:
    """Symmetric zero-diagonal coupling matrix from the flat vector x.

    A (d,) vector gives an (N, N) matrix and a (T, d) stack a (T, N, N)
    stack: one gather from x with a zero appended for the diagonal.
    """
    x = np.asarray(x, dtype=float)
    d = N * (N - 1) // 2
    if x.ndim not in (1, 2) or x.shape[-1] != d:
        raise ShapeError(f"coupling vector must have length N(N-1)/2 = {d}")
    padded = np.empty(x.shape[:-1] + (d + 1,))
    np.add(x, 0.0, out=padded[..., :d])  # -0.0 becomes +0.0, as in X + X.T
    padded[..., d] = 0.0
    # take, unlike fancy indexing on the last axis, returns a C-ordered
    # stack, and matmul's last bits depend on the layout
    X = np.take(padded, _pair_index(N)[2], axis=-1)
    return X.reshape(x.shape[:-1] + (N, N))


class _NeuralBase:
    """Shared storage/validation for the spiking-coupling families, and the
    data their kernels derive from the spikes."""

    def __init__(self, N, R, rates_c=None, spikes=None):
        self.N = int(N)
        self.R = int(R)
        if self.N < 2 or self.R < 1:
            raise ShapeError("need at least two neurons and one trial")
        spikes = np.asarray(spikes, dtype=float)
        if spikes.ndim != 3 or spikes.shape[1] != self.R or spikes.shape[2] != self.N:
            raise ShapeError(
                f"spikes must be (time, R={self.R}, N={self.N}), got {spikes.shape}"
            )
        if not np.all((spikes == 0.0) | (spikes == 1.0)):
            raise ShapeError("spikes must be a 0/1 array")
        self.spikes = spikes
        if rates_c is None:
            rates_c = spikes.mean(axis=(0, 1))
        self.rates_c = _finite("rates_c", rates_c).reshape(-1)
        if self.rates_c.shape[0] != self.N:
            raise ShapeError("rates_c must have one entry per neuron")
        if np.any(self.rates_c < 0.0) or np.any(self.rates_c > 1.0):
            raise ShapeError("rates_c entries must lie in [0, 1]")
        self._rates_rows = np.tile(self.rates_c, self.R)

    def _centred(self, ys):
        """ys - rates_c, subtracted on (T, R*N) rows against the rates tiled
        once: the same bytes as broadcasting over the short N axis, faster."""
        T, R, N = ys.shape
        return (ys.reshape(T, R * N) - self._rates_rows).reshape(T, R, N)

    def _derive(self, ys):
        """The read-only arrays the kernels take from ys alone."""
        raise NotImplementedError

    @functools.cached_property
    def _own_data(self):
        return self._derive(self.spikes)

    def _data(self, ys):
        """``_derive(ys)``, derived once per family for its own spikes, which
        the objective always passes; any other ys is derived per call."""
        return self._own_data if ys is self.spikes else self._derive(ys)

    def __getstate__(self):
        """Pickles and copies carry the spikes, never the data derived from
        them: a segment job stays the size of its spikes."""
        state = self.__dict__.copy()
        state.pop("_own_data", None)
        return state

    @property
    def d(self) -> int:
        return self.N * (self.N - 1) // 2

    def state_dim(self) -> int | None:
        return self.d

    @property
    def n_times(self) -> int:
        return self.spikes.shape[0]


class NeuralPseudo(_NeuralBase):
    """Pseudo-likelihood for pairwise spike coupling.

    Each neuron/trial factor is exp(y z) / (1 + exp(y z)) where z is the
    local field of the neuron given the other neurons' centered spikes.

    The kernels allocate little per call. The centred spikes and half the
    spikes are derived once per family (``_data``); ``coupling_matrix``
    builds the (T, N, N) coupling stack in one gather; the fields are one
    batched matmul, divided by R in place; ``grad`` runs its tanh chain in
    the fields' own buffer and reads each pair's sum M[i, j] + M[j, i] by
    two flat gathers of the (T, N*N) product. ``log_terms`` takes log
    sigmoid(t) as min(t, 0) - log1p(exp(-|t|)), which numpy vectorises and
    which loses no bits to cancellation at large |t|.
    """

    def _derive(self, ys):
        yc, half = self._centred(ys), 0.5 * ys
        for a in (yc, half):
            a.setflags(write=False)
        return yc, half

    def _fields(self, xs, ys):
        """Local fields z, shape (T, R, N), and ``_data(ys)``: the centred
        spikes and half the spikes."""
        data = self._data(ys)
        z = np.matmul(data[0], coupling_matrix(xs, self.N))
        z /= self.R
        return z, data

    def log_terms(self, xs, ys):
        t, _ = self._fields(xs, ys)
        t *= ys
        e = np.abs(t)
        np.negative(e, out=e)
        np.exp(e, out=e)
        np.log1p(e, out=e)
        np.minimum(t, 0.0, out=t)
        t -= e
        return np.sum(t, axis=(1, 2))

    def grad(self, xs, ys):
        D, (yc, half) = self._fields(xs, ys)
        # D = ys (1 - expit(ys z)) = ys * 0.5 (1 - tanh(0.5 ys z)), by tanh
        # so that no finite field overflows; in place, in z's buffer
        D *= half
        np.tanh(D, out=D)
        np.subtract(1.0, D, out=D)
        D *= half
        M = np.matmul(np.swapaxes(D, 1, 2), yc).reshape(D.shape[0], -1)
        up, lo, _ = _pair_index(self.N)
        G = M[:, up]
        G += M[:, lo]
        G /= self.R
        return G

    def sample(self, xs, rng):
        return _sample_exact_field(self, xs, rng)


class NeuralExact(_NeuralBase):
    """Exactly normalized pairwise spike-coupling likelihood.

    The per-configuration normalizer is computed by enumerating all 2^N
    spike patterns, so construction is capped at N <= 10.
    """

    MAX_NEURONS = 10

    def __init__(self, N, R, rates_c=None, spikes=None):
        if int(N) > self.MAX_NEURONS:
            raise ShapeError(
                f"exact normalizer is limited to N <= {self.MAX_NEURONS} neurons, got {N}"
            )
        super().__init__(N, R, rates_c=rates_c, spikes=spikes)
        self._pairs = _config_pairs(self.N, self.rates_c)

    def _log_normalizers(self, xs):
        out = np.empty(xs.shape[0])
        for sl in _chunks(xs.shape[0], self._pairs.shape[0]):
            out[sl] = _softmax(xs[sl] @ self._pairs.T)[1]
        return out

    def _normalizer_grads(self, xs):
        """Centered pair-product means under each configuration distribution."""
        out = np.empty_like(xs)
        for sl in _chunks(xs.shape[0], self._pairs.shape[0]):
            out[sl] = _softmax(xs[sl] @ self._pairs.T)[0] @ self._pairs
        return out

    def _derive(self, ys):
        """Centered pair-product means over trials, shape (T, d)."""
        yc = self._centred(ys)
        M = np.matmul(np.swapaxes(yc, 1, 2), yc).reshape(yc.shape[0], -1)
        suff = M[:, _pair_index(self.N)[0]] / self.R
        suff.setflags(write=False)
        return suff

    def log_terms(self, xs, ys):
        return np.einsum("md,md->m", xs, self._data(ys)) - self._log_normalizers(xs)

    def grad(self, xs, ys):
        return self._data(ys) - self._normalizer_grads(xs)

    def sample(self, xs, rng):
        return _sample_exact_field(self, xs, rng)


def _enumerate_configs(N: int) -> np.ndarray:
    ints = np.arange(2 ** N, dtype=np.int64)
    return ((ints[:, None] >> np.arange(N)) & 1).astype(float)


def _config_pairs(N: int, rates_c: np.ndarray) -> np.ndarray:
    """pairs[c, k] = Ec[c, i_k] Ec[c, j_k] for the centered configurations
    Ec, shape (2^N, d): the energy of configuration c under coupling x is
    pairs[c] @ x."""
    Ec = _enumerate_configs(N) - rates_c
    i, j = np.triu_indices(N, k=1)
    return Ec[:, i] * Ec[:, j]


def _sample_exact_field(family, xs, rng):
    """Draw spikes from the exactly normalized pairwise field, per trial.

    Pseudo-likelihoods are not generative, so both spiking families sample
    from the exact field; this keeps the N <= 10 enumeration cap. Each
    bin's R uniforms invert that bin's configuration CDF (first entry
    above the draw), which consumes the generator as ``rng.choice`` with
    ``p`` does bin after bin.
    """
    N = family.N
    if N > NeuralExact.MAX_NEURONS:
        raise ShapeError(
            f"spike simulation enumerates configurations and needs N <= "
            f"{NeuralExact.MAX_NEURONS}, got {N}"
        )
    configs = _enumerate_configs(N)
    pairs = _config_pairs(N, family.rates_c)
    T, R = xs.shape[0], family.R
    u = rng.random((T, R))
    picks = np.empty((T, R), dtype=np.int64)
    for sl in _chunks(T, R * configs.shape[0]):
        cdf = np.cumsum(_softmax(xs[sl] @ pairs.T)[0], axis=1)
        cdf /= cdf[:, -1:]
        picks[sl] = np.count_nonzero(cdf[:, None, :] <= u[sl, :, None], axis=2)
    return configs[picks]

