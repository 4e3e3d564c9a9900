"""File formats: delimited path/observation tables, spike-trial bundles,
model configuration JSON, and report serialization.

Floats are written with shortest-roundtrip decimal text so every CSV
reads back bit-exactly.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .models.likelihoods import (
    GaussianEmission,
    NeuralExact,
    NeuralPseudo,
    StochVolFactor,
    StudentTEmission,
)
from .models.signals import (
    HuberNonlinearSignal,
    LinearDrift,
    LinearGaussianSignal,
    TanhDrift,
    stationary_covariance,
)
from .models.spec import ModelSpec

__all__ = [
    "write_table_csv",
    "read_table_csv",
    "write_path_csv",
    "write_observations_csv",
    "read_observations_csv",
    "read_factors_csv",
    "write_spike_bundle",
    "read_spike_bundle",
    "load_model_config",
    "write_sweep_csv",
]


def _fmt(value: float) -> str:
    return repr(float(value))


def write_table_csv(path, arr: np.ndarray, prefix: str):
    """Write a (T, k) array with header t,<prefix>0,...,<prefix>{k-1}."""
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"{prefix}{i}" for i in range(arr.shape[1])])
        for t in range(arr.shape[0]):
            writer.writerow([t] + [_fmt(v) for v in arr[t]])


def read_table_csv(path, prefix: str) -> np.ndarray:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if not header or header[0] != "t" or any(
            h != f"{prefix}{i}" for i, h in enumerate(header[1:])
        ):
            raise ConfigError(f"{path}: expected header t,{prefix}0,... got {header}")
        rows = [[float(v) for v in row[1:]] for row in reader if row]
    return np.asarray(rows, dtype=float)


def write_path_csv(path, blocks):
    write_table_csv(path, blocks, "x")


def write_observations_csv(path, ys):
    write_table_csv(path, ys, "y")


def read_observations_csv(path) -> np.ndarray:
    return read_table_csv(path, "y")


def read_factors_csv(path) -> np.ndarray:
    return read_table_csv(path, "z")


# ---------------------------------------------------------------------------
# Spike bundles: one CSV per trial plus a JSON manifest
# ---------------------------------------------------------------------------

def write_spike_bundle(directory, spikes: np.ndarray, bin_width: float = 0.01):
    """Write spikes (T, R, N) as trial_<k>.csv files plus manifest.json.

    Trial files are headerless 0/1 grids: rows are time bins, columns are
    neurons. A non-finite entry raises ValueError before anything is
    written.
    """
    spikes = np.asarray(spikes)
    T, R, N = spikes.shape
    if not np.all(np.isfinite(spikes)):
        raise ValueError("spikes must be finite")
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


def read_spike_bundle(manifest_path):
    """Load a spike bundle; returns (spikes (T,R,N), rates, bin_width).

    Per-neuron rates are the empirical means over bins and trials.
    """
    manifest_path = Path(manifest_path)
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    try:
        N, R = int(manifest["N"]), int(manifest["R"])
        files = manifest["files"]
        bin_width = float(manifest.get("bin_width", 0.01))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{manifest_path}: bad spike manifest: {exc}") from exc
    if not isinstance(files, list) or not all(isinstance(name, str) for name in files):
        raise ConfigError(f"{manifest_path}: bad spike manifest: 'files' must be a list of file names")
    if len(files) != R:
        raise ConfigError(f"{manifest_path}: manifest lists {len(files)} files for R={R}")
    trials = []
    for name in files:
        with open(manifest_path.parent / name, newline="") as fh:
            grid = [[float(v) for v in row] for row in csv.reader(fh) if row]
        trials.append(np.asarray(grid))
    spikes = np.stack(trials, axis=1)
    if spikes.shape[2] != N:
        raise ConfigError(f"{manifest_path}: trial files have {spikes.shape[2]} columns, N={N}")
    rates = spikes.mean(axis=(0, 1))
    return spikes, rates, bin_width


# ---------------------------------------------------------------------------
# Model configuration JSON
# ---------------------------------------------------------------------------

_JSON_KINDS = {dict: "an object", str: "a string"}


def _typed(cfg, key, ctx, kind):
    """cfg[key] when it is a ``kind``: dict for a section, str for a path."""
    value = cfg.get(key)
    if not isinstance(value, kind):
        raise ConfigError(f"{ctx}: {key!r} must be {_JSON_KINDS[kind]}")
    return value


def _num(cfg, key, ctx, default=None):
    """A scalar field as float; ``default`` when absent (required if None)."""
    if key not in cfg and default is None:
        raise ConfigError(f"{ctx}: missing field {key!r}")
    try:
        value = float(cfg.get(key, default))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{ctx}: field {key!r} is not a number") from exc
    return _finite(value, key, ctx)


def _arr(cfg, key, ctx):
    try:
        arr = np.asarray(cfg[key], dtype=float)
    except KeyError as exc:
        raise ConfigError(f"{ctx}: missing field {key!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{ctx}: field {key!r} is not numeric") from exc
    return _finite(arr, key, ctx)


def _finite(value, key, ctx):
    """``value`` when every entry is finite; JSON's NaN and Infinity are not."""
    if not np.all(np.isfinite(value)):
        raise ConfigError(f"{ctx}: field {key!r} is not finite")
    return value


def _build_signal(cfg, base_dir):
    kind = cfg.get("type")
    if kind == "linear_gaussian":
        sigma0 = cfg.get("Sigma0")
        A = _arr(cfg, "A", "signal")
        Sigma = _arr(cfg, "Sigma", "signal")
        if sigma0 == "stationary":
            Sigma0 = stationary_covariance(np.atleast_2d(A), np.atleast_2d(Sigma))
        else:
            Sigma0 = _arr(cfg, "Sigma0", "signal")
        return LinearGaussianSignal(A, _arr(cfg, "b", "signal"), Sigma, _arr(cfg, "b0", "signal"), Sigma0)
    if kind == "huber":
        drift_cfg = _typed(cfg, "drift_map", "signal", dict)
        dkind = drift_cfg.get("kind")
        if dkind == "linear":
            drift = LinearDrift(_arr(drift_cfg, "M", "drift_map"))
        elif dkind == "tanh":
            drift = TanhDrift(_num(drift_cfg, "scale", "drift_map", 0.5))
        else:
            raise ConfigError(f"signal: unknown drift kind {dkind!r}")
        bounds_cfg = _typed(cfg, "lipschitz_bounds", "signal", dict)
        bounds = tuple(
            _num(bounds_cfg, k, "lipschitz_bounds") for k in ("L_psi", "L_grad_psi", "L_A", "L_grad_A")
        )
        return HuberNonlinearSignal(
            drift_map=drift,
            b=_arr(cfg, "b", "signal"),
            huber_c=_num(cfg, "huber_c", "signal", 1.0),
            lipschitz_bounds=bounds,
        )
    raise ConfigError(f"signal: unknown type {kind!r}")


def _build_likelihood(cfg, base_dir):
    kind = cfg.get("type")
    if kind == "gaussian_emission":
        return GaussianEmission(_arr(cfg, "C", "likelihood"), _arr(cfg, "R", "likelihood"))
    if kind == "student_t":
        return StudentTEmission(dof=_num(cfg, "dof", "likelihood", 1.0))
    if kind == "stoch_vol":
        B = _arr(cfg, "B", "likelihood")
        if "factors" in cfg:
            factors = _arr(cfg, "factors", "likelihood")
        elif "factors_csv" in cfg:
            factors = read_factors_csv(base_dir / _typed(cfg, "factors_csv", "likelihood", str))
        else:
            raise ConfigError("likelihood: stoch_vol needs 'factors' or 'factors_csv'")
        return StochVolFactor(B, factors)
    if kind in ("neural_pseudo", "neural_exact"):
        spikes, rates, _ = read_spike_bundle(base_dir / _typed(cfg, "manifest", "likelihood", str))
        cls = NeuralPseudo if kind == "neural_pseudo" else NeuralExact
        return cls(spikes.shape[2], spikes.shape[1], rates_c=rates, spikes=spikes)
    raise ConfigError(f"likelihood: unknown type {kind!r}")


def load_model_config(path) -> ModelSpec:
    """Build a ModelSpec from a JSON document.

    The document holds ``signal`` and ``likelihood`` objects whose fields
    mirror the family constructors (matrices as row-major nested arrays),
    plus an optional top-level ``chi``. The spec holds no observations.
    """
    path = Path(path)
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must contain 'signal' and 'likelihood' objects")
    signal = _build_signal(_typed(cfg, "signal", "config", dict), path.parent)
    likelihood = _build_likelihood(_typed(cfg, "likelihood", "config", dict), path.parent)
    chi = None if cfg.get("chi") is None else _num(cfg, "chi", "config")
    return ModelSpec(signal, likelihood, chi=chi)


def write_sweep_csv(path, rows, bounds=None):
    """Sweep table: delta,rel_error,wall_clock_s,speedup plus an optional
    certified first-segment bound column."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["delta", "rel_error", "wall_clock_s", "speedup"]
        if bounds is not None:
            header.append("segment_bound")
        writer.writerow(header)
        for i, row in enumerate(rows):
            out = [row.delta, _fmt(row.rel_error), _fmt(row.wall_clock_s), _fmt(row.speedup)]
            if bounds is not None:
                out.append(_fmt(bounds[i]))
            writer.writerow(out)
