"""File formats: delimited path/observation tables, spike-trial bundles,
model configuration JSON, and report serialization.

Floats are written with shortest-roundtrip decimal text so every CSV
reads back bit-exactly. Tables are written a block of rows per call and
spike trials one byte block per file, with the bytes ``csv.writer``
writes (comma-separated, ``\\r\\n`` line ends); both are read with one
``np.loadtxt`` parse per file. Every row must have as many fields as the
header (or, in a trial file, as the manifest's ``N``); blank lines are
skipped.
"""

from __future__ import annotations

import csv
import json
from io import BytesIO, StringIO
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


# rows formatted and written per call: bounds the text held at once, so
# peak memory does not grow with the table; the bytes do not depend on it
_ROWS_PER_WRITE = 256


def _write_csv(path, header, lead, arr: np.ndarray):
    """Write ``header`` and one row ``lead[i],arr[i, 0],...`` per row of the
    float64 array ``arr``: the bytes ``csv.writer`` writes, floats in
    shortest-roundtrip ``repr``, converted to Python floats a block of rows
    at a time."""
    sep = "," if arr.shape[1] else ""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, arr.shape[0], _ROWS_PER_WRITE):
            hi = lo + _ROWS_PER_WRITE
            fh.write("".join([f"{a}{sep}{','.join(map(repr, row))}\r\n"
                              for a, row in zip(lead[lo:hi], arr[lo:hi].tolist())]))


def write_table_csv(path, arr: np.ndarray, prefix: str):
    """Write a (T, k) array with header t,<prefix>0,...,<prefix>{k-1}."""
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    _write_csv(path, ["t"] + [f"{prefix}{i}" for i in range(arr.shape[1])], range(arr.shape[0]), arr)


def _parse_rows(path, body: bytes, width: int, skip: int = 0, first_line: int = 1) -> np.ndarray:
    """The non-blank CSV rows of ``body`` as a C-contiguous float64 array of
    their fields ``skip`` to ``width - 1``, parsed by ``np.loadtxt``, whose
    C parser gives the same floats as ``float()``. A row with other than
    ``width`` fields, a field that is not a number, or no row at all raises
    ConfigError naming ``path`` (and the line, ``body`` starting at line
    ``first_line`` of the file)."""
    if not body or body.isspace():
        raise ConfigError(f"{path}: no data rows")
    try:
        arr = np.loadtxt(BytesIO(body), delimiter=",", quotechar='"', comments=None,
                         usecols=range(skip, width), ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"{path}: {_bad_row(body, width, first_line) or exc}") from exc
    # loadtxt ignores the fields past usecols; a row of ``width`` fields has
    # width - 1 commas, and no number holds one
    if body.count(b",") != arr.shape[0] * (width - 1):
        raise ConfigError(f"{path}: {_bad_row(body, width, first_line)}")
    return arr


def _bad_row(body: bytes, width: int, first_line: int) -> str | None:
    """Where the first non-blank row of ``body`` has other than ``width`` fields."""
    reader = csv.reader(StringIO(body.decode(errors="replace")))
    for row in reader:
        if row and len(row) != width:
            return f"line {reader.line_num + first_line - 1} has {len(row)} fields, expected {width}"
    return None


def read_table_csv(path, prefix: str) -> np.ndarray:
    """Read a table written by ``write_table_csv`` as a C-contiguous float64
    (T, k) array; the t column is not read."""
    with open(path, "rb") as fh:
        header = next(csv.reader([fh.readline().decode(errors="replace")]), [])
        if not header or header[0] != "t" or any(
            h != f"{prefix}{i}" for i, h in enumerate(header[1:])
        ):
            raise ConfigError(f"{path}: expected header t,{prefix}0,... got {header}")
        body = fh.read()
    return _parse_rows(path, body, len(header), skip=1, first_line=2)


def write_path_csv(path, blocks):
    write_table_csv(path, blocks, "x")


def write_observations_csv(path, ys):
    write_table_csv(path, ys, "y")


def read_observations_csv(path) -> np.ndarray:
    return read_table_csv(path, "y")


def read_factors_csv(path) -> np.ndarray:
    factors = read_table_csv(path, "z")
    if not np.all(np.isfinite(factors)):
        raise ConfigError(f"{path}: factor entries must be finite")
    return factors


# ---------------------------------------------------------------------------
# Spike bundles: one CSV per trial plus a JSON manifest
# ---------------------------------------------------------------------------

def write_spike_bundle(directory, spikes: np.ndarray):
    """Write spikes (T, R, N) as trial_<k>.csv files plus manifest.json.

    Trial files are headerless 0/1 grids: rows are time bins, columns are
    neurons. A non-finite entry, or any entry other than 0 and 1, raises
    ValueError before anything is written. Each trial is one byte block:
    digits and commas, each row ending in ``\\r\\n``.
    """
    spikes = np.asarray(spikes)
    T, R, N = spikes.shape
    if not np.all(np.isfinite(spikes)):
        raise ValueError("spikes must be finite")
    if not np.all((spikes == 0) | (spikes == 1)):
        raise ValueError("spikes must be 0 or 1")
    # row bytes: digit, comma, ..., digit, CR, LF (CR, LF alone when N = 0)
    grid = np.full((R, T, max(2 * N + 1, 2)), ord(","), dtype=np.uint8)
    digits = grid[:, :, 0:2 * N:2]
    digits[...] = spikes.transpose(1, 0, 2)
    digits += ord("0")
    grid[:, :, -2:] = (ord("\r"), ord("\n"))
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    files = []
    for k in range(R):
        name = f"trial_{k}.csv"
        files.append(name)
        (directory / name).write_bytes(grid[k].tobytes())
    manifest = {"N": N, "R": R, "files": files}
    with open(directory / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return directory / "manifest.json"


def read_spike_bundle(manifest_path):
    """Load a spike bundle as a float64 (T, R, N) array, one ``np.loadtxt``
    parse per trial file. Manifest keys other than ``N``, ``R`` and
    ``files`` (older bundles list ``bin_width``) are not read."""
    manifest_path = Path(manifest_path)
    manifest = _read_json(manifest_path)
    try:
        N, R = manifest["N"], manifest["R"]
        files = manifest["files"]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"{manifest_path}: bad spike manifest: {exc}") from exc
    if type(N) is not int or type(R) is not int:  # a bool is no int here
        raise ConfigError(f"{manifest_path}: bad spike manifest: 'N' and 'R' must be integers, "
                          f"got N={N!r}, R={R!r}")
    if not isinstance(files, list) or not all(isinstance(name, str) for name in files):
        raise ConfigError(f"{manifest_path}: bad spike manifest: 'files' must be a list of file names")
    if R < 1 or len(files) != R:
        raise ConfigError(f"{manifest_path}: manifest lists {len(files)} files for R={R} (R >= 1)")
    trials = []
    for name in files:
        path = manifest_path.parent / name
        body = path.read_bytes()
        # the parse sizes its columns by N, so N must first match a row (a
        # row has at least one field, so this also rejects N < 1)
        width = body.lstrip().partition(b"\n")[0].count(b",") + 1
        if body.strip() and width != N:
            raise ConfigError(f"{manifest_path}: N={N}, but the first row of {name} has {width} fields")
        trials.append(_parse_rows(path, body, N))
    counts = sorted({trial.shape[0] for trial in trials})
    if len(counts) > 1:
        raise ConfigError(f"{manifest_path}: trial files differ in row count: {counts}")
    return np.stack(trials, axis=1)


# ---------------------------------------------------------------------------
# Model configuration JSON
# ---------------------------------------------------------------------------

_JSON_KINDS = {dict: "an object", str: "a string"}


def _read_json(path):
    """The JSON document in the file ``path``; ConfigError naming it if not JSON text."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except ValueError as exc:  # json.JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc


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
        b = _arr(cfg, "b", "signal")
        if dkind == "linear":
            drift = LinearDrift(_arr(drift_cfg, "M", "drift_map"))
            # a b that is not a nonempty vector is the signal's ShapeError below
            if b.ndim == 1 and b.size and drift.M.shape != (b.size,) * 2:
                raise ConfigError(f"drift_map: field 'M' has shape {drift.M.shape}, expected "
                                  f"{b.size}x{b.size} for the {b.size} entries of 'b'")
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
            b=b,
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
        spikes = read_spike_bundle(base_dir / _typed(cfg, "manifest", "likelihood", str))
        cls = NeuralPseudo if kind == "neural_pseudo" else NeuralExact
        return cls(spikes.shape[2], spikes.shape[1], spikes=spikes)
    raise ConfigError(f"likelihood: unknown type {kind!r}")


def load_model_config(path) -> ModelSpec:
    """Build a ModelSpec from a JSON document.

    The document holds ``signal`` and ``likelihood`` objects whose fields
    mirror the family constructors (matrices as row-major nested arrays),
    plus an optional top-level ``chi``. The spec holds no observations.
    """
    path = Path(path)
    cfg = _read_json(path)
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must contain 'signal' and 'likelihood' objects")
    signal = _build_signal(_typed(cfg, "signal", "config", dict), path.parent)
    likelihood = _build_likelihood(_typed(cfg, "likelihood", "config", dict), path.parent)
    chi = None if cfg.get("chi") is None else _num(cfg, "chi", "config")
    return ModelSpec(signal, likelihood, chi=chi)


def write_sweep_csv(path, rows, bounds=None):
    """Sweep table: delta,rel_error,wall_clock_s,speedup plus an optional
    certified first-segment bound column."""
    header = ["delta", "rel_error", "wall_clock_s", "speedup"]
    cols = [[r.rel_error for r in rows], [r.wall_clock_s for r in rows], [r.speedup for r in rows]]
    if bounds is not None:
        header.append("segment_bound")
        cols.append(bounds)
    _write_csv(path, header, [r.delta for r in rows], np.array(cols, dtype=float).T)
