"""Set-up as every CLI command pays it, in a fresh interpreter.

Usage: python3 bench/setup_child.py <workload> <input dir> [--trace]

Imports ``viterbipar.cli``, loads the model JSON and the observations
through ``viterbipar.io``, builds the ``ModelSpec`` and the solver
configuration, then prints one JSON line with ``time.monotonic`` stamps
of the phases (CLOCK_MONOTONIC, comparable with the parent's launch
stamp) and a SHA-256 of the loaded observations, so that the parent can
check that what was loaded is what was written.
"""

import time

T_START = time.monotonic()

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main():
    workload, input_dir = sys.argv[1], Path(sys.argv[2])
    stamps = {"start": T_START}

    import viterbipar.cli  # noqa: F401  (the import every command pays)
    from viterbipar import io as vio

    import loading

    stamps["imported"] = time.monotonic()
    read_s = []
    if "--trace" in sys.argv[3:]:
        for fname in ("read_observations_csv", "read_spike_bundle"):
            setattr(vio, fname, _timed(getattr(vio, fname), read_s))
    model = loading.load_model(workload, input_dir)
    loading.solver_config(workload, model)
    stamps["ready"] = time.monotonic()

    loaded = loading.loaded_observations(workload, model)
    print(json.dumps({
        "stamps": stamps,
        "read_obs_s": sum(read_s),
        "sha256": hashlib.sha256(loaded.tobytes()).hexdigest(),
    }))


def _timed(fn, sink):
    def timed(*args, **kwargs):
        t0 = time.monotonic()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append(time.monotonic() - t0)

    return timed


if __name__ == "__main__":
    main()
