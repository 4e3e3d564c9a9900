"""The set-up every CLI command pays: load the model and observations
through ``viterbipar.io`` and make the solver configuration.

Shared by the run, which builds its in-process model the same way, and by
``setup_child.py``, which times it in a fresh interpreter. It imports
nothing of the benchmark, so the child's set-up carries none of the
benchmark's own imports.
"""

from pathlib import Path

from viterbipar import ModelSpec, SolverConfig, estimate_grad_lipschitz
from viterbipar import io as vio
from viterbipar.objective import FullObjective

GRAD_TOL = 1e-6
MAX_ITERS = 20000


def load_model(workload: str, input_dir: Path) -> ModelSpec:
    if workload == "spikes":
        # the model JSON names the spike bundle; loading it reads every trial CSV
        return vio.load_model_config(input_dir / "model.json")
    spec = vio.load_model_config(input_dir / "model.json")
    ys = vio.read_observations_csv(input_dir / "observations.csv")
    return ModelSpec(spec.signal, spec.likelihood, observations=ys, chi=spec.chi)


def solver_config(workload: str, model: ModelSpec) -> SolverConfig:
    if workload == "desk":
        # fixed-step descent at 1/L, as the acceptance sweeps run it
        L = estimate_grad_lipschitz(FullObjective(model), seed=0)
        return SolverConfig(step_mode="fixed", step_size=1.0 / L, max_iters=MAX_ITERS,
                            grad_tol=GRAD_TOL)
    return SolverConfig(grad_tol=GRAD_TOL, max_iters=MAX_ITERS)


def loaded_observations(workload: str, model: ModelSpec):
    return model.likelihood.spikes if workload == "spikes" else model.observations
