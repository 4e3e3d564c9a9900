"""Exception types shared across the package.

The CLI maps these onto its exit-code scheme (config 2, I/O 3,
divergence 4, certification 5). Its other codes are 1, a ``verify``
check failed, and 6, a worker process died.
"""


class ViterbiParError(Exception):
    """Base class for package-specific errors."""


class ShapeError(ViterbiParError, ValueError):
    """Mismatched path / observation / block dimensions."""


class PlanError(ViterbiParError, ValueError):
    """Invalid segment-plan parameters (non-divisible horizon, oversized overlap)."""


class DivergenceError(ViterbiParError, RuntimeError):
    """A solver iterate produced a non-finite objective or gradient.

    Carries the first offending iteration (and segment index when raised
    from a parallel solve).
    """

    def __init__(self, message, iteration=None, segments=None):
        super().__init__(message)
        self.iteration = iteration
        self.segments = segments


class CertificationError(ViterbiParError, ValueError):
    """Certificate construction failed (e.g. a covariance is not SPD)."""


class UnsupportedBoundError(ViterbiParError, RuntimeError):
    """No certified eta bound is available for this model (chi missing and
    no model-specific specialization applies)."""


class UnsupportedModeError(ViterbiParError, ValueError):
    """A windowed boundary mode was requested that the model cannot supply
    (e.g. marginal-prior without computable signal marginals)."""


class ConfigError(ViterbiParError, ValueError):
    """A run/model configuration file failed validation."""
