"""Exception types shared across the package.

Each class carries the CLI exit code and the stderr label of its
failures: configuration 2 (the base class, and so every subclass that
does not override it), divergence 4, certification 5. The CLI's other
codes are its own: 1 a ``verify`` check failed, 3 an I/O error, 6 a
worker process died, 7 an internal error.
"""


class ViterbiParError(Exception):
    """Base class for package-specific errors."""

    exit_code = 2
    label = "configuration error"


class ShapeError(ViterbiParError, ValueError):
    """Mismatched path / observation / block dimensions."""


class PlanError(ViterbiParError, ValueError):
    """Invalid segment-plan parameters (non-divisible horizon, oversized overlap)."""


class DivergenceError(ViterbiParError, RuntimeError):
    """A solver iterate produced a non-finite objective or gradient.

    Carries the first offending iteration (and segment index when raised
    from a parallel solve).
    """

    exit_code = 4
    label = "solver divergence"

    def __init__(self, message, iteration=None, segments=None):
        super().__init__(message)
        self.iteration = iteration
        self.segments = segments


class CertificationError(ViterbiParError, ValueError):
    """Certificate construction failed (e.g. a covariance is not SPD)."""

    exit_code = 5
    label = "certification error"


class UnsupportedBoundError(ViterbiParError, RuntimeError):
    """No certified eta bound is available for this model (chi missing and
    no model-specific specialization applies)."""

    exit_code = 5
    label = "certification error"


class UnsupportedModeError(ViterbiParError, ValueError):
    """A windowed boundary mode was requested that the model cannot supply
    (e.g. marginal-prior without computable signal marginals)."""


class ConfigError(ViterbiParError, ValueError):
    """A run/model configuration or input value failed validation."""
