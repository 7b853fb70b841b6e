"""Exception types shared across the package."""


class FxhhwError(Exception):
    """Base class for all package-specific errors; ``violations`` lists each
    broken rule (a type that checks several reports all that fail)."""

    def __init__(self, violations):
        self.violations = [violations] if isinstance(violations, str) else list(violations)
        super().__init__("; ".join(self.violations))


class InvalidArgumentError(FxhhwError, ValueError):
    """An argument violates a documented precondition."""


class ConditioningError(FxhhwError):
    """A dense collocation solve was refused because the system is too ill-conditioned.

    Carries the condition-number estimate in ``cond``.
    """

    def __init__(self, message, cond):
        super().__init__(f"{message} (cond estimate {cond:.3e})")
        self.cond = cond


class GridDegeneracyError(FxhhwError):
    """Grid stretching produced non-increasing or effectively duplicate nodes."""


class ModelConfigError(FxhhwError, ValueError):
    """Model parameters are inconsistent (e.g. correlation matrix not PSD)."""


class AssemblyError(FxhhwError):
    """Operator assembly produced non-finite coefficients."""


class InstabilityError(FxhhwError):
    """Explicit time stepping diverged; carries the step index and growth factor."""

    def __init__(self, message, step=None, growth=None):
        super().__init__(message)
        self.step = step
        self.growth = growth


class KrylovConvergenceError(FxhhwError):
    """The Krylov subspace was exhausted before the residual estimate met tolerance."""

    def __init__(self, message, residual=None, dim=None):
        super().__init__(message)
        self.residual = residual
        self.dim = dim


class ChebyshevError(FxhhwError):
    """The Chebyshev exp-action could not vouch for its sum: a term went
    non-finite, the degree cap was reached, or the rounding indicator
    exceeded the tolerance.  Carries the terms summed in ``degree`` and the
    indicator in ``indicator`` (None when not computed)."""

    def __init__(self, message, degree=None, indicator=None):
        super().__init__(message)
        self.degree = degree
        self.indicator = indicator


class RangeError(FxhhwError, ValueError):
    """A query point or slice lies outside the computational domain."""


class ConfigError(FxhhwError, ValueError):
    """Invalid experiment configuration; carries every violation at once."""
