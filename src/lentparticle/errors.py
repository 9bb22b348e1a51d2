"""Exception and warning types shared across the library.

Every error raised by this package derives from :class:`LentParticleError`,
so callers can catch one type at the boundary.  The subclasses separate
"your input is malformed" from "the model violates a standing assumption"
from "the numerics did not converge", which the command-line driver maps
onto distinct exit codes.
"""

from __future__ import annotations


class LentParticleError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(LentParticleError):
    """Invalid jump configuration: bad times, tied times, zero marks."""


class ModelError(LentParticleError):
    """A Levy model or coefficient set violates a standing assumption."""


class DomainError(LentParticleError):
    """Argument outside the admissible domain of an operation."""


class InputError(LentParticleError):
    """Malformed direct input (wrong shape, non-finite entries, bad value)."""


class StructureError(LentParticleError):
    """Carre-du-champ structure is inconsistent (non-PSD weight, psi > k)."""


class StateError(LentParticleError):
    """Operation requires trajectory fields that have not been computed."""


class FunctionalError(LentParticleError):
    """A user-supplied functional failed to evaluate or returned bad data."""


class NumericError(LentParticleError):
    """Numerical routine failed to reach its tolerance.

    Carries the residual estimate, and the failing item's ``index`` in a batch, when known.
    """

    def __init__(self, message: str, residual: float | None = None, index: int | None = None):
        if residual is not None:
            message = f"{message} (residual estimate {residual:.6g})"
        super().__init__(message)
        self.residual = residual
        self.index = index


class ConfigFileError(LentParticleError):
    """Invalid run configuration file; message names the offending key."""


class ConvergenceWarning(UserWarning):
    """Iteration stopped before reaching its target tolerance."""


class ConditioningWarning(UserWarning):
    """A linear-algebra object is close to singular; results may degrade."""
