"""Error taxonomy shared by every module.

The split matters for the CLI exit-code contract: validation problems exit
with 1, numerical failures with 2, invariant-suite failures with 3.
"""

import math


class CircleEnergyError(Exception):
    """Base class for package errors."""


class DomainError(CircleEnergyError, ValueError):
    """An argument lies outside the documented domain of an operation."""


class ValidationError(CircleEnergyError, ValueError):
    """A configuration, map spec or geometric input fails validation."""


class ResourceGuardError(CircleEnergyError, ValueError):
    """A depth/size parameter exceeds the guarded resource ceiling."""


class ConvergenceError(CircleEnergyError, RuntimeError):
    """An iterative solve failed to reach its tolerance."""


class NumericalError(CircleEnergyError, RuntimeError):
    """A computation produced non-finite or otherwise unusable values."""


class InsufficientDataError(CircleEnergyError, ValueError):
    """Not enough levels/samples to run a diagnostic."""


def check_lambda(lam) -> float:
    """lam as a float; the exponent range is the open interval (-1, inf)."""
    lam = float(lam)
    if not -1.0 < lam < math.inf:
        raise DomainError(f"lambda must be finite and exceed -1, got {lam}")
    return lam


def check_level(j, maximum: int, minimum: int = 1, what: str = "level") -> None:
    """An integer depth in [minimum, maximum]; above it is a resource guard."""
    if not isinstance(j, int) or j < minimum:
        raise DomainError(f"{what} must be an integer >= {minimum}, got {j!r}")
    if j > maximum:
        raise ResourceGuardError(f"{what} {j} exceeds guard {maximum}")


def checked_pow(x: float, y: float) -> float:
    """x ** y for Python floats, with overflow raised as a NumericalError."""
    try:
        return x ** y
    except OverflowError:
        raise NumericalError(f"{x!r} ** {y!r} overflows a double") from None
