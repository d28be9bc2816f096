"""Error taxonomy shared by every module.

The split matters for the CLI exit-code contract: validation problems exit
with 1, numerical failures with 2, invariant-suite failures with 3.
"""


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


def checked_pow(x: float, y: float) -> float:
    """x ** y for Python floats, with overflow raised as a NumericalError."""
    try:
        return x ** y
    except OverflowError:
        raise NumericalError(f"{x!r} ** {y!r} overflows a double") from None
