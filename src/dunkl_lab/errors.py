"""Exception types shared across the package, and its argument checks' integer test."""

import numbers


def _integral(x):
    """An integer, a bool excepted: bool is ``Integral``, but True is not a
    path count or a seed."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


class DunklLabError(Exception):
    """Base class for every error raised by this package."""


class InvalidArgumentError(DunklLabError, ValueError):
    """An argument violates a documented precondition."""


class DegenerateDirectionError(InvalidArgumentError):
    """The direction used to split a root system is orthogonal to a root."""


class GroupCapExceededError(DunklLabError):
    """Reflection closure grew past the configured element cap."""


class DomainError(DunklLabError, ValueError):
    """A function was evaluated outside its domain of definition."""


class SingularDriftError(DomainError):
    """The drift field was evaluated on a reflecting hyperplane."""


class SingularClockError(DomainError):
    """A jump clock is singular: a path meets a wall, or its total is absurd."""


class InvalidPlanError(InvalidArgumentError):
    """A lift plan requests the Poisson shortcut where it is not valid."""


class UnsupportedRegimeError(InvalidArgumentError):
    """Parameters fall outside the regime the construction supports."""


class ConfigError(DunklLabError, ValueError):
    """A run configuration failed schema validation.

    ``pointer`` locates the offending entry as a JSON pointer.
    """

    def __init__(self, message, pointer=""):
        super().__init__(f"{pointer or '/'}: {message}")
        self.pointer = pointer
