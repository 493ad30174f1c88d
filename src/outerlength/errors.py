"""Exception types shared across the package, and the check of a count argument."""

import operator


class OuterLengthError(Exception):
    """Base class for all package errors."""


class OvalValidationError(OuterLengthError):
    """A support function violates positivity, convexity, or periodicity;
    `report` is the failed survey, None for data that cannot be surveyed."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ConfigError(OuterLengthError, ValueError):
    """An argument is outside the values the function accepts."""


def checked_count(value, name, least, below=None):
    """`operator.index(value)`; ConfigError naming the argument `name` unless
    `value` is an integer in [least, below), or >= least when `below` is None."""
    try:
        k = operator.index(value)
    except TypeError:  # a float, even an integral one, as `range` refuses it
        k = least - 1
    if k < least or (below is not None and k >= below):
        span = f"an integer >= {least}" if below is None else (
            f"in range({below})" if least == 0 else f"in range({least}, {below})")
        raise ConfigError(f"{name} = {value!r} is not {span}")
    return k


class ContainmentError(OuterLengthError):
    """A point that must lie strictly outside the oval does not."""


class ChordDomainError(OuterLengthError):
    """Tangency-angle gap outside the admissible open interval (0, pi)."""


class StepFailureError(OuterLengthError):
    """The billiard step has no root in the admissible bracket."""


class ConvergenceError(OuterLengthError):
    """An iterative solve did not reach its target residual."""


class TableConstructionError(OuterLengthError):
    """Base class for table-constructor failures."""


class FPrimeBoundError(TableConstructionError):
    """|f'| reaches 2 somewhere, so the tangency gap degenerates."""


class ReparamError(TableConstructionError):
    """The angle reparameterization x -> alpha(x) is not monotone."""


class ConvexityError(TableConstructionError):
    """The constructed boundary has non-positive curvature radius."""


class ArcConstraintError(TableConstructionError):
    """A seed arc violates its endpoint constraints."""


class SeamError(TableConstructionError):
    """Extension pieces do not meet continuously."""
