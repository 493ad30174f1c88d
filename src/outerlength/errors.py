"""Exception types shared across the package."""


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
