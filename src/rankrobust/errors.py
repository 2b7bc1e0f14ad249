"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ShapeError(ValueError):
    """Operands do not live on the same state/outcome space."""


class ImageOverflowError(ValueError):
    """A utility-scale combination leaves the image of the utility function.

    Raised instead of clamping: silently saturating would corrupt the
    additivity identities the mixture algebra is built on.
    """

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


class UnknownPriorError(LookupError):
    """A tabulated ambiguity index was queried at a prior not on its grid."""


class SpecStringError(ValueError):
    """A utility/distortion/penalty/prior spec string failed to parse."""


class ScenarioError(ValueError):
    """A scenario or panel file violated the documented schema."""


class ConfigError(ValueError):
    """An operation was invoked with an unsupported configuration."""


class BudgetError(ValueError):
    """An optimizer budget is too small to cover its coarse grid."""


class SolverError(ValueError):
    """A numerical solver stopped without an answer the caller can use."""
