"""Exception types shared across the pricing engine."""


class ThreeHalvesError(Exception):
    """Base class for all errors raised by this package."""


class SpecfunDomainError(ThreeHalvesError):
    """Input outside the domain of a special function (e.g. a gamma pole)
    or of its rows x columns layout."""


class SeriesNonConvergenceError(ThreeHalvesError):
    """A series did not meet its stopping rule within the term budget."""

    def __init__(self, message, worst_index=None):
        super().__init__(message)
        self.worst_index = worst_index


class DeltaRegimeError(ThreeHalvesError):
    """Time separation too small: the quantity degenerates to a Dirac mass."""


class CurveDomainError(ThreeHalvesError):
    """Requested time interval exceeds the domain of a piecewise curve."""


class InvalidParametersError(ThreeHalvesError):
    """Model or product parameters violate a structural constraint."""

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = tuple(violations or ())


class QuadratureNonConvergenceError(ThreeHalvesError):
    """Adaptive integration failed to reach the requested tolerance."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class BranchCutWarning(UserWarning):
    """A complex square root came close to its branch cut along a contour."""
