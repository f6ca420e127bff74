"""Exception types shared across the package."""


class CurveflowError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(CurveflowError, ValueError):
    """Input violates a documented precondition."""


class DegenerateGeometryError(InvalidInputError):
    """Geometry too degenerate to process (coincident vertices, too few samples)."""


class ExtinctError(CurveflowError):
    """Geometry has collapsed below the extinction threshold (not an input error)."""


class FitFailureError(CurveflowError):
    """Least-squares model fit failed or produced a degenerate model."""


class NumericalBreakdownError(CurveflowError):
    """Evolution produced states that violate basic geometric sanity."""


class NoNeckError(InvalidInputError):
    """Trajectory contains no neck-pinch data to analyze."""


class ConfigError(CurveflowError, ValueError):
    """Scenario configuration is syntactically or semantically invalid."""
