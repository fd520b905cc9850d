"""Exception types shared across the package."""


class InputError(ValueError):
    """Raised when caller-supplied data is malformed (bad values, sizes, ranges)."""


class DimensionError(InputError):
    """Raised when array shapes or index ranges are inconsistent."""


class FormatError(InputError):
    """Raised when an on-disk document cannot be parsed or fails schema checks."""


class SolverError(InputError):
    """Raised when the game kernel's guard trips on finite payoffs (a valid game never does)."""
