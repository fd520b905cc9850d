"""Exception types shared across the package, and the integer check that raises one."""

import numbers


class InputError(ValueError):
    """Raised when caller-supplied data is malformed (bad values, sizes, ranges)."""


class DimensionError(InputError):
    """Raised when array shapes or index ranges are inconsistent."""


class FormatError(InputError):
    """Raised when an on-disk document cannot be parsed or fails schema checks."""


class SolverError(InputError):
    """Raised when the game kernel's guard trips on finite payoffs (a valid game never does)."""


def check_integer(name: str, value, minimum: int) -> int:
    """value as an int, or an InputError naming the field.

    Python and numpy integers of at least minimum are accepted; a bool, a
    float (even 2.0) or a string is refused rather than truncated or read.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InputError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise InputError(f"{name} must be at least {minimum}, got {value!r}")
    return int(value)
