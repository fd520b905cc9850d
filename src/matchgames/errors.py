"""Exception types shared across the package, and the number checks that raise one."""

import math
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


def check_sizes(**sizes) -> list[int]:
    """Each size as an int of at least 1 that a float can hold, in order, or
    an InputError naming the first that is not."""
    checked = []
    for name, value in sizes.items():
        value = check_integer(name, value, 1)
        try:
            float(value)
        except OverflowError:
            raise InputError(f"{name} is too large for a float") from None
        checked.append(value)
    return checked


def check_real(name: str, value) -> float:
    """value as a finite float, or an InputError naming the field.

    Python and numpy reals are accepted; a bool, a string or a non-finite
    value (an integer beyond the float range included) is refused rather
    than read as 1.0 or 0.0, parsed or kept.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InputError(f"{name} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise InputError(f"{name} must be finite, got {value!r}")
    return number
