"""Exception types shared across the package, and the number checks that raise one:
check_integer, check_real and check_reals, the one rule for reading numbers."""

import math
import numbers

import numpy as np

_FLOAT = np.dtype(float)


class InputError(ValueError):
    """Raised when caller-supplied data is malformed (bad values, sizes, ranges)."""


class DimensionError(InputError):
    """Raised when array shapes or index ranges are inconsistent."""


class FormatError(InputError):
    """Raised when an on-disk document cannot be parsed or fails schema checks."""


class SolverError(InputError):
    """Raised when the game kernel's guard trips on finite payoffs (a valid game never does)."""


def check_integer(name: str, value, minimum: int | None = None) -> int:
    """value as an int, or an InputError naming the field.

    Python and numpy integers of at least minimum (if given) are accepted; a
    bool, a float (even 2.0) or a string is refused rather than truncated or read.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InputError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
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


def check_market_sizes(p, a, m, k) -> list[int]:
    """p, a, m and k by check_sizes, refused if p·a·m·k float64 entries pass numpy's byte limit."""
    sizes = check_sizes(p=p, a=a, m=m, k=k)
    if math.prod(sizes) * _FLOAT.itemsize > np.iinfo(np.intp).max:
        raise InputError("p, a, m and k are too large: p·a·m·k float64 entries exceed numpy's largest array")
    return sizes


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


def _holds_bool(value) -> bool:
    """Whether a bool sits in value: a number, or lists, tuples and bool or object arrays nested to any depth."""
    level = [value]
    while level and {bool, np.bool_}.isdisjoint(kinds := set(map(type, level))):
        if np.ndarray in kinds:  # a bool or object array is searched as a list
            level += [item.ravel().tolist() for item in level if type(item) is np.ndarray and item.dtype.kind in "bO"]
        level = [item for items in level if type(items) in (list, tuple) for item in items]
    return bool(level)


def check_reals(name: str, value) -> np.ndarray:
    """value as a float array, or an InputError naming the field. A float64 array is
    returned as it is; anything else is converted once, Python ints beyond int64 (and
    the Python or numpy reals beside them) item by item. A bool, a string, null, an
    object, a complex number or a number beyond the float range is refused, not read
    as 1.0 or 0.0, parsed or kept. Shape and finiteness are the caller's to check."""
    if type(value) is np.ndarray and value.dtype is _FLOAT:  # the form the round's hot callers pass
        return value
    try:
        array = np.asarray(value)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name} must be a regular array of real numbers: {exc}") from None
    if array.dtype.kind == "O" and all(isinstance(item, (int, float, np.integer, np.floating)) for item in array.flat):
        try:  # an integer beyond int64 leaves numpy holding Python ints, and any numbers beside them
            array = array.astype(float)
        except OverflowError:
            raise InputError(f"{name} holds a number beyond the float range") from None
    numeric = array.dtype.kind in "iuf"
    if (not numeric or ((array == 1.0) | (array == 0.0)).any()) and _holds_bool(value):
        raise InputError(f"{name} must hold real numbers, not bools (so not true or false)")
    if not numeric:
        raise InputError(f"{name} must hold real numbers, not strings, null, objects or complex numbers")
    return array.astype(float, copy=False)
