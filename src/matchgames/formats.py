"""Versioned JSON documents for instances, matchings, strategies, preferences.

Every document carries "format" and "version" fields. Floats are written
with Python's shortest round-trip repr, so read(write(x)) is lossless at
full double precision. Parse failures raise FormatError with the offending
path and field; I/O failures propagate as OSError.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import FormatError, InputError
from .market import AgentId, Generator, MarketInstance, Matching, PreferenceProfile, Side

FORMAT_VERSION = 1
INSTANCE_FORMAT = "market-instance"
MATCHING_FORMAT = "matching"
STRATEGY_FORMAT = "strategy-profile"
PREFERENCES_FORMAT = "preferences"
REPORT_FORMAT = "instability-report"


def _dump(document: dict, path) -> None:
    Path(path).write_text(json.dumps(document, indent=2) + "\n")


def _decode(text: str, where):
    """text parsed as JSON; a syntax error is a FormatError naming where and the position."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{where}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def _load(path, expected_format: str) -> dict:
    document = _decode(Path(path).read_text(), path)
    if not isinstance(document, dict):
        raise FormatError(f"{path}: top level must be a JSON object")
    if document.get("format") != expected_format:
        raise FormatError(
            f"{path}: field 'format' is {document.get('format')!r}, expected {expected_format!r}"
        )
    if document.get("version") != FORMAT_VERSION or isinstance(document.get("version"), bool):
        raise FormatError(
            f"{path}: field 'version' is {document.get('version')!r}, "
            f"expected {FORMAT_VERSION}"
        )
    return document


def _field(document: dict, path, name: str):
    if name not in document:
        raise FormatError(f"{path}: missing field {name!r}")
    return document[name]


def _whole(value) -> int:
    """value as an int; a bool, a string or a number with a fractional part is
    refused rather than truncated or parsed."""
    if isinstance(value, (bool, str)) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{value!r} is not a whole number")
    return int(value)


def _holds_bool(value) -> bool:
    """Whether a JSON true or false sits in value, a number or nested lists."""
    level = [value]
    while level and bool not in map(type, level):
        level = [item for items in level if type(items) is list for item in items]
    return bool(level)


def _reals(value, label: str) -> np.ndarray:
    """value as a float array. Only JSON numbers are read: a string is refused
    rather than parsed, and true or false rather than held as 1.0 or 0.0."""
    array = np.asarray(value)
    if array.dtype.kind == "O" and {type(item) for item in array.flat} <= {int, float}:
        try:  # an integer beyond int64 leaves numpy holding Python ints
            array = array.astype(float)
        except OverflowError:
            raise ValueError(f"{label} holds a number beyond the float range") from None
    numeric = array.dtype.kind in "iuf"
    if (not numeric or ((array == 1.0) | (array == 0.0)).any()) and _holds_bool(value):
        raise ValueError(f"{label} must hold numbers, not true or false")
    if not numeric:
        raise ValueError(f"{label} must hold numbers, not strings, null or objects")
    return array.astype(float, copy=False)


def _whole_field(document: dict, path, name: str) -> int:
    value = _field(document, path, name)
    try:
        return _whole(value)
    except (TypeError, ValueError):
        raise FormatError(f"{path}: field {name!r} must be a whole number, got {value!r}") from None


def write_instance(instance: MarketInstance, path) -> None:
    _dump(
        {
            "format": INSTANCE_FORMAT,
            "version": FORMAT_VERSION,
            "p": instance.p,
            "a": instance.a,
            "m": instance.m,
            "k": instance.k,
            "games": instance.games.tolist(),
            "outside_options": {
                "left": instance.left_outside.tolist(),
                "right": instance.right_outside.tolist(),
            },
            "generator": instance.generator.value if instance.generator else None,
            "seed": instance.seed,
        },
        path,
    )


def read_instance(path) -> MarketInstance:
    document = _load(path, INSTANCE_FORMAT)
    outside = _field(document, path, "outside_options")
    if not isinstance(outside, dict):
        raise FormatError(f"{path}: field 'outside_options' must be an object")
    seed = None if document.get("seed") is None else _whole_field(document, path, "seed")
    generator_name = document.get("generator")
    generator = None
    if generator_name is not None:
        try:
            generator = Generator(generator_name)
        except ValueError:
            raise FormatError(f"{path}: unknown generator {generator_name!r}") from None
    try:
        return MarketInstance(
            p=_whole_field(document, path, "p"),
            a=_whole_field(document, path, "a"),
            m=_whole_field(document, path, "m"),
            k=_whole_field(document, path, "k"),
            games=_reals(_field(document, path, "games"), "field 'games'"),
            left_outside=_reals(_field(outside, path, "left"), "field 'outside_options.left'"),
            right_outside=_reals(_field(outside, path, "right"), "field 'outside_options.right'"),
            generator=generator,
            seed=seed,
        )
    except (InputError, TypeError, ValueError) as exc:
        if isinstance(exc, FormatError):
            raise
        raise FormatError(f"{path}: {exc}") from exc


def _matching_record(matching: Matching) -> dict:
    return {
        "format": MATCHING_FORMAT,
        "version": FORMAT_VERSION,
        "pairs": [list(pair) for pair in matching.pairs],
    }


def write_matching(matching: Matching, path) -> None:
    _dump(_matching_record(matching), path)


def read_matching(path) -> Matching:
    document = _load(path, MATCHING_FORMAT)
    pairs = _field(document, path, "pairs")
    try:
        return Matching(tuple((_whole(i), _whole(j)) for i, j in pairs))
    except (InputError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: bad 'pairs' entry: {exc}") from exc


def write_strategy_profile(strategies: dict, path) -> None:
    sides: dict = {"left": {}, "right": {}}
    for agent, vec in strategies.items():
        side = sides["left" if agent.side is Side.LEFT else "right"]
        side[str(agent.index)] = np.asarray(vec, dtype=float).tolist()
    _dump({"format": STRATEGY_FORMAT, "version": FORMAT_VERSION, **sides}, path)


def read_strategy_profile(path) -> dict:
    document = _load(path, STRATEGY_FORMAT)
    out: dict = {}
    for side_name, make in (("left", AgentId.left), ("right", AgentId.right)):
        table = _field(document, path, side_name)
        if not isinstance(table, dict):
            raise FormatError(f"{path}: field {side_name!r} must be an object")
        for key, vec in table.items():
            try:
                index = int(key)
                if str(index) != key:
                    # "01", "+1" or " 1" would alias (and overwrite) agent 1
                    raise ValueError("the key must be a plain decimal index")
                agent = make(index)
                out[agent] = _reals(vec, "the strategy")
            except (InputError, TypeError, ValueError) as exc:
                raise FormatError(f"{path}: bad strategy for {side_name} agent {key!r}: {exc}") from exc
            if out[agent].ndim != 1:
                raise FormatError(f"{path}: strategy for {side_name} agent {key!r} must be a vector")
    return out


def write_preferences(prefs: PreferenceProfile, path) -> None:
    _dump(
        {
            "format": PREFERENCES_FORMAT,
            "version": FORMAT_VERSION,
            "left": [list(lst) for lst in prefs.left],
            "right": [list(lst) for lst in prefs.right],
            "left_threshold": list(prefs.left_threshold),
            "right_threshold": list(prefs.right_threshold),
        },
        path,
    )


def read_preferences(path) -> PreferenceProfile:
    document = _load(path, PREFERENCES_FORMAT)
    lists = {}
    for name in ("left", "right"):
        raw = _field(document, path, name)
        try:
            lists[name] = tuple(tuple(_whole(index) for index in lst) for lst in raw)
        except (TypeError, ValueError) as exc:
            raise FormatError(f"{path}: field {name!r}: bad preference lists: {exc}") from exc

    def thresholds(name: str) -> tuple:
        raw = document.get(f"{name}_threshold")
        return () if raw is None else tuple(_reals(raw, f"field '{name}_threshold'").tolist())

    try:
        # PreferenceProfile fills missing thresholds with zeros
        return PreferenceProfile(
            left=lists["left"],
            right=lists["right"],
            left_threshold=thresholds("left"),
            right_threshold=thresholds("right"),
        )
    except (InputError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: bad preference lists: {exc}") from exc


def write_report(record: dict, path) -> None:
    if record.get("format") != REPORT_FORMAT:
        raise InputError("write_report expects an instability report record")
    _dump(record, path)
