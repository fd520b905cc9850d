"""Versioned JSON documents for instances, matchings, strategies, preferences.

Every document carries "format" and "version" fields. Floats are written
with Python's shortest round-trip repr, so read(write(x)) is lossless at
full double precision. Reals are read by errors.check_reals, as the
constructors read them; a size, an index or the seed may be written 1.0, as
JSON has one number type (the constructors refuse the float 1.0). Parse
failures, bytes that are not UTF-8 included, raise FormatError with the
offending path and field; I/O failures propagate as OSError.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import FormatError, InputError, check_reals
from .instability import InstabilityReport
from .market import AgentId, Generator, MarketInstance, Matching, PreferenceProfile, Side

FORMAT_VERSION = 1
INSTANCE_FORMAT = "market-instance"
MATCHING_FORMAT = "matching"
STRATEGY_FORMAT = "strategy-profile"
PREFERENCES_FORMAT = "preferences"


def _dump(document: dict, path) -> None:
    Path(path).write_text(json.dumps(document, indent=2) + "\n")


def _decode(text: str | bytes, where):
    """text or UTF-8 bytes as JSON; bad bytes or syntax, a repeated key or deep nesting: a FormatError naming where."""

    def unique(pairs: list) -> dict:
        document = dict(pairs)
        if len(document) < len(pairs):  # json.loads alone would keep the last value silently
            keys = [key for key, _ in pairs]
            raise FormatError(f"{where}: duplicate key {next(k for k in keys if keys.count(k) > 1)!r}")
        return document

    try:
        return json.loads(text if isinstance(text, str) else text.decode(), object_pairs_hook=unique)
    except UnicodeDecodeError as exc:
        raise FormatError(f"{where}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise FormatError(f"{where}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except RecursionError:  # the decoder recurses once per nested array or object
        raise FormatError(f"{where}: JSON nested too deeply") from None


def _load(path, expected_format: str) -> dict:
    document = _decode(Path(path).read_bytes(), path)
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
    if seed is not None and seed < 0:
        # as generate_instance refuses it: no generator call can have used it
        raise FormatError(f"{path}: field 'seed' must be at least 0, got {seed!r}")
    generator_name = document.get("generator")
    generator = None
    if generator_name is not None:
        try:
            generator = Generator(generator_name)
        except ValueError:
            raise FormatError(f"{path}: unknown generator {generator_name!r}") from None
    p, a, m, k = (_whole_field(document, path, name) for name in "pamk")
    games, left, right = _field(document, path, "games"), _field(outside, path, "left"), _field(outside, path, "right")
    try:
        return MarketInstance(
            p=p, a=a, m=m, k=k,
            games=check_reals("field 'games'", games),
            left_outside=check_reals("field 'outside_options.left'", left),
            right_outside=check_reals("field 'outside_options.right'", right),
            generator=generator,
            seed=seed,
        )
    except (TypeError, ValueError) as exc:
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
        side[str(agent.index)] = check_reals(f"strategy for {agent}", vec).tolist()
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
                out[agent] = check_reals("the strategy", vec)
                if out[agent].ndim != 1:
                    raise ValueError("the strategy must be a flat list of numbers")
            except (InputError, TypeError, ValueError) as exc:
                raise FormatError(f"{path}: bad strategy for {side_name} agent {key!r}: {exc}") from exc
    return out


def write_preferences(prefs: PreferenceProfile, path) -> None:
    _dump(
        {
            "format": PREFERENCES_FORMAT,
            "version": FORMAT_VERSION,
            "left": [list(lst) for lst in prefs.left],
            "right": [list(lst) for lst in prefs.right],
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
    try:
        return PreferenceProfile(left=lists["left"], right=lists["right"])
    except (InputError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: bad preference lists: {exc}") from exc


def write_report(report: InstabilityReport, path) -> None:
    _dump(report.to_record(), path)
