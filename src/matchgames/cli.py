"""Command-line interface.

Exit codes: 0 on success, 2 for malformed input or documents (including a
``SolverError`` from the game kernel's guard), 3 for I/O failures. Subcommand
output goes to stdout as JSON records; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import MISSING, fields
from pathlib import Path

from .errors import InputError
from .experiments import (
    ExperimentConfig,
    OUTPUT_DIR_ENV,
    audit,
    run_experiment,
    theoretical_bound,
)
from .formats import (
    FORMAT_VERSION,
    _decode,
    _matching_record,
    _whole,
    read_preferences,
    write_instance,
    write_matching,
    write_report,
)
from .games import solve_game
from .learning import Policy
from .market import Generator, Side, deferred_acceptance, generate_instance


def _print(record: dict) -> None:
    print(json.dumps(record, indent=2))


def _real(value) -> float:
    """value as a float; a string or a bool is refused, not parsed or read as 1.0 or 0.0."""
    if isinstance(value, (bool, str)):
        raise ValueError(value)
    return float(value)


def _parse_delta(raw) -> float | None:
    return None if raw == "auto" else _real(raw)


def _delta_flag(text: str) -> str | float:
    """--delta's text: 'auto' as it is, anything else read as a float."""
    try:
        return text if text == "auto" else float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number or 'auto', got {text!r}") from None


# how each ExperimentConfig field is read from its flag or config key; the
# defaults live in ExperimentConfig alone
_SETTINGS = {
    **dict.fromkeys(("p", "a", "m", "k", "T", "runs", "seeds_base"), _whole),
    "policy": Policy,
    "generator": Generator,
    "outside_option": _real,
    "delta": _parse_delta,
    "noise_scale": _real,
    "output_dir": os.fspath,
    "workers": _whole,
}


def _load_config_file(path) -> dict:
    document = _decode(Path(path).read_bytes(), path)
    if not isinstance(document, dict):
        raise InputError(f"{path}: config must be a JSON object")
    unknown = set(document) - set(_SETTINGS)
    if unknown:
        raise InputError(f"{path}: unknown config keys {sorted(unknown)}")
    return document


def _cmd_simulate(args) -> int:
    file_config = _load_config_file(args.config) if args.config else {}
    settings = {}
    for field in fields(ExperimentConfig):  # p, a, m, k, T first: they have no default
        key = field.name
        value = getattr(args, key)
        if value is None:
            value = file_config.get(key)
        if value is None:
            if field.default is MISSING:
                raise InputError(f"missing required setting {key!r} (flag or config file)")
            continue
        try:
            settings[key] = _SETTINGS[key](value)
        except (TypeError, ValueError, OverflowError):
            raise InputError(f"setting {key!r} has a bad value {value!r}") from None
    config = ExperimentConfig(**settings)
    trace = run_experiment(config)
    _print(
        {
            "runs": config.runs,
            "T": config.T,
            "final_mean_cum_mi": float(trace.mean[-1]),
            "final_bound": float(trace.bound[-1]),
        }
    )
    return 0


def _cmd_gen_instance(args) -> int:
    # only the flags given: the defaults live in generate_instance alone
    options = {key: value for key in ("outside_option", "seed") if (value := getattr(args, key)) is not None}
    if args.generator is not None:
        options["generator"] = Generator(args.generator)
    instance = generate_instance(args.p, args.a, args.m, args.k, **options)
    write_instance(instance, args.output)
    return 0


def _cmd_solve_game(args) -> int:
    if (args.matrix is None) == (args.file is None):
        raise InputError("provide exactly one of --matrix or --file")
    if args.matrix is not None:
        payload = _decode(args.matrix, "--matrix")
    else:
        payload = _decode(Path(args.file).read_bytes(), args.file)
    solution = solve_game(payload)
    _print(
        {
            "format": "game-solution",
            "version": FORMAT_VERSION,
            "value": solution.value,
            "row_strategy": solution.row_strategy.tolist(),
            "column_strategy": solution.column_strategy.tolist(),
        }
    )
    return 0


def _cmd_match(args) -> int:
    prefs = read_preferences(args.preferences)
    side = Side.LEFT if args.proposing_side == "left" else Side.RIGHT
    matching = deferred_acceptance(prefs, side)
    if args.output:
        write_matching(matching, args.output)
    _print(_matching_record(matching))
    return 0


def _cmd_bound(args) -> int:
    _print(
        {
            "t": args.t,
            "bound": theoretical_bound(args.t, args.p, args.a, args.m, args.k),
        }
    )
    return 0


def _cmd_audit(args) -> int:
    report = audit(args.instance, args.matching, args.strategies)
    if args.output:
        write_report(report, args.output)
    _print(report.to_record())
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchgames",
        description="Matching markets with zero-sum pair games: solve, match, audit, simulate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a learning experiment and write trace files")
    for key in ("p", "a", "m", "k", "T", "runs", "seeds-base", "workers"):
        sim.add_argument(f"--{key}", type=int, dest=key.replace("-", "_"))
    sim.add_argument("--policy", choices=[policy.value for policy in Policy])
    sim.add_argument("--generator", choices=[gen.value for gen in Generator])
    sim.add_argument("--outside-option", type=float, dest="outside_option")
    sim.add_argument("--delta", type=_delta_flag, help="confidence level in (0,1) or 'auto'")
    sim.add_argument("--noise-scale", type=float, dest="noise_scale")
    sim.add_argument("--output-dir", dest="output_dir", help=f"defaults to ${OUTPUT_DIR_ENV}")
    sim.add_argument("--config", help="JSON file with the same keys; flags win")
    sim.set_defaults(func=_cmd_simulate)

    gen = sub.add_parser("gen-instance", help="draw a random market instance file")
    for key in ("p", "a", "m", "k"):
        gen.add_argument(f"--{key}", type=int, required=True)
    gen.add_argument("--generator", choices=[g.value for g in Generator])
    gen.add_argument("--outside-option", type=float, dest="outside_option")
    gen.add_argument("--seed", type=int)
    gen.add_argument("--output", required=True)
    gen.set_defaults(func=_cmd_gen_instance)

    solve = sub.add_parser("solve-game", help="solve one zero-sum matrix game")
    solve.add_argument("--matrix", help="payoff matrix as inline JSON rows")
    solve.add_argument("--file", help="path to a JSON file holding the matrix")
    solve.set_defaults(func=_cmd_solve_game)

    match = sub.add_parser("match", help="run deferred acceptance on a preferences file")
    match.add_argument("--preferences", required=True)
    match.add_argument("--proposing-side", choices=("left", "right"), default="left",
                       dest="proposing_side")
    match.add_argument("--output")
    match.set_defaults(func=_cmd_match)

    bound = sub.add_parser("bound", help="print the theoretical cumulative instability bound")
    for key in ("t", "p", "a", "m", "k"):
        bound.add_argument(f"--{key}", type=int, required=True)
    bound.set_defaults(func=_cmd_bound)

    aud = sub.add_parser("audit", help="score a matching and strategy profile against an instance")
    aud.add_argument("--instance", required=True)
    aud.add_argument("--matching", required=True)
    aud.add_argument("--strategies", required=True)
    aud.add_argument("--output")
    aud.set_defaults(func=_cmd_audit)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())
