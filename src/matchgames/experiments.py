"""Experiment harness: repeated learning runs, trace files, and aggregates.

Each run draws a fresh instance (seed = seeds_base + run index), plays one
episode, and writes a per-run CSV trace. The aggregate file carries the
mean and population standard deviation of cumulative instability across
runs plus the theoretical guarantee. All file content is a deterministic
function of the configuration, independent of worker scheduling.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import FormatError, InputError, check_integer, check_market_sizes, check_real, check_sizes
from .formats import read_instance, read_matching, read_strategy_profile
from .instability import InstabilityReport, matching_instability
from .learning import Policy, run_episode
from .market import Generator, Matching, generate_instance

OUTPUT_DIR_ENV = "MATCHGAMES_OUTPUT_DIR"
TRACE_HEADER = ("run_id", "t", "matching_serialized", "mi", "cumulative_mi", "event_ok")
AGGREGATE_HEADER = ("t", "mean_cum_mi", "std_cum_mi", "bound")
CONFIG_FILENAME = "config.json"
AGGREGATE_FILENAME = "aggregate.csv"


def theoretical_bound(t: int, p: int, a: int, m: int, k: int) -> float:
    """Worst-case cumulative instability guarantee after t rounds."""
    t, p, a, m, k = check_sizes(t=t, p=p, a=a, m=m, k=k)
    bound = 2.0 * math.sqrt(4.0 * t * m * k * p * a * math.log(4.0 * t * t * m * k * p * p * a * a)) + 2.0
    if not math.isfinite(bound):
        raise InputError("t, p, a, m and k are too large: the bound overflows a float")
    return bound


@dataclass(frozen=True)
class ExperimentConfig:
    p: int
    a: int
    m: int
    k: int
    T: int
    runs: int = 50
    seeds_base: int = 0
    policy: Policy = Policy.SELF_PLAY
    generator: Generator = Generator.GAUSSIAN_UNIT
    outside_option: float = -1.0
    delta: float | None = None
    noise_scale: float = 1.0
    output_dir: str | None = None
    workers: int | None = None

    def __post_init__(self):
        # sizes and seeds are checked here, before run_experiment makes any file
        for name in ("p", "a", "m", "k", "T", "runs", "seeds_base"):
            minimum = 0 if name == "seeds_base" else 1
            object.__setattr__(self, name, check_integer(name, getattr(self, name), minimum))
        check_market_sizes(self.p, self.a, self.m, self.k)
        if self.workers is not None:
            object.__setattr__(self, "workers", check_integer("workers", self.workers, 1))
        # and the real-valued fields, stored as floats so config.json echoes numbers
        for name in ("outside_option", "noise_scale") + (("delta",) if self.delta is not None else ()):
            object.__setattr__(self, name, check_real(name, getattr(self, name)))
        if self.delta is not None and not (0.0 < self.delta < 1.0):
            raise InputError(f"delta must lie strictly inside (0, 1), got {self.delta!r}")
        if self.noise_scale < 0.0:
            raise InputError(f"noise_scale must be nonnegative, got {self.noise_scale!r}")
        if not isinstance(self.policy, Policy):
            raise InputError(f"unknown policy {self.policy!r}")
        if not isinstance(self.generator, Generator):
            raise InputError(f"unknown generator {self.generator!r}")

    def record(self) -> dict:
        """Scientific parameters only; echoing this is scheduling-independent."""
        record = {"format": "experiment-config", "version": 1}
        for field in fields(self):
            if field.name not in ("output_dir", "workers"):
                value = getattr(self, field.name)
                record[field.name] = value.value if isinstance(value, Enum) else value
        return record


@dataclass(frozen=True)
class RegretTrace:
    """Cumulative instability per run plus cross-run aggregates."""

    config: ExperimentConfig
    cumulative: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    bound: np.ndarray


def _serialize_matching(matching: Matching) -> str:
    return ";".join(f"{i}-{j}" for i, j in matching.pairs)


def parse_matching_field(field: str) -> Matching:
    if not field:
        return Matching(())
    try:
        pairs = tuple(tuple(int(x) for x in chunk.split("-")) for chunk in field.split(";"))
        return Matching(pairs)
    except (InputError, ValueError) as exc:
        raise FormatError(f"bad matching field {field!r}: {exc}") from exc


def run_trace_path(output_dir, run_index: int) -> Path:
    return Path(output_dir) / f"run_{run_index:03d}.csv"


def _single_run(config: ExperimentConfig, run_index: int, output_dir: str) -> np.ndarray:
    """Play one run, write its trace file, return cumulative instability."""
    seed = config.seeds_base + run_index
    instance = generate_instance(
        config.p,
        config.a,
        config.m,
        config.k,
        generator=config.generator,
        outside_option=config.outside_option,
        seed=seed,
    )
    # once the instance is built: a market too large for memory leaves no directory,
    # and a bad path is reported before the episode is played
    Path(output_dir).mkdir(parents=True, exist_ok=True)
    records = run_episode(
        instance,
        config.policy,
        config.T,
        delta=config.delta,
        seed=seed,
        noise_scale=config.noise_scale,
    )
    cumulative = np.cumsum([record.mi for record in records])
    with open(run_trace_path(output_dir, run_index), "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(TRACE_HEADER)
        for record, total in zip(records, cumulative):
            writer.writerow(
                (
                    run_index,
                    record.t,
                    _serialize_matching(record.matching),
                    repr(float(record.mi)),
                    repr(float(total)),
                    int(record.event_ok),
                )
            )
    return cumulative


def resolve_output_dir(configured: str | None) -> Path:
    raw = configured or os.environ.get(OUTPUT_DIR_ENV)
    if not raw:
        raise InputError(
            f"no output directory configured; set output_dir or the {OUTPUT_DIR_ENV} variable"
        )
    return Path(raw)


def run_experiment(config: ExperimentConfig) -> RegretTrace:
    """Run all configured repetitions and write traces plus the aggregate."""
    output_dir = resolve_output_dir(config.output_dir)
    # never more processes than CPUs: the pool forks all of them at once
    cpus = os.cpu_count() or 1
    workers = min(config.workers or cpus, cpus, config.runs)
    # results are read in run order, so the files do not depend on the worker count
    directory = str(output_dir)
    if workers == 1:
        cumulative_rows = [_single_run(config, run, directory) for run in range(config.runs)]
    else:
        # a window of 2 * workers runs in flight; Executor.map would submit them all at once
        cumulative_rows, window = [], deque()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for run in range(config.runs):
                if len(window) == 2 * workers:
                    cumulative_rows.append(window.popleft().result())
                window.append(pool.submit(_single_run, config, run, directory))
            cumulative_rows += [future.result() for future in window]
    cumulative = np.vstack(cumulative_rows)
    mean = cumulative.mean(axis=0)
    std = cumulative.std(axis=0)
    bound = np.array(
        [theoretical_bound(t, config.p, config.a, config.m, config.k) for t in range(1, config.T + 1)]
    )
    with open(output_dir / AGGREGATE_FILENAME, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(AGGREGATE_HEADER)
        for t in range(config.T):
            writer.writerow(
                (t + 1, repr(float(mean[t])), repr(float(std[t])), repr(float(bound[t])))
            )
    (output_dir / CONFIG_FILENAME).write_text(json.dumps(config.record(), indent=2) + "\n")
    return RegretTrace(config=config, cumulative=cumulative, mean=mean, std=std, bound=bound)


def _read_rows(path, header: tuple, kind: str, parse) -> list[dict]:
    """Each row of a CSV file with the given header, parsed; a foreign header, a
    short or long row, or a field that does not convert is a FormatError."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        found = tuple(next(reader, ()))
        if found != header:
            raise FormatError(f"{path}: unexpected {kind} header {found!r}")
        rows = []
        for row in reader:
            try:
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} fields, expected {len(header)}")
                rows.append(parse(row))
            except ValueError as exc:
                raise FormatError(f"{path}: malformed row {row!r}: {exc}") from exc
    return rows


def read_trace_file(path) -> list[dict]:
    """Parse one per-run trace CSV back into typed records."""
    return _read_rows(path, TRACE_HEADER, "trace", lambda row: {
        "run_id": int(row[0]),
        "t": int(row[1]),
        "matching": parse_matching_field(row[2]),
        "mi": float(row[3]),
        "cumulative_mi": float(row[4]),
        "event_ok": bool(("0", "1").index(row[5])),  # any other text is refused
    })


def read_aggregate_file(path) -> list[dict]:
    return _read_rows(path, AGGREGATE_HEADER, "aggregate", lambda row: {
        "t": int(row[0]),
        "mean_cum_mi": float(row[1]),
        "std_cum_mi": float(row[2]),
        "bound": float(row[3]),
    })


def audit(instance_path, matching_path, strategies_path) -> InstabilityReport:
    """Audit an outcome on disk: parse, cross-validate, and score it."""
    instance = read_instance(instance_path)
    matching = read_matching(matching_path)
    strategies = read_strategy_profile(strategies_path)
    return matching_instability(instance, matching, strategies)
