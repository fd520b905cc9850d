"""Span tracing around matchgames' public functions, installed from outside.

The tracer replaces each traced function at every module attribute that
binds it (``games.solve_lp``, ``learning.maximin``, ``experiments.run_episode``
and the package-level re-exports), so calls are seen wherever the caller
looks the name up. Each call records one span: name, start, end and the
index of the enclosing span. Nothing in the package is edited; ``uninstall``
puts the original objects back.

A traced function that a later version of the package no longer has is
reported as absent: its metrics read zero and its name is listed, rather
than the run failing.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# (module, function) pairs, named after the module that defines them.
TRACED = (
    ("linprog", "solve_lp"),
    ("games", "maximin"),
    ("games", "solve_game"),
    ("games", "best_response"),
    ("market", "preferences_from_values"),
    ("market", "deferred_acceptance"),
    ("market", "generate_instance"),
    ("instability", "matching_instability"),
    ("learning", "run_episode"),
    ("experiments", "run_experiment"),
    ("formats", "read_instance"),
    ("formats", "read_matching"),
    ("formats", "read_strategy_profile"),
)

# Kernel entry points: a call to one of these not nested inside another is
# one game solved.
KERNEL = ("games.maximin", "games.solve_game")

PACKAGE = "matchgames"


def span_name(module: str, func: str) -> str:
    return f"{module}.{func}"


class Tracer:
    """Records spans while installed; keeps them in memory until read."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.active_pairs: list[int] = []
        self.absent: list[str] = []
        self.enabled = True
        self._stack: list[int] = []
        self._patched: list = []  # (module, attribute, original)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        count_pairs = name == "instability.matching_instability"

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count_pairs and getattr(result, "active_pairs", None) is not None:
                self.active_pairs.append(len(result.active_pairs))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = [
            module
            for key, module in list(sys.modules.items())
            if module is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        self.absent = []
        for module_name, func_name in TRACED:
            name = span_name(module_name, func_name)
            try:
                home = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{PACKAGE}.{module_name}":
                    raise
                self.absent.append(name)
                continue
            original = getattr(home, func_name, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for attribute, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attribute, wrapper)
                        self._patched.append((module, attribute, original))

    def uninstall(self) -> None:
        for module, attribute, original in reversed(self._patched):
            setattr(module, attribute, original)
        self._patched = []

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def summary(self) -> dict:
        """Per-name call counts and self times, kernel entries and active-pair counts."""
        calls: dict = defaultdict(int)
        self_s: dict = defaultdict(float)
        child = [0.0] * len(self.spans)
        kernel_calls = 0
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for index, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[index]
            if name in KERNEL and (parent < 0 or self.spans[parent][0] not in KERNEL):
                kernel_calls += 1
        pairs = self.active_pairs
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "kernel_calls": kernel_calls,
            "pairs": [sum(pairs), len(pairs), max(pairs, default=0)],
            "absent": list(self.absent),
        }


def layer_metrics(summary: dict, traced_wall_s: float, untraced_wall_s: float,
                  rounds: int, trace_bytes: list[int]) -> dict:
    """Per-layer figures from a tracer summary.

    traced_wall_s and untraced_wall_s are the summed wall times of the same
    operations run with and without the tracer; rounds is the number of
    simulated learning rounds among the traced operations; trace_bytes holds
    the bytes each traced experiment batch wrote.
    """
    calls = defaultdict(int, summary["calls"])
    self_s = defaultdict(float, summary["self_s"])
    kernel_calls = summary["kernel_calls"]
    pairs_total, pairs_count, pairs_max = summary["pairs"]
    metrics: dict = {}
    for module_name, func_name in TRACED:
        name = span_name(module_name, func_name)
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (self_s[name], "s")
        metrics[f"{name}.share"] = (self_s[name] / traced_wall_s if traced_wall_s else 0.0, "ratio")
    metrics["games.solves_per_round"] = (kernel_calls / rounds if rounds else 0.0, "count")
    metrics["linprog.solves_per_game"] = (
        calls["linprog.solve_lp"] / kernel_calls if kernel_calls else 0.0, "count"
    )
    metrics["instability.active_pairs_mean"] = (pairs_total / pairs_count if pairs_count else 0.0, "count")
    metrics["instability.active_pairs_max"] = (pairs_max, "count")
    metrics["experiments.trace_bytes"] = (
        sum(trace_bytes) / len(trace_bytes) if trace_bytes else 0.0, "bytes"
    )
    metrics["tracing_overhead"] = (
        traced_wall_s / untraced_wall_s - 1.0 if untraced_wall_s else 0.0, "ratio"
    )
    return metrics


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    empty = Tracer().summary()
    return [(name, unit) for name, (_, unit) in layer_metrics(empty, 0.0, 0.0, 0, []).items()]
