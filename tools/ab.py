"""Time the same matchgames operations on two source trees in one process.

    python3 tools/ab.py BASE_SRC [HEAD_SRC]

BASE_SRC and HEAD_SRC are source directories holding the matchgames package,
as tools/trace_digest.py takes its SRC; HEAD_SRC defaults to the checkout's
own src/. Both trees are imported into this one process, as the packages
mg_base and mg_head, so the two halves of a pair run on the same host at
nearly the same moment. Module-level caches (functools.cache, the
lru_cache of market._agents, an instance's cached game_values) live per
tree: the two trees share only numpy and the interpreter.

Each operation is built once per tree from the same inputs and called once
on each tree untimed. Then each of 21 pairs times one call on each tree, base
first in even pairs and head first in odd ones. For every operation the tool
prints the median time on each tree, the median of the pairs' head/base
ratios and in how many pairs head took less time. Run a tree against itself
to see the noise floor (an A/A run). The output is a record, not a gate: it
exits 0 whatever the ratios.

The operations, one per layer of the stack:
- solve-NxN: solve_game on 100 Gaussian games of 2x2, 3x3 and 5x5;
- prefs-da-16: preferences_from_values, then deferred_acceptance, on 16 x 16
  Gaussian value tables, 20 times;
- audit-16: matching_instability on a 16x16 market of 2x2 games, a random
  matching of 12 pairs and Dirichlet strategies, 10 times;
- episode-2x2x2x2 and episode-16x16x2x2: one self-play run_episode at T=100
  and T=30.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np


def load_tree(src: str, name: str):
    """The matchgames package under src, imported as the package name."""
    package = Path(src).resolve() / "matchgames"
    if not (package / "__init__.py").is_file():
        sys.exit(f"{src}: no matchgames package there")
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def solves(side: int):
    games = list(np.random.default_rng([1, side]).standard_normal((100, side, side)))
    return lambda mg: lambda: [mg.games.solve_game(A) for A in games]


def prefs_da(mg):
    rng = np.random.default_rng(2)
    left, right, outside = rng.standard_normal((16, 16)), rng.standard_normal((16, 16)), np.full(16, -1.0)
    market = mg.market
    return lambda: [market.deferred_acceptance(market.preferences_from_values(left, right, outside, outside))
                    for _ in range(20)]


def audit(mg):
    rng = np.random.default_rng(3)
    instance = mg.market.generate_instance(16, 16, 2, 2, seed=3)
    matching = mg.market.Matching(tuple(zip(range(12), rng.permutation(16)[:12].tolist())))
    strategies = {}
    for i, j in matching.pairs:
        strategies[mg.market.AgentId.left(i)] = rng.dirichlet(np.ones(2))
        strategies[mg.market.AgentId.right(j)] = rng.dirichlet(np.ones(2))
    return lambda: [mg.instability.matching_instability(instance, matching, strategies) for _ in range(10)]


def episode(p: int, a: int, T: int):
    def build(mg):
        instance = mg.market.generate_instance(p, a, 2, 2, seed=1)
        return lambda: mg.learning.run_episode(instance, mg.learning.Policy.SELF_PLAY, T, seed=1)
    return build


PAIRS = 21  # timed pairs an operation

OPERATIONS = {
    "solve-2x2": solves(2),
    "solve-3x3": solves(3),
    "solve-5x5": solves(5),
    "prefs-da-16": prefs_da,
    "audit-16": audit,
    "episode-2x2x2x2": episode(2, 2, 100),
    "episode-16x16x2x2": episode(16, 16, 30),
}


def timed(call) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_src")
    parser.add_argument("head_src", nargs="?", default=str(Path(__file__).resolve().parents[1] / "src"))
    args = parser.parse_args()
    trees = [load_tree(args.base_src, "mg_base"), load_tree(args.head_src, "mg_head")]
    print(f"base {args.base_src}, head {args.head_src}: {PAIRS} pairs an operation; "
          f"Python {platform.python_version()}, numpy {np.__version__}, {os.cpu_count()} CPUs")
    print(f"{'operation':<18} {'base ms':>9} {'head ms':>9} {'head/base':>9} {'lower':>7}")
    for name, build in OPERATIONS.items():
        calls = [build(tree) for tree in trees]
        for call in calls:
            call()
        times = ([], [])
        for pair in range(PAIRS):
            for side in (0, 1) if pair % 2 == 0 else (1, 0):
                times[side].append(timed(calls[side]))
        ratios = [head / base for base, head in zip(*times)]
        lower = sum(head < base for base, head in zip(*times))
        print(f"{name:<18} {statistics.median(times[0]) * 1e3:9.3f} {statistics.median(times[1]) * 1e3:9.3f} "
              f"{statistics.median(ratios):9.3f} {lower:>3}/{PAIRS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
