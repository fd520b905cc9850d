"""Print sha256 digests of matchgames' outputs on a fixed corpus.

Two checkouts whose digests agree produce the same traces to the last byte:
every compared field of every StepRecord (strategies by dtype, shape and
bytes; every scalar with its type and repr), seeds of one to eight 32-bit
words included, every instability report
(audit-dense's 6x6 to 8x8 markets of 3x3 games, covers of hundreds of
active pairs at 16x16 to 30x30, and tenths-valued audits whose cuts
rounding residue can decide among them), every game
solution, maximin on stacks either side of its single/stacked
crossover and on 2x2 stacks tied at the 2x2 closed form's boundaries, every
array the document readers read from a fixed corpus of JSON files, and the
files run_experiment writes at workers 1 and 2.

    python3 tools/trace_digest.py [SRC]

SRC is the source directory to import matchgames from (default: the
checkout's own src/). To compare a change with its base commit:

    git worktree add ../base <base commit>
    python3 tools/trace_digest.py src > head.txt
    python3 tools/trace_digest.py ../base/src > base.txt
    diff base.txt head.txt

The output holds digests and counts only, no timing. Exits 1 if the
experiment files differ between the two worker counts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import sys
import tempfile
from pathlib import Path

SRC = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, str(SRC.resolve()))

import numpy as np  # noqa: E402

from matchgames.experiments import ExperimentConfig, run_experiment  # noqa: E402
from matchgames.formats import read_instance, read_matching, read_strategy_profile  # noqa: E402
from matchgames.games import maximin, solve_game  # noqa: E402
from matchgames.instability import matching_instability, subset_instability  # noqa: E402
from matchgames.learning import Policy, run_episode  # noqa: E402
from matchgames.market import (  # noqa: E402
    AgentId,
    Generator,
    MarketInstance,
    Matching,
    Side,
    UtilityTable,
    generate_instance,
)

# (p, a, m, k, T) per episode shape; every shape runs under every policy,
# proposing side, generator and seed
EPISODE_SHAPES = (
    (2, 2, 2, 2, 200),
    (3, 3, 2, 3, 60),
    (2, 4, 3, 2, 60),
    (4, 3, 3, 3, 40),
    (8, 8, 2, 2, 30),
    (16, 16, 2, 2, 20),
    (8, 6, 2, 3, 20),
)
# 2**64 + 1 spans three 32-bit words, so the random streams' seed mixing is
# checked past a one-word seed
SEEDS = (1, 2, 2**64 + 1)
# seeds of exactly the pool's four words, of five and of eight: the seed's
# words fill numpy's pool, or run past it; a line of their own, so the
# step-records line stays as it was
BIG_SEEDS = (2**128 - 1, 2**128 + 11, 2**256 - 1)
BIG_SEED_SHAPES = ((2, 2, 2, 2, 30), (3, 4, 2, 3, 20))
AUDIT_TOLS = (0.0, 1e-9, 0.05)


def canonical(value):
    """A nested tuple of strings that pins value's types and bits."""
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes().hex())
    if isinstance(value, dict):
        return ("dict", tuple((canonical(k), canonical(v)) for k, v in value.items()))
    if isinstance(value, (tuple, list)):
        return (type(value).__name__, tuple(canonical(v) for v in value))
    if dataclasses.is_dataclass(value):
        # a record's value is its compared fields; a derived cache is not part of it
        fields = [f for f in dataclasses.fields(value) if f.compare]
        return (type(value).__name__, tuple(canonical(getattr(value, f.name)) for f in fields))
    return (type(value).__name__, repr(value))


class Digest:
    def __init__(self) -> None:
        self.hash = hashlib.sha256()
        self.count = 0

    def add(self, value) -> None:
        self.hash.update(repr(canonical(value)).encode())
        self.count += 1


def episode_records() -> Digest:
    digest = Digest()
    for (p, a, m, k, T), generator, seed in itertools.product(EPISODE_SHAPES, Generator, SEEDS):
        instance = generate_instance(p, a, m, k, generator=generator, seed=seed)
        for policy, side in itertools.product(Policy, Side):
            for record in run_episode(instance, policy, T, seed=seed, proposing_side=side):
                digest.add(record)
    return digest


def big_seed_records() -> Digest:
    digest = Digest()
    for (p, a, m, k, T), seed in itertools.product(BIG_SEED_SHAPES, BIG_SEEDS):
        instance = generate_instance(p, a, m, k, seed=seed)
        for policy in Policy:
            for record in run_episode(instance, policy, T, seed=seed):
                digest.add(record)
    return digest


def random_matching(rng, p: int, a: int) -> Matching:
    """Empty, partial or full, uniformly by size."""
    size = int(rng.integers(0, min(p, a) + 1))
    lefts = rng.permutation(p)[:size].tolist()
    rights = rng.permutation(a)[:size].tolist()
    return Matching(tuple(zip(lefts, rights)))


def dirichlet_profile(rng, matching: Matching, m: int, k: int) -> dict:
    """A mixed strategy for each matched agent, drawn pair by pair."""
    strategies = {}
    for i, j in matching.pairs:
        strategies[AgentId.left(i)] = rng.dirichlet(np.ones(m))
        strategies[AgentId.right(j)] = rng.dirichlet(np.ones(k))
    return strategies


def audit_reports() -> Digest:
    """Tie-heavy integer tables and Gaussian tables under subset_instability,
    and random strategy profiles under matching_instability."""
    digest = Digest()
    rng = np.random.default_rng(20261018)

    def draw(integer: bool, *shape: int) -> np.ndarray:
        if integer:
            return rng.integers(-2, 3, size=shape).astype(float)
        return rng.standard_normal(shape)

    for case in range(600):
        integer = case % 2 == 1  # integer tables tie often; Gaussian ones up to 8x8
        p, a = (int(n) for n in rng.integers(1, 6 if integer else 9, size=2))
        shapes = ((p, a), (a, p), (p,), (a,))
        table = UtilityTable(*(draw(integer, *shape) for shape in shapes))
        matching = random_matching(rng, p, a)
        for tol in AUDIT_TOLS:
            digest.add(subset_instability(table, matching, tol=tol).to_record())
    for case in range(150):
        p, a, m, k = (int(n) for n in rng.integers(1, 4, size=4))
        instance = generate_instance(p, a, m, k, seed=case)
        matching = random_matching(rng, p, a)
        strategies = dirichlet_profile(rng, matching, m, k)
        digest.add(matching_instability(instance, matching, strategies).to_record())
    return digest


def market_audit_reports(seed: int, sizes: tuple, shares: tuple, m: int) -> Digest:
    """matching_instability on n x n markets of m x m games, five a size and
    share, each matched on n // share random pairs (share 0: empty) with
    Dirichlet strategies. The dense corpus, 6x6 to 8x8 markets of 3x3 games
    under empty, quarter and half matchings, holds stacks of 36 to 64 games
    and covers of up to 60-odd active pairs; the wide corpus, 16x16 to 30x30
    markets of 2x2 games under empty and quarter matchings, holds covers of
    hundreds of active pairs, where the min cut's direct phases do most of
    their work."""
    digest = Digest()
    rng = np.random.default_rng(seed)
    for n, share, case in itertools.product(sizes, shares, range(5)):
        instance = generate_instance(n, n, m, m, generator=Generator.GAUSSIAN_UNIT, seed=100 * n + 10 * share + case)
        size = n // share if share else 0
        matching = Matching(tuple(zip(rng.permutation(n)[:size].tolist(), rng.permutation(n)[:size].tolist())))
        strategies = dirichlet_profile(rng, matching, m, m)
        digest.add(matching_instability(instance, matching, strategies).to_record())
    return digest


def tenths_audit_reports() -> Digest:
    """Audits at tol 0 with payoffs and outside options in tenths, 2 to 6
    agents a side: subset_instability on utility tables, and
    matching_instability on markets of 1x1 games under any matching. Tenths
    are not exact in binary, so rounding residue decides some of these min
    cuts, and any reordering of the audit's float arithmetic shows here."""
    digest = Digest()
    rng = np.random.default_rng(20261026)

    def tenths(low: int, high: int, *shape: int) -> np.ndarray:
        return rng.integers(low, high + 1, size=shape) / 10.0

    for case in range(1500):
        p, a = (int(n) for n in rng.integers(2, 7, size=2))
        matching = random_matching(rng, p, a)
        outside = tenths(-20, 0, p), tenths(-20, 0, a)
        table = UtilityTable(tenths(-10, 10, p, a), tenths(-10, 10, a, p), *outside)
        digest.add(subset_instability(table, matching, tol=0.0).to_record())
        instance = MarketInstance(
            p=p, a=a, m=1, k=1, games=tenths(-10, 10, p, a, 1, 1), left_outside=outside[0], right_outside=outside[1]
        )
        strategies = dirichlet_profile(rng, matching, 1, 1)
        digest.add(matching_instability(instance, matching, strategies, tol=0.0).to_record())
    return digest


def game_solutions() -> Digest:
    digest = Digest()
    rng = np.random.default_rng(7)
    # up to 12x12, past oracle_solve_game's reach: the single-game kernels' bits
    for m, k in itertools.product(range(1, 13), repeat=2):
        for scale in (1e-6, 1.0, 1e6):
            for _ in range(8):
                game = rng.standard_normal((m, k)) * scale
                digest.add(solve_game(game))
                digest.add(solve_game(np.round(game / scale) * scale))
    return digest


def game_stacks() -> Digest:
    """maximin on stacks of 0 to 16 games of every shape from 1x1 to 4x4."""
    digest = Digest()
    rng = np.random.default_rng(8)
    for m, k in itertools.product(range(1, 5), repeat=2):
        for size, scale in itertools.product(range(17), (1e-6, 1.0, 1e6)):
            stack = rng.standard_normal((size, m, k)) * scale
            digest.add(maximin(stack))
            digest.add(maximin(np.round(stack / scale) * scale))
    return digest


def two_by_two_stacks() -> Digest:
    """maximin on stacks of 12 to 600 2x2 games, and on their mirrored -A^T:
    Gaussian, integer and tenths games, and games of eighths with one
    entry at +-1 (so the packing LP is A + 2 exactly) and one pair of
    cells tied or 2**-17, 2**-16, 2**-7 or 2**-6 apart, either side of the
    2x2 closed form's guard bands and on its pivot paths' boundaries."""
    digest = Digest()
    rng = np.random.default_rng(9)
    for size, scale in itertools.product((12, 13, 17, 32, 64, 150, 600), (1e-6, 1.0, 1e6)):
        edges = rng.integers(-8, 9, size=(size, 4)) / 8.0
        for game, cells in zip(edges, rng.permutation(np.tile(np.arange(4), (size, 1)), axis=1)):
            gap = rng.choice([0.0, 2**-17, 2**-16, 2**-7, 2**-6]) * rng.choice([-1.0, 1.0])
            game[cells[1]] = np.clip(game[cells[0]] + gap, -1.0, 1.0)
            game[cells[2]] = rng.choice([-1.0, 1.0])
        for stack in (
            rng.standard_normal((size, 2, 2)),
            rng.integers(-2, 3, size=(size, 2, 2)).astype(float),
            rng.integers(-10, 11, size=(size, 2, 2)) / 10.0,
            edges.reshape(size, 2, 2),
        ):
            digest.add(maximin(stack * scale))
            digest.add(maximin(-np.swapaxes(stack, 1, 2) * scale))
    return digest


def _nested(flat: list, shape: tuple) -> list:
    """flat as nested lists of the given shape, its entries kept as they are."""
    for size in reversed(shape[1:]):
        flat = [flat[start : start + size] for start in range(0, len(flat), size)]
    return flat


def documents() -> Digest:
    """read_instance, read_matching and read_strategy_profile on JSON documents
    written entry by entry: Gaussian floats, integer values written as JSON
    ints (and indices as 2.0), 2**70 and -(2**64), -0.0 and subnormals, so
    the number rule's every dtype and bit shows in the arrays read."""
    digest = Digest()
    rng = np.random.default_rng(20261028)
    special = (2**70, -(2**64), -0.0, 5e-324, -2.5e-310, 1, 0, 0.0, 1.0)

    def entries(kind: int, *shape: int) -> list:
        size = int(np.prod(shape))
        if kind == 0:
            flat = rng.standard_normal(size).tolist()
        elif kind == 1:
            flat = rng.integers(-3, 4, size=size).tolist()
        else:  # a Gaussian or integer entry, or one of special's, by turns
            flat = [
                special[int(rng.integers(len(special)))] if draw < 0.4 else round(value) if draw < 0.6 else value
                for draw, value in zip(rng.random(size).tolist(), rng.standard_normal(size).tolist())
            ]
        return _nested(flat, shape)

    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "document.json"
        for case in range(90):
            kind = case % 3
            p, a, m, k = (int(n) for n in rng.integers(1, 4, size=4))
            instance = {
                "format": "market-instance", "version": 1, "p": p, "a": a, "m": m, "k": k,
                "games": entries(kind, p, a, m, k),
                "outside_options": {"left": entries(kind, p), "right": entries(kind, a)},
                "generator": [None, "gaussian-unit", "uniform-signed"][kind], "seed": [None, case, 2**70][kind],
            }
            matching = random_matching(rng, p, a)
            pairs = [[i, float(j) if kind == 1 else j] for i, j in matching.pairs]
            sides = {"left": {}, "right": {}}
            for i, j in matching.pairs:
                sides["left"][str(i)] = entries(kind, m)
                sides["right"][str(j)] = entries(kind, k)
            for reader, document in (
                (read_instance, instance),
                (read_matching, {"format": "matching", "version": 1, "pairs": pairs}),
                (read_strategy_profile, {"format": "strategy-profile", "version": 1, **sides}),
            ):
                path.write_text(json.dumps(document))
                digest.add(reader(path))
    return digest


def experiment_files(workers: int) -> str:
    """One sha256 over the names and bytes of every file run_experiment writes."""
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as out:
        for policy in Policy:
            run_dir = Path(out) / policy.value
            config = ExperimentConfig(
                p=2, a=2, m=2, k=2, T=150, runs=4, seeds_base=3, policy=policy,
                generator=Generator.UNIFORM_SIGNED, output_dir=str(run_dir), workers=workers,
            )
            run_experiment(config)
            for path in sorted(run_dir.iterdir()):
                digest.update(f"{policy.value}/{path.name}\n".encode() + path.read_bytes())
    return digest.hexdigest()


def main() -> int:
    import matchgames

    print(f"matchgames imported from {Path(matchgames.__file__).parent}", file=sys.stderr)
    for name, digest in (
        ("step-records", episode_records()),
        ("big-seed-records", big_seed_records()),
        ("audit-reports", audit_reports()),
        ("dense-audit-reports", market_audit_reports(20261020, (6, 7, 8), (0, 4, 2), 3)),
        ("wide-audit-reports", market_audit_reports(20261021, (16, 20, 30), (0, 4), 2)),
        ("tenths-audit-reports", tenths_audit_reports()),
        ("game-solutions", game_solutions()),
        ("game-stacks", game_stacks()),
        ("game-stacks-2x2", two_by_two_stacks()),
        ("documents", documents()),
    ):
        print(f"{name} {digest.hash.hexdigest()} {digest.count}")
    files = {workers: experiment_files(workers) for workers in (1, 2)}
    for workers, digest in files.items():
        print(f"experiment-files-workers-{workers} {digest}")
    if files[1] != files[2]:
        print("experiment files differ between workers 1 and 2", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
