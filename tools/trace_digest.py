"""Print sha256 digests of matchgames' outputs on a fixed corpus.

Two checkouts whose digests agree produce the same traces to the last byte:
every compared field of every StepRecord (strategies by dtype, shape and
bytes; every scalar with its type and repr), every instability report,
every game solution, and the files run_experiment writes at workers 1 and 2.

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
import sys
import tempfile
from pathlib import Path

SRC = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, str(SRC.resolve()))

import numpy as np  # noqa: E402

from matchgames.experiments import ExperimentConfig, run_experiment  # noqa: E402
from matchgames.games import solve_game  # noqa: E402
from matchgames.instability import matching_instability, subset_instability  # noqa: E402
from matchgames.learning import Policy, run_episode  # noqa: E402
from matchgames.market import (  # noqa: E402
    AgentId,
    Generator,
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


def random_matching(rng, p: int, a: int) -> Matching:
    """Empty, partial or full, uniformly by size."""
    size = int(rng.integers(0, min(p, a) + 1))
    lefts = rng.permutation(p)[:size].tolist()
    rights = rng.permutation(a)[:size].tolist()
    return Matching(tuple(zip(lefts, rights)))


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
        strategies = {}
        for i, j in matching.pairs:
            strategies[AgentId.left(i)] = rng.dirichlet(np.ones(m))
            strategies[AgentId.right(j)] = rng.dirichlet(np.ones(k))
        digest.add(matching_instability(instance, matching, strategies).to_record())
    return digest


def game_solutions() -> Digest:
    digest = Digest()
    rng = np.random.default_rng(7)
    for m, k in itertools.product(range(1, 6), repeat=2):
        for scale in (1e-6, 1.0, 1e6):
            for _ in range(8):
                game = rng.standard_normal((m, k)) * scale
                digest.add(solve_game(game))
                digest.add(solve_game(np.round(game / scale) * scale))
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
        ("audit-reports", audit_reports()),
        ("game-solutions", game_solutions()),
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
