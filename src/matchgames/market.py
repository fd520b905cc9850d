"""Two-sided market model: agents, instances, preferences, and matching.

Left agents are proposers by default in deferred acceptance. Each cross pair
(left i, right j) carries an m x k payoff matrix expressed from the left
agent's point of view; the right agent receives the negation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum, IntEnum
from functools import lru_cache

import numpy as np

from .errors import DimensionError, InputError


class Side(IntEnum):
    LEFT = 0
    RIGHT = 1


class Generator(Enum):
    GAUSSIAN_UNIT = "gaussian-unit"
    UNIFORM_SIGNED = "uniform-signed"


@dataclass(frozen=True, order=True)
class AgentId:
    side: Side
    index: int

    def __post_init__(self):
        if self.index < 0:
            raise InputError(f"agent index must be nonnegative, got {self.index}")

    # Ids are frozen and compare by value, so one shared instance per index
    # serves every caller; typed keys keep 1, 1.0 and True apart, and the
    # bound keeps memory flat whatever indices callers pass.
    @classmethod
    @lru_cache(maxsize=1024, typed=True)
    def left(cls, index: int) -> AgentId:
        return cls(Side.LEFT, index)

    @classmethod
    @lru_cache(maxsize=1024, typed=True)
    def right(cls, index: int) -> AgentId:
        return cls(Side.RIGHT, index)

    def __str__(self) -> str:
        return f"{'L' if self.side is Side.LEFT else 'R'}{self.index}"


@dataclass(frozen=True)
class MarketInstance:
    """A market: p left agents, a right agents, m x k games per cross pair.

    games[i, j] is the payoff matrix of pair (left i, right j) from the left
    side's view. Outside options are per-agent reservation utilities.
    """

    p: int
    a: int
    m: int
    k: int
    games: np.ndarray
    left_outside: np.ndarray
    right_outside: np.ndarray
    generator: Generator | None = None
    seed: int | None = None

    def __post_init__(self):
        if min(self.p, self.a, self.m, self.k) < 1:
            raise InputError("market dimensions must all be at least 1")
        games = np.asarray(self.games, dtype=float)
        lo = np.atleast_1d(np.asarray(self.left_outside, dtype=float))
        ro = np.atleast_1d(np.asarray(self.right_outside, dtype=float))
        if games.shape != (self.p, self.a, self.m, self.k):
            raise DimensionError(
                f"games shape {games.shape} does not match "
                f"(p, a, m, k) = {(self.p, self.a, self.m, self.k)}"
            )
        if lo.shape != (self.p,) or ro.shape != (self.a,):
            raise DimensionError("outside option vectors must cover every agent on each side")
        if not (np.isfinite(games).all() and np.isfinite(lo).all() and np.isfinite(ro).all()):
            raise InputError("market instance contains non-finite entries")
        object.__setattr__(self, "games", games)
        object.__setattr__(self, "left_outside", lo)
        object.__setattr__(self, "right_outside", ro)

    def agents(self) -> list[AgentId]:
        return [AgentId.left(i) for i in range(self.p)] + [
            AgentId.right(j) for j in range(self.a)
        ]


@dataclass(frozen=True)
class Matching:
    """A set of disjoint (left index, right index) pairs."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        pairs = tuple(sorted((int(i), int(j)) for i, j in self.pairs))
        left, right = set(), set()
        for i, j in pairs:
            if i < 0 or j < 0:
                raise InputError(f"matched indices must be nonnegative, got {(i, j)}")
            if i in left or j in right:
                raise InputError(f"agent matched twice in {pairs}")
            left.add(i)
            right.add(j)
        object.__setattr__(self, "pairs", pairs)

    def validate_for(self, p: int, a: int) -> None:
        for i, j in self.pairs:
            if i >= p or j >= a:
                raise DimensionError(f"pair {(i, j)} out of range for market {p}x{a}")

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class PreferenceProfile:
    """Truncated strict preference lists over opposite-side indices.

    Lists hold acceptable partners only, best first. Thresholds record the
    outside options the lists were truncated at.
    """

    left: tuple[tuple[int, ...], ...]
    right: tuple[tuple[int, ...], ...]
    left_threshold: tuple[float, ...] = ()
    right_threshold: tuple[float, ...] = ()

    def __post_init__(self):
        left = tuple(tuple(map(int, lst)) for lst in self.left)
        right = tuple(tuple(map(int, lst)) for lst in self.right)
        for lst, bound, label in (
            *[(lst, len(right), "left") for lst in left],
            *[(lst, len(left), "right") for lst in right],
        ):
            if len(set(lst)) != len(lst):
                raise InputError(f"{label} preference list repeats an entry: {lst}")
            if lst and (min(lst) < 0 or max(lst) >= bound):
                raise DimensionError(f"{label} preference list {lst} references index out of range")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        for name, lists in (("left", left), ("right", right)):
            raw = getattr(self, f"{name}_threshold")
            thresholds = tuple(map(float, raw)) if raw else (0.0,) * len(lists)
            if len(thresholds) != len(lists):
                raise DimensionError(
                    f"{name}_threshold has {len(thresholds)} entries for {len(lists)} agents"
                )
            object.__setattr__(self, f"{name}_threshold", thresholds)


@dataclass(frozen=True)
class UtilityTable:
    """Per-agent utilities for every potential partner, plus outside options.

    left[i, j]: utility of left agent i when matched with right agent j;
    right[j, i]: the mirror. These are whatever utilities the caller is
    reasoning about (true values, realized payoffs, optimistic estimates).
    """

    left: np.ndarray
    right: np.ndarray
    left_outside: np.ndarray
    right_outside: np.ndarray

    def __post_init__(self):
        lv = np.atleast_2d(np.asarray(self.left, dtype=float))
        rv = np.atleast_2d(np.asarray(self.right, dtype=float))
        lo = np.atleast_1d(np.asarray(self.left_outside, dtype=float))
        ro = np.atleast_1d(np.asarray(self.right_outside, dtype=float))
        p, a = lv.shape
        if rv.shape != (a, p) or lo.shape != (p,) or ro.shape != (a,):
            raise DimensionError(
                f"utility table shapes disagree: left {lv.shape}, right {rv.shape}, "
                f"outside {lo.shape}/{ro.shape}"
            )
        if not np.isfinite(np.concatenate((lv, rv, lo, ro), axis=None)).all():
            raise InputError("utility table contains non-finite entries")
        object.__setattr__(self, "left", lv)
        object.__setattr__(self, "right", rv)
        object.__setattr__(self, "left_outside", lo)
        object.__setattr__(self, "right_outside", ro)

    def current(self, matching: Matching) -> tuple[np.ndarray, np.ndarray]:
        """(left, right) utilities at the matching; unmatched agents sit at their outside option."""
        matching.validate_for(*self.left.shape)
        left, right = self.left_outside.copy(), self.right_outside.copy()
        for i, j in matching.pairs:
            left[i], right[j] = self.left[i, j], self.right[j, i]
        return left, right


def preferences_from_values(
    left_values, right_values, left_outside, right_outside
) -> PreferenceProfile:
    """Build truncated strict preference lists from value tables.

    Sort is by descending value with ties broken toward the lower index;
    partners valued strictly below the agent's outside option are dropped.
    """
    table = UtilityTable(left_values, right_values, left_outside, right_outside)

    def lists(values: np.ndarray, thresholds: np.ndarray) -> tuple:
        # on Python floats; sorted() stays stable under reverse=True, so ties
        # keep the lower index
        partners = range(values.shape[1])
        return tuple(
            tuple(j for j in sorted(partners, key=row.__getitem__, reverse=True) if row[j] >= cut)
            for row, cut in zip(values.tolist(), thresholds.tolist())
        )

    return PreferenceProfile(
        lists(table.left, table.left_outside),
        lists(table.right, table.right_outside),
        tuple(table.left_outside.tolist()),
        tuple(table.right_outside.tolist()),
    )


def deferred_acceptance(prefs: PreferenceProfile, proposing_side: Side = Side.LEFT) -> Matching:
    """Gale-Shapley deferred acceptance over truncated lists.

    Proposers work down their lists; receivers hold the best acceptable
    proposal seen so far. Returns the proposer-optimal stable matching for
    the reported preferences.
    """
    if proposing_side is Side.LEFT:
        proposer_lists, receiver_lists = prefs.left, prefs.right
    else:
        proposer_lists, receiver_lists = prefs.right, prefs.left
    receiver_rank = [{p: r for r, p in enumerate(lst)} for lst in receiver_lists]
    cursor = [0] * len(proposer_lists)
    held: dict[int, int] = {}
    queue = deque(range(len(proposer_lists)))
    while queue:
        proposer = queue.popleft()
        lst = proposer_lists[proposer]
        while cursor[proposer] < len(lst):
            receiver = lst[cursor[proposer]]
            cursor[proposer] += 1
            rank = receiver_rank[receiver].get(proposer)
            if rank is None:
                continue
            incumbent = held.get(receiver)
            if incumbent is None:
                held[receiver] = proposer
                break
            if rank < receiver_rank[receiver][incumbent]:
                held[receiver] = proposer
                queue.append(incumbent)
                break
        # list exhausted: proposer stays unmatched
    if proposing_side is Side.LEFT:
        pairs = [(proposer, receiver) for receiver, proposer in held.items()]
    else:
        pairs = [(receiver, proposer) for receiver, proposer in held.items()]
    return Matching(tuple(pairs))


def generate_instance(
    p: int,
    a: int,
    m: int,
    k: int,
    generator: Generator = Generator.GAUSSIAN_UNIT,
    outside_option: float = -1.0,
    seed: int = 0,
) -> MarketInstance:
    """Draw a random market instance, deterministic in seed.

    GAUSSIAN_UNIT fills games with independent standard normals;
    UNIFORM_SIGNED draws uniformly from [-1, 1]. All agents share the given
    outside option value.
    """
    if min(p, a, m, k) < 1:
        raise InputError("market dimensions must all be at least 1")
    if not np.isfinite(outside_option):
        raise InputError("outside option must be finite")
    rng = np.random.default_rng(seed)
    if generator is Generator.GAUSSIAN_UNIT:
        games = rng.standard_normal((p, a, m, k))
    elif generator is Generator.UNIFORM_SIGNED:
        games = rng.uniform(-1.0, 1.0, size=(p, a, m, k))
    else:
        raise InputError(f"unknown generator {generator!r}")
    return MarketInstance(
        p=p,
        a=a,
        m=m,
        k=k,
        games=games,
        left_outside=np.full(p, float(outside_option)),
        right_outside=np.full(a, float(outside_option)),
        generator=generator,
        seed=seed,
    )
