"""Two-sided market model: agents, instances, preferences, and matching.

Left agents are proposers by default in deferred acceptance. Each cross pair
(left i, right j) carries an m x k payoff matrix expressed from the left
agent's point of view; the right agent receives the negation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields
from enum import Enum, IntEnum
from functools import cached_property, lru_cache
from itertools import chain

import numpy as np

from .errors import DimensionError, InputError, check_integer, check_market_sizes, check_real, check_reals
from .games import maximin


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
        if type(self.side) is not Side:  # 0 and 1 read as their sides; a bool or anything else is refused
            if check_integer("agent side", self.side) not in (0, 1):
                raise InputError(f"agent side must be 0 (left) or 1 (right), got {self.side!r}")
            object.__setattr__(self, "side", Side(self.side))
        object.__setattr__(self, "index", check_integer("agent index", self.index, 0))
        object.__setattr__(self, "_hash", hash((self.side, self.index)))  # the dataclass hash, once

    def __hash__(self) -> int:
        return self._hash

    # Ids are frozen and compare by value, so one shared instance per index
    # serves every caller; typed keys keep 1, 1.0 and True apart, so a refused
    # index is refused every time, and the bound keeps memory flat.
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
    side's view, and outside options are per-agent reservation utilities. It
    holds read-only copies, rebuilt on unpickling, so its checks hold and its
    game_values, solved once, stay its games' values.
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
        for name in ("p", "a", "m", "k"):
            object.__setattr__(self, name, check_integer(name, getattr(self, name), 1))
        if self.seed is not None:
            object.__setattr__(self, "seed", check_integer("seed", self.seed, 0))
        names = ("games", "left_outside", "right_outside")
        games, lo, ro = (check_reals(name, getattr(self, name)).copy() for name in names)
        lo, ro = np.atleast_1d(lo, ro)
        if games.shape != (self.p, self.a, self.m, self.k):
            raise DimensionError(
                f"games shape {games.shape} does not match "
                f"(p, a, m, k) = {(self.p, self.a, self.m, self.k)}"
            )
        if lo.shape != (self.p,) or ro.shape != (self.a,):
            raise DimensionError("outside option vectors must cover every agent on each side")
        if not (np.isfinite(games).all() and np.isfinite(lo).all() and np.isfinite(ro).all()):
            raise InputError("market instance contains non-finite entries")
        for name, value in (("games", games), ("left_outside", lo), ("right_outside", ro)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return type(self), tuple(getattr(self, field.name) for field in fields(self))

    @cached_property
    def game_values(self) -> np.ndarray:
        """Left-view minimax value of every pair's game, a read-only p x a
        array, solved in one maximin call the first time it is read."""
        values = maximin(self.games)[0]
        values.flags.writeable = False
        return values

    def agents(self) -> tuple[AgentId, ...]:
        return _agents(self.p, self.a)


@lru_cache(maxsize=64)
def _agents(p: int, a: int) -> tuple[AgentId, ...]:
    """The AgentIds by number: left agents 0..p-1, then right agents 0..a-1."""
    return (*map(AgentId.left, range(p)), *map(AgentId.right, range(a)))


def _unchecked(cls, **values):
    """A cls holding values as given, past __post_init__'s checks: for values valid by construction."""
    instance = object.__new__(cls)
    instance.__dict__.update(values)
    return instance


def _index_rows(rows, name: str) -> tuple:
    """rows as int tuples; a bool or a non-integral entry is an InputError naming name."""
    try:
        rows = tuple(map(tuple, rows))
    except TypeError:
        raise InputError(f"{name} rows must be sequences, got {rows!r}") from None
    if not set(map(type, chain.from_iterable(rows))) <= {int}:  # one C-level pass if all are ints
        rows = tuple(tuple(check_integer(name, index) for index in row) for row in rows)
    return rows


@dataclass(frozen=True)
class Matching:
    """A set of disjoint (left index, right index) pairs."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        pairs = tuple(sorted(_index_rows(self.pairs, "matched index")))
        if any(len(pair) != 2 for pair in pairs):
            raise DimensionError(f"a matched pair must hold two indices, got {pairs}")
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

    Lists hold acceptable partners only, best first: deferred acceptance reads nothing else.
    """

    left: tuple[tuple[int, ...], ...]
    right: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        left = _index_rows(self.left, "left preference list entry")
        right = _index_rows(self.right, "right preference list entry")
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
        lv, rv, lo, ro = (check_reals(field.name, getattr(self, field.name)) for field in fields(self))
        (lv, rv), (lo, ro) = np.atleast_2d(lv, rv), np.atleast_1d(lo, ro)
        p, a = lv.shape[0], lv.shape[-1]
        if lv.ndim != 2 or rv.shape != (a, p) or lo.shape != (p,) or ro.shape != (a,):
            raise DimensionError(
                f"utility table shapes disagree: left {lv.shape}, right {rv.shape}, "
                f"outside {lo.shape}/{ro.shape}"
            )
        if not np.isfinite(np.concatenate((lv, rv, lo, ro), axis=None)).all():
            raise InputError("utility table contains non-finite entries")
        self.__dict__.update(left=lv, right=rv, left_outside=lo, right_outside=ro)  # past frozen __setattr__

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
    The table is checked; the lists, distinct in-range ints by construction, are not.
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

    return _unchecked(
        PreferenceProfile,
        left=lists(table.left, table.left_outside),
        right=lists(table.right, table.right_outside),
    )


def deferred_acceptance(prefs: PreferenceProfile, proposing_side: Side = Side.LEFT) -> Matching:
    """Gale-Shapley deferred acceptance over truncated lists.

    Proposers work down their lists; receivers hold the best acceptable
    proposal seen so far. Returns the proposer-optimal stable matching for
    the reported preferences.
    """
    if not isinstance(proposing_side, Side):
        raise InputError(f"unknown proposing side {proposing_side!r}")
    sides = (prefs.left, prefs.right) if proposing_side is Side.LEFT else (prefs.right, prefs.left)
    proposer_lists, receiver_lists = sides
    # receiver_rank[receiver][proposer]: the proposer's rank on the receiver's list, None if absent
    # or past the end. A list that ranks over half the proposers spans them all (cheaper than max());
    # a shorter one ends at its largest proposer, so memory follows the lists' length, not p * a
    n = len(proposer_lists)
    receiver_rank = [[None] * (n if 2 * len(lst) > n else max(lst, default=-1) + 1) for lst in receiver_lists]
    for ranks, lst in zip(receiver_rank, receiver_lists):
        for rank, proposer in enumerate(lst):
            ranks[proposer] = rank
    cursor = [0] * len(proposer_lists)
    held = [None] * len(receiver_lists)
    queue = deque(range(len(proposer_lists)))
    while queue:
        proposer = queue.popleft()
        lst = proposer_lists[proposer]
        while cursor[proposer] < len(lst):
            receiver = lst[cursor[proposer]]
            cursor[proposer] += 1
            ranks = receiver_rank[receiver]
            try:
                rank = ranks[proposer]
            except IndexError:  # past the end of the receiver's list
                continue
            if rank is None:
                continue
            incumbent = held[receiver]
            if incumbent is None:
                held[receiver] = proposer
                break
            if rank < ranks[incumbent]:
                held[receiver] = proposer
                queue.append(incumbent)
                break
        # list exhausted: proposer stays unmatched
    pairs = [pair for pair in enumerate(held) if pair[1] is not None]  # (receiver, proposer), sorted
    if proposing_side is Side.LEFT:
        pairs = sorted((proposer, receiver) for receiver, proposer in pairs)
    return _unchecked(Matching, pairs=tuple(pairs))  # disjoint, nonnegative and sorted as built


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
    p, a, m, k = check_market_sizes(p, a, m, k)
    seed = check_integer("seed", seed, 0)
    outside_option = check_real("outside_option", outside_option)
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
        left_outside=np.full(p, outside_option),
        right_outside=np.full(a, outside_option),
        generator=generator,
        seed=seed,
    )
