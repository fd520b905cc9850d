"""Optimistic bandit learning of matching equilibria under noisy feedback.

Each round makes one pass: the pairs whose statistics changed are scored by the
minimax value of their upper-confidence payoff matrices, preference lists
built from those values feed deferred acceptance, and each matched pair plays
its optimistic maximin strategies and feeds one noisy zero-sum reward into a
shared left-view estimate table. The three policies differ only in the right
side's table of preference values and per-pair strategies: SELF_PLAY refreshes
it from the right side's own optimistic maximin, NASH_RESPONSE fills it once
from the exact game solutions, and BEST_RESPONSE refreshes it with pure best
responses to the left side's current optimistic strategies.

A round that refreshes fewer than _STACK_MIN_GAMES optimistic games (12:
every round of a 2x2 market, and the later rounds of small ones) solves them
pair by pair, a 2x2 pair's formed and solved on Python floats up to the
strategy's array. A round with more (the first round of a large market, or
a later one with many matched pairs) builds them as numpy stacks from the
round's width table and solves them in one stacked maximin call, or in one
call a side when the two sides' games differ in shape (m != k). Both routes
give every game the same bits.

Every random draw of an episode comes from one of three streams per pair
(i, j): purpose 0 draws the left agent's action, 1 the right agent's, and 2
the reward noise. The traces rest on this contract: stream (purpose, i, j)
is numpy's default_rng(SeedSequence(entropy=seed, spawn_key=(purpose, i,
j))). The episode mixes the seed once and the key words of every stream as
arrays into one seed table (_seed_table), which reproduces SeedSequence's
state words word for word; a stream is built from its row the first time
the pair is matched.

Each matched agent draws its action from its stream by numpy's
Generator.choice rule on Python floats: cumulative sums of the checked
strategy, each divided by the last, searched on the right for one uniform.
The draws, and so the traces, are those of choice(n, p=x).
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import InputError, check_integer, check_real, check_sizes
from .games import best_response, check_strategy, maximin
from .instability import matching_instability
from .market import (
    AgentId,
    MarketInstance,
    Matching,
    Side,
    deferred_acceptance,
    preferences_from_values,
)


class Policy(Enum):
    SELF_PLAY = "self-play"
    NASH_RESPONSE = "nash-response"
    BEST_RESPONSE = "best-response"


def auto_delta(T: int, p: int, a: int, m: int, k: int) -> float:
    """Default confidence level: shrinks with horizon and market size."""
    T, p, a, m, k = check_sizes(T=T, p=p, a=a, m=m, k=k)
    denominator = 4.0 * T * T * p * p * a * a * m * k
    if not math.isfinite(denominator):
        raise InputError("T, p, a, m and k are too large: auto_delta underflows to 0")
    return 1.0 / denominator


@dataclass
class ConfidenceState:
    """Shared payoff statistics in the left view: visit counts and means."""

    counts: np.ndarray
    means: np.ndarray
    delta: float

    @classmethod
    def fresh(cls, p: int, a: int, m: int, k: int, delta: float) -> ConfidenceState:
        delta = check_real("delta", delta)
        if not (0.0 < delta < 1.0):
            raise InputError(f"delta must lie strictly inside (0, 1), got {delta!r}")
        shape = (p, a, m, k)
        return cls(counts=np.zeros(shape, dtype=np.int64), means=np.zeros(shape), delta=delta)

    def update(self, i: int, j: int, row_action: int, col_action: int, reward: float) -> None:
        cell = (i, j, row_action, col_action)
        self.counts[cell] += 1
        self.means[cell] += (reward - self.means[cell]) / self.counts[cell]

    def width(self, *pair: int) -> np.ndarray:
        """Per-cell confidence radius of pair (i, j), or of every pair if none
        is given; unvisited cells count as one visit."""
        n = np.maximum(self.counts[pair], 1)
        return np.sqrt(2.0 * math.log(1.0 / self.delta) / n)


def ucb_matrix(state: ConfidenceState, pair: tuple[int, int], side: Side = Side.LEFT) -> np.ndarray:
    """Optimistic payoff matrix for one member of a pair, in its own view.

    The right-side view transposes and negates the shared means but keeps
    the (symmetric) confidence widths additive, so both sides are optimistic
    about their own payoffs.
    """
    i, j = pair
    width = state.width(i, j)
    if side is Side.LEFT:
        return state.means[i, j] + width
    return -state.means[i, j].T + width.T


def _optimistic(state: ConfidenceState, i: int, j: int, side: Side = Side.LEFT):
    """ucb_matrix(state, (i, j), side); a 2x2 pair's as the same Python floats, in lists."""
    if state.counts.shape[2:] != (2, 2):
        return ucb_matrix(state, (i, j), side)
    radius = 2.0 * math.log(1.0 / state.delta)
    (m00, m01), (m10, m11) = state.means[i, j].tolist()
    w00, w01, w10, w11 = [math.sqrt(radius / max(n, 1)) for n in state.counts[i, j].ravel().tolist()]
    if side is Side.LEFT:
        return [[m00 + w00, m01 + w01], [m10 + w10, m11 + w11]]
    return [[-m00 + w00, -m10 + w10], [-m01 + w01, -m11 + w11]]


# A round with fewer refreshed games than this solves them pair by pair; from
# here up, as stacks. Measured on a 2-CPU Xeon VM (Python 3.11.7, numpy
# 2.4.6), a stacked call costs about 0.3 ms plus 3 us a game. A 2x2 game
# costs about 18 us pair by pair, on Python floats, so on 2x2 games the
# stack breaks even at about 22 games. A larger game runs the numpy tableau
# at 100 to 200 us, so there the stack wins from about 4. At 12, a 2x2 round
# of 12 to 21 games loses at most about 0.1 ms; at 22, a round of 12 to 21
# 3x3 games would lose up to 1.7 ms.
_STACK_MIN_GAMES = 12


def _solve_optimistic(state: ConfidenceState, widths: np.ndarray, pairs, sides) -> list:
    """Optimistic maximin (value, strategy) of each pair's game, one sequence per side.

    widths is state.width(). Fewer than _STACK_MIN_GAMES games are solved
    pair by pair from _optimistic; more as stacks of ucb_matrix's games, in
    one maximin call when both sides' games share a shape (m == k) and in
    one call per side otherwise. Either way each answer has the same bits.
    """
    if len(sides) * len(pairs) < _STACK_MIN_GAMES:
        return [[maximin(_optimistic(state, i, j, side)) for i, j in pairs] for side in sides]
    rows, cols = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    means, radii = state.means[rows, cols], widths[rows, cols]
    stacks = [means + radii if side is Side.LEFT else np.swapaxes(radii - means, 1, 2) for side in sides]
    if len(stacks) == 2 and stacks[0].shape == stacks[1].shape:
        values, plays = maximin(np.concatenate(stacks))
        n = len(pairs)
        return [zip(values[:n], plays[:n]), zip(values[n:], plays[n:])]
    return [zip(*maximin(stack)) for stack in stacks]


def _exploit(game: np.ndarray, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Right side's pure best response to x in its own game, and its payoff."""
    own_game = -game.T
    response = best_response(own_game, x)
    return float(response @ own_game @ x), response


@dataclass(frozen=True)
class StepRecord:
    """One round of play: who matched, what they played, what it cost.

    ucb_value_slack and ucb_pair_slack are optimism diagnostics recorded for
    self-play only: the first is the largest excess of an agent's optimistic
    game value over its optimistic expected payoff inside its match, the
    second the least-tempted member's excess across every cross pair. Both
    stay at or below zero when optimism is consistent. width_bound is the
    played-profile confidence mass that bounds instability on clean steps.
    """

    t: int
    matching: Matching
    strategies: dict
    actions: dict
    rewards: dict
    mi: float
    event_ok: bool
    width_bound: float
    ucb_value_slack: float | None
    ucb_pair_slack: float | None


# numpy's SeedSequence: 32-bit words, a pool of 4, and its hash constants
_MASK32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _chain(start: int, mult: int, n: int) -> list[int]:
    """The hash constant before each of n hashes, then after the last one."""
    chain = [start]
    for _ in range(n):
        chain.append(chain[-1] * mult & _MASK32)
    return chain


_STATE_CHAIN = np.array(_chain(_INIT_B, _MULT_B, 2 * _POOL), dtype=np.uint32)


def _hash(value, before, after):
    """SeedSequence's hashmix (and its generate_state step) of value, given
    the hash constant before and after it; on Python ints below 2**32 or on
    uint32 arrays, which wrap as the C code does."""
    value = (value ^ before) * after & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix of pool word x with hashed word y."""
    result = ((_MIX_MULT_L * x & _MASK32) - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


def _seed_table(seed: int, p: int, a: int) -> np.ndarray:
    """SeedSequence(entropy=seed, spawn_key=(purpose, i, j)).generate_state(4,
    np.uint64) for every purpose < 3, i < p and j < a: a (3, p, a, 4) table.

    The entropy is the seed's little-endian 32-bit words, padded with zeros
    to the pool size, then the key's three words. Every stream shares the
    seed's words, so they are mixed once on Python ints (the pool's first
    words, then every pool word into every other, then any words past the
    fourth). Each key word then mixes into every pool word as a broadcast
    uint32 array, purpose (3, 1, 1), i (p, 1) and j (a,), with the pool on
    the last axis. The state's 8 words hash the pool twice over and are read
    as little-endian uint64, as generate_state does.
    """
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL - len(words))
    # 4 hashes a seed word (its own, or the pool's cross-mix) and 4 a key word
    chain = _chain(_INIT_A, _MULT_A, _POOL * (len(words) + 3))
    hashes = zip(chain, chain[1:])
    pool = [_hash(word, *next(hashes)) for word in words[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], *next(hashes)))
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], _hash(word, *next(hashes)))
    pool = np.array(pool, dtype=np.uint32)
    for n, shape in enumerate([(3, 1, 1, 1), (p, 1, 1), (a, 1)], start=len(words)):
        key = np.arange(shape[0], dtype=np.uint32).reshape(shape)
        step = np.array(chain[_POOL * n : _POOL * (n + 1) + 1], dtype=np.uint32)
        pool = _mix(pool, _hash(key, step[:-1], step[1:]))
    state = _hash(np.concatenate([pool, pool], axis=-1), _STATE_CHAIN[:-1], _STATE_CHAIN[1:])
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _TableSeed(ISeedSequence):
    """A seed sequence whose state is one precomputed row of _seed_table;
    it answers the one request PCG64 makes, generate_state(4, np.uint64)."""

    def __init__(self, state: np.ndarray) -> None:
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.state


_LEFT_ACTION, _RIGHT_ACTION, _REWARD = 0, 1, 2


def _draw(rng: np.random.Generator, x: np.ndarray) -> int:
    """The action rng.choice(len(x), p=x) draws from checked strategy x,
    consuming the same single uniform; see the module docstring."""
    cdf = list(itertools.accumulate(x.tolist()))
    total = cdf[-1]
    return bisect.bisect_right([c / total for c in cdf], rng.random())


def run_episode(
    instance: MarketInstance,
    policy: Policy,
    T: int,
    *,
    delta: float | None = None,
    seed: int = 0,
    noise_scale: float = 1.0,
    proposing_side: Side = Side.LEFT,
) -> list[StepRecord]:
    """Play T rounds and return the full step log.

    delta=None selects auto_delta. noise_scale scales the Gaussian reward
    noise; zero gives exact payoffs. Output is a deterministic function of
    (instance, policy, T, delta, seed, noise_scale, proposing_side).
    """
    if not isinstance(policy, Policy):
        raise InputError(f"unknown policy {policy!r}")
    T, seed = check_integer("T", T, 1), check_integer("seed", seed, 0)
    noise_scale = check_real("noise_scale", noise_scale)
    if noise_scale < 0.0:
        raise InputError(f"noise_scale must be nonnegative, got {noise_scale!r}")
    p, a, m, k = instance.p, instance.a, instance.m, instance.k
    if delta is None:
        delta = auto_delta(T, p, a, m, k)
    state = ConfidenceState.fresh(p, a, m, k, delta)

    seeds = _seed_table(seed, p, a)

    @cache
    def stream(purpose: int, i: int, j: int) -> np.random.Generator:
        """default_rng(SeedSequence(entropy=seed, spawn_key=(purpose, i, j)))."""
        return np.random.Generator(np.random.PCG64(_TableSeed(seeds[purpose, i, j])))

    # Left side: optimistic maximin value and strategy per pair. Right side:
    # right_value[j, i] is what right agent j expects against left agent i and
    # right_play[j][i] the strategy it plays there. Nash-response fills the
    # right side's table here, once; the other policies refresh it per pair.
    # The audit's true values and nash-response's table each take one stacked
    # maximin call over every pair's game; a column strategy is the row
    # strategy of the mirrored game -A^T, as in solve_game.
    left_value = np.zeros((p, a))
    left_play = [[None] * a for _ in range(p)]
    true_values = maximin(instance.games)[0]
    if policy is Policy.NASH_RESPONSE:
        right_value = -true_values.T
        columns = maximin(-np.swapaxes(instance.games, 2, 3))[1]
        right_play = [[columns[i, j] for i in range(p)] for j in range(a)]
    else:
        right_value = np.zeros((a, p))
        right_play = [[None] * p for _ in range(a)]

    records: list[StepRecord] = []
    sides = (Side.LEFT, Side.RIGHT) if policy is Policy.SELF_PLAY else (Side.LEFT,)
    refresh = [(i, j) for i in range(p) for j in range(a)]
    for t in range(1, T + 1):
        # Round 1 solves every pair; later rounds only the pairs that played.
        # One width table a round serves the refresh and the confidence event.
        widths = state.width()
        solved = _solve_optimistic(state, widths, refresh, sides)
        for (i, j), (value, x) in zip(refresh, solved[0]):
            left_value[i, j], left_play[i][j] = value, x
            if policy is Policy.BEST_RESPONSE:
                right_value[j, i], right_play[j][i] = _exploit(instance.games[i, j], x)
        if policy is Policy.SELF_PLAY:
            for (i, j), (value, y) in zip(refresh, solved[1]):
                right_value[j, i], right_play[j][i] = value, y

        prefs = preferences_from_values(
            left_value, right_value, instance.left_outside, instance.right_outside
        )
        matching = deferred_acceptance(prefs, proposing_side)

        event_ok = bool((np.abs(state.means - instance.games) <= widths).all())
        strategies: dict = {}
        actions: dict = {}
        rewards: dict = {}
        width_bound = 0.0
        # Each agent's optimistic expected payoff: the mean payoff of its match
        # plus the played profile's width mass; unmatched agents sit outside.
        # A pair's statistics are read before its own update, and matched
        # pairs are disjoint, so the update inside this loop reaches no other
        # pair's reads.
        optimistic_left = instance.left_outside.copy()
        optimistic_right = instance.right_outside.copy()
        for i, j in matching.pairs:
            x, y = left_play[i][j], right_play[j][i]
            mass = float(x @ widths[i, j] @ y)
            mean = float(x @ state.means[i, j] @ y)
            width_bound += 4.0 * mass
            optimistic_left[i], optimistic_right[j] = mean + mass, mass - mean

            row_action = _draw(stream(_LEFT_ACTION, i, j), check_strategy(x, m))
            col_action = _draw(stream(_RIGHT_ACTION, i, j), check_strategy(y, k))
            noise = float(stream(_REWARD, i, j).standard_normal())
            reward = float(instance.games[i, j, row_action, col_action]) + noise_scale * noise
            state.update(i, j, row_action, col_action, reward)
            left, right = AgentId.left(i), AgentId.right(j)
            strategies[left], strategies[right] = x, y
            actions[left], actions[right] = row_action, col_action
            rewards[left], rewards[right] = reward, -reward
        refresh = matching.pairs

        value_slack = pair_slack = None
        if policy is Policy.SELF_PLAY:
            left_slack = left_value - optimistic_left[:, None]
            right_slack = right_value - optimistic_right[:, None]
            value_slack = max(
                (max(left_slack[i, j], right_slack[j, i]) for i, j in matching.pairs),
                default=None,
            )
            pair_slack = np.minimum(left_slack, right_slack.T).max()

        mi_report = matching_instability(
            instance, matching, strategies, game_values=true_values
        )
        records.append(
            StepRecord(
                t=t,
                matching=matching,
                strategies=strategies,
                actions=actions,
                rewards=rewards,
                mi=mi_report.value,
                event_ok=event_ok,
                width_bound=width_bound,
                ucb_value_slack=value_slack,
                ucb_pair_slack=pair_slack,
            )
        )
    return records
