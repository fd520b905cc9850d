"""Optimistic bandit learning of matching equilibria under noisy feedback.

Each round makes one pass: the pairs whose statistics changed are scored by the
minimax value of their upper-confidence payoff matrices, preference lists
built from those values feed deferred acceptance, and each matched pair plays
its optimistic maximin strategies and feeds one noisy zero-sum reward into a
shared left-view estimate table. Both sides' values and strategies sit in one
table indexed [side, i, j], and the policies differ only in the right side's
half: SELF_PLAY refreshes it from the right side's own optimistic maximin,
NASH_RESPONSE fills it once from the exact game solutions, and BEST_RESPONSE
refreshes it with pure best responses to the left side's optimistic strategies.

A round forms its refreshed optimistic games once, as numpy stacks from the
round's width table, and hands them to one maximin call, or to one call a
side when the two sides' games differ in shape (m != k); maximin decides
whether a stack is solved game by game or as one stacked tableau.

Every random draw of an episode comes from one of three streams per pair
(i, j): purpose 0 draws the left agent's action, 1 the right agent's, and 2
the reward noise. The traces rest on this contract: stream (purpose, i, j)
is numpy's default_rng(SeedSequence(entropy=seed, spawn_key=(purpose, i,
j))). numpy hashes the seed once, into SeedSequence(seed).pool; the episode
mixes every stream's key words into that pool as arrays, one seed table
(_seed_table) that reproduces SeedSequence's state words word for word. A
stream is built from its row the first time the pair is matched.

Each matched agent draws its action from its stream by numpy's
Generator.choice rule on Python floats: cumulative sums of the kernel's
strategy, each divided by the last, searched on the right for one uniform.
The draws, and so the traces, are those of choice(n, p=x); the audit checks x.
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

from .errors import DimensionError, InputError, check_integer, check_market_sizes, check_real, check_sizes
from .games import best_response, maximin
from .instability import matching_instability
from .market import (
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
        shape = tuple(check_market_sizes(p, a, m, k))
        delta = check_real("delta", delta)
        if not (0.0 < delta < 1.0):
            raise InputError(f"delta must lie strictly inside (0, 1), got {delta!r}")
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
    if not isinstance(side, Side):
        raise InputError(f"unknown side {side!r}")
    if not hasattr(pair, "__len__") or len(pair) != 2:
        raise DimensionError(f"pair must hold two indices, got {pair!r}")
    i, j = (check_integer("pair index", index, 0) for index in pair)
    if i >= state.counts.shape[0] or j >= state.counts.shape[1]:
        raise DimensionError(f"pair {(i, j)} out of range for a state of shape {state.counts.shape}")
    width = state.width(i, j)
    if side is Side.LEFT:
        return state.means[i, j] + width
    return (width - state.means[i, j]).T


def _solve_optimistic(state: ConfidenceState, widths: np.ndarray, pairs, sides) -> list:
    """Optimistic maximin (value, strategy) of each pair's game, one sequence per side.

    widths is state.width(). Each side's games form one stack, by ucb_matrix's
    formula, solved in one maximin call when both sides' games share a shape
    (m == k) and in one call per side otherwise.
    """
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
    """SeedSequence's hashmix (and its generate_state step) of uint32 array
    value, given the hash constant before and after it; it wraps as the C
    code does."""
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
    seed's words, so numpy hashes them once, 4 hashes a word, into
    SeedSequence(seed).pool. Each key word then mixes into every pool word as
    a broadcast uint32 array, purpose (3, 1, 1), i (p, 1) and j (a,), with
    the pool on the last axis. The state's 8 words hash the pool twice over
    and are read as little-endian uint64, as generate_state does.
    """
    pool = np.random.SeedSequence(seed).pool
    hashes = _POOL * max(-(-seed.bit_length() // 32), _POOL)  # 4 a seed word, padded to the pool
    chain = _chain(_INIT_A * pow(_MULT_A, hashes, 1 << 32) & _MASK32, _MULT_A, 3 * _POOL)
    for n, shape in enumerate([(3, 1, 1, 1), (p, 1, 1), (a, 1)]):
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
    """The action rng.choice(len(x), p=x) draws from strategy x, consuming
    the same single uniform; see the module docstring."""
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

    # values[side, i, j] is what side's member of pair (i, j) expects from the
    # match and plays[side][i][j] the strategy it plays there, side 0 the left
    # and side 1 the right. The policies differ only in side 1: self-play
    # refreshes it in the same loop as side 0, best-response overwrites it with
    # _exploit, and nash-response fills it here, once, from the instance's game
    # values and one stacked maximin call over the mirrored games -A^T (a
    # column strategy is the row strategy of -A^T, as in solve_game).
    values = np.zeros((2, p, a))
    plays = [[[None] * a for _ in range(p)] for _ in range(2)]
    if policy is Policy.NASH_RESPONSE:
        values[1] = -instance.game_values
        plays[1] = maximin(-np.swapaxes(instance.games, 2, 3))[1]

    records: list[StepRecord] = []
    agents = instance.agents()  # left agent i is agents[i] and right agent j agents[p + j]
    sides = (Side.LEFT, Side.RIGHT) if policy is Policy.SELF_PLAY else (Side.LEFT,)
    refresh = [(i, j) for i in range(p) for j in range(a)]
    for t in range(1, T + 1):
        # Round 1 solves every pair; later rounds only the pairs that played.
        # One width table a round serves the refresh and the confidence event.
        widths = state.width()
        for side, solved in enumerate(_solve_optimistic(state, widths, refresh, sides)):
            for (i, j), (value, play) in zip(refresh, solved):
                values[side, i, j], plays[side][i][j] = value, play
        if policy is Policy.BEST_RESPONSE:
            for i, j in refresh:
                values[1, i, j], plays[1][i][j] = _exploit(instance.games[i, j], plays[0][i][j])

        prefs = preferences_from_values(values[0], values[1].T, instance.left_outside, instance.right_outside)
        matching = deferred_acceptance(prefs, proposing_side)

        event_ok = bool((np.abs(state.means - instance.games) <= widths).all())
        strategies, actions, rewards = {}, {}, {}
        width_bound = 0.0
        # Each agent's optimistic expected payoff: the mean payoff of its match
        # plus the played profile's width mass; unmatched agents sit outside.
        # A pair's statistics are read before its own update, and matched
        # pairs are disjoint, so the update inside this loop reaches no other
        # pair's reads.
        optimistic_left, optimistic_right = instance.left_outside.copy(), instance.right_outside.copy()
        for i, j in matching.pairs:
            x, y = plays[0][i][j], plays[1][i][j]
            mass = float(x @ widths[i, j] @ y)
            mean = float(x @ state.means[i, j] @ y)
            width_bound += 4.0 * mass
            optimistic_left[i], optimistic_right[j] = mean + mass, mass - mean

            row_action = _draw(stream(_LEFT_ACTION, i, j), x)
            col_action = _draw(stream(_RIGHT_ACTION, i, j), y)
            noise = float(stream(_REWARD, i, j).standard_normal())
            reward = float(instance.games[i, j, row_action, col_action]) + noise_scale * noise
            state.update(i, j, row_action, col_action, reward)
            left, right = agents[i], agents[p + j]
            strategies[left], strategies[right] = x, y
            actions[left], actions[right] = row_action, col_action
            rewards[left], rewards[right] = reward, -reward
        refresh = matching.pairs

        value_slack = pair_slack = None
        if policy is Policy.SELF_PLAY:
            left_slack, right_slack = values[0] - optimistic_left[:, None], values[1] - optimistic_right
            value_slack = max(
                (max(left_slack[i, j], right_slack[i, j]) for i, j in matching.pairs),
                default=None,
            )
            pair_slack = np.minimum(left_slack, right_slack).max()

        mi_report = matching_instability(instance, matching, strategies)
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
