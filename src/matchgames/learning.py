"""Optimistic bandit learning of matching equilibria under noisy feedback.

Each round, every cross pair is scored by the minimax value of its
upper-confidence payoff matrix; preference lists built from those values
feed deferred acceptance, matched pairs play their optimistic maximin
strategies, and one noisy zero-sum reward per pair updates a shared
left-view estimate table. The three policies differ only in the right
side's table of preference values and per-pair strategies: SELF_PLAY fills
it from the right side's own optimistic maximin, NASH_RESPONSE from the
exact game solutions (fixed for the episode), and BEST_RESPONSE from pure
best responses to the left side's current optimistic strategies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InputError
from .games import best_response, check_strategy, maximin, solve_game
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
    if min(T, p, a, m, k) < 1:
        raise InputError("auto_delta arguments must all be at least 1")
    return 1.0 / (4.0 * T * T * p * p * a * a * m * k)


@dataclass
class ConfidenceState:
    """Shared payoff statistics in the left view: visit counts and means."""

    counts: np.ndarray
    means: np.ndarray
    delta: float

    @classmethod
    def fresh(cls, p: int, a: int, m: int, k: int, delta: float) -> ConfidenceState:
        delta = float(delta)
        if not (0.0 < delta < 1.0) or not math.isfinite(delta):
            raise InputError(f"delta must lie strictly inside (0, 1), got {delta!r}")
        shape = (p, a, m, k)
        return cls(counts=np.zeros(shape, dtype=np.int64), means=np.zeros(shape), delta=delta)

    def update(self, i: int, j: int, row_action: int, col_action: int, reward: float) -> None:
        cell = (i, j, row_action, col_action)
        self.counts[cell] += 1
        self.means[cell] += (reward - self.means[cell]) / self.counts[cell]

    def width(self, i: int, j: int) -> np.ndarray:
        """Per-cell confidence radius; unvisited cells count as one visit."""
        n = np.maximum(self.counts[i, j], 1)
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


def lcb_matrix(state: ConfidenceState, pair: tuple[int, int], side: Side = Side.LEFT) -> np.ndarray:
    """Pessimistic mirror of ucb_matrix."""
    i, j = pair
    width = state.width(i, j)
    if side is Side.LEFT:
        return state.means[i, j] - width
    return -state.means[i, j].T - width.T


@dataclass(frozen=True)
class RightSidePlan:
    """Right-side preference values and per-pair strategies.

    values[j, i] is the utility right agent j expects against left agent i;
    strategies[j][i] is the mixed strategy it would play in that pair.
    """

    values: np.ndarray
    strategies: list


def nash_response_strategies(instance: MarketInstance) -> RightSidePlan:
    """Right side plays exact minimax and reports true game values."""
    values = np.zeros((instance.a, instance.p))
    strategies: list = [[None] * instance.p for _ in range(instance.a)]
    for i in range(instance.p):
        for j in range(instance.a):
            solution = solve_game(instance.games[i, j])
            values[j, i] = -solution.value
            strategies[j][i] = solution.column_strategy
    return RightSidePlan(values=values, strategies=strategies)


def _exploit(game: np.ndarray, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Right side's pure best response to x in its own game, and its payoff."""
    own_game = -game.T
    response = best_response(own_game, x)
    return float(response @ own_game @ x), response


def best_response_strategies(instance: MarketInstance, left_strategies) -> RightSidePlan:
    """Right side best-responds in its own game to known left strategies.

    left_strategies[i][j] is what left agent i would play against right
    agent j. The response is pure (lowest index on ties) and the reported
    value is the payoff it actually achieves.
    """
    values = np.zeros((instance.a, instance.p))
    strategies: list = [[None] * instance.p for _ in range(instance.a)]
    for i in range(instance.p):
        for j in range(instance.a):
            x = check_strategy(left_strategies[i][j], instance.m)
            values[j, i], strategies[j][i] = _exploit(instance.games[i, j], x)
    return RightSidePlan(values=values, strategies=strategies)


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


_LEFT_ACTION, _RIGHT_ACTION, _REWARD = 0, 1, 2


class _Streams:
    """One named counter-based random stream per (purpose, pair)."""

    def __init__(self, seed: int):
        self.seed = seed
        self._cache: dict = {}

    def get(self, purpose: int, i: int, j: int) -> np.random.Generator:
        key = (purpose, i, j)
        generator = self._cache.get(key)
        if generator is None:
            sequence = np.random.SeedSequence(entropy=self.seed, spawn_key=(purpose, i, j))
            generator = np.random.default_rng(sequence)
            self._cache[key] = generator
        return generator


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
    if T < 1:
        raise InputError(f"horizon must be at least 1, got {T}")
    noise_scale = float(noise_scale)
    if not math.isfinite(noise_scale) or noise_scale < 0.0:
        raise InputError(f"noise_scale must be finite and nonnegative, got {noise_scale!r}")
    p, a, m, k = instance.p, instance.a, instance.m, instance.k
    if delta is None:
        delta = auto_delta(T, p, a, m, k)
    state = ConfidenceState.fresh(p, a, m, k, float(delta))
    streams = _Streams(seed)
    log_term = 2.0 * math.log(1.0 / state.delta)

    # Left side: optimistic maximin value and strategy per pair, re-solved
    # only for pairs whose statistics changed. Right side: one table for every
    # policy, laid out as in RightSidePlan; only its refresh reads the policy.
    left_value = np.zeros((p, a))
    left_play = [[None] * a for _ in range(p)]
    if policy is Policy.NASH_RESPONSE:
        plan = nash_response_strategies(instance)
        right_value, right_play = plan.values, plan.strategies
        true_values = -right_value.T
    else:
        right_value = np.zeros((a, p))
        right_play = [[None] * p for _ in range(a)]
        true_values = np.array(
            [[maximin(instance.games[i, j])[0] for j in range(a)] for i in range(p)]
        )
    dirty = {(i, j) for i in range(p) for j in range(a)}

    records: list[StepRecord] = []
    for t in range(1, T + 1):
        for i, j in sorted(dirty):
            left_value[i, j], left_play[i][j] = maximin(ucb_matrix(state, (i, j)))
            if policy is Policy.SELF_PLAY:
                right_value[j, i], right_play[j][i] = maximin(
                    ucb_matrix(state, (i, j), Side.RIGHT)
                )
            elif policy is Policy.BEST_RESPONSE:
                right_value[j, i], right_play[j][i] = _exploit(
                    instance.games[i, j], left_play[i][j]
                )
        dirty.clear()

        prefs = preferences_from_values(
            left_value, right_value, instance.left_outside, instance.right_outside
        )
        matching = deferred_acceptance(prefs, proposing_side)

        strategies: dict = {}
        for i, j in matching.pairs:
            strategies[AgentId.left(i)] = left_play[i][j]
            strategies[AgentId.right(j)] = right_play[j][i]

        widths_all = np.sqrt(log_term / np.maximum(state.counts, 1))
        event_ok = bool((np.abs(state.means - instance.games) <= widths_all).all())

        width_bound = 0.0
        for i, j in matching.pairs:
            width_bound += 4.0 * float(left_play[i][j] @ widths_all[i, j] @ right_play[j][i])

        value_slack = pair_slack = None
        if policy is Policy.SELF_PLAY:
            current_left = instance.left_outside.copy()
            current_right = instance.right_outside.copy()
            slacks = []
            for i, j in matching.pairs:
                x, y = left_play[i][j], right_play[j][i]
                current_left[i] = float(x @ ucb_matrix(state, (i, j)) @ y)
                current_right[j] = float(y @ ucb_matrix(state, (i, j), Side.RIGHT) @ x)
                slacks += [left_value[i, j] - current_left[i], right_value[j, i] - current_right[j]]
            value_slack = max(slacks, default=None)
            pair_slack = max(
                min(left_value[i, j] - current_left[i], right_value[j, i] - current_right[j])
                for i in range(p)
                for j in range(a)
            )

        mi_report = matching_instability(
            instance, matching, strategies, game_values=true_values
        )

        actions: dict = {}
        rewards: dict = {}
        for i, j in matching.pairs:
            x, y = left_play[i][j], right_play[j][i]
            row_action = int(streams.get(_LEFT_ACTION, i, j).choice(m, p=x))
            col_action = int(streams.get(_RIGHT_ACTION, i, j).choice(k, p=y))
            noise = float(streams.get(_REWARD, i, j).standard_normal())
            reward = float(instance.games[i, j, row_action, col_action]) + noise_scale * noise
            actions[AgentId.left(i)] = row_action
            actions[AgentId.right(j)] = col_action
            rewards[AgentId.left(i)] = reward
            rewards[AgentId.right(j)] = -reward
            state.update(i, j, row_action, col_action, reward)
            dirty.add((i, j))

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
