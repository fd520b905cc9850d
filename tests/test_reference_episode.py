"""run_episode against a plain reference round, written as the paper states it.

reference_episode re-solves every pair's optimistic game in every round, one
public maximin(ucb_matrix(...)) call a game and side, and builds every
random stream directly as default_rng(SeedSequence(seed, spawn_key=(purpose,
i, j))), drawing each action with Generator.choice. It has no seed table, no
stacks, no refresh set, no [side, i, j] table and no hand-written draw.
Equal records, bit for bit on every StepRecord field, show that run_episode's
bookkeeping (refreshing only the pairs that played, stacking the round's
games, the seed table and its draws) is the paper's per-pair procedure. The
reference shares the game kernel, deferred acceptance and the audit with
run_episode; those have oracles of their own (oracle_solve_game, the exact
simplex, oracle_mi). On a 4x4 market the first round's 16 or 32 games take
the stacked 2x2 kernel in run_episode and the single-game 2x2 kernel here,
so the two kernels are also checked against each other inside an episode.
"""

import itertools

import numpy as np
import pytest
from conftest import record_fields

from matchgames.games import best_response, maximin
from matchgames.instability import matching_instability
from matchgames.learning import ConfidenceState, Policy, StepRecord, auto_delta, run_episode, ucb_matrix
from matchgames.market import AgentId, Generator, Side, deferred_acceptance, generate_instance, preferences_from_values


def reference_episode(instance, policy: Policy, T: int, seed: int) -> list[StepRecord]:
    p, a, m, k = instance.p, instance.a, instance.m, instance.k
    state = ConfidenceState.fresh(p, a, m, k, auto_delta(T, p, a, m, k))
    # purpose 0 draws the left action, 1 the right action and 2 the reward noise
    streams = {key: np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key)) for key in np.ndindex(3, p, a)}
    pairs = list(itertools.product(range(p), range(a)))
    records = []
    for t in range(1, T + 1):
        widths = state.width()
        values, plays = np.zeros((2, p, a)), {}
        for i, j in pairs:
            values[0, i, j], plays[0, i, j] = maximin(ucb_matrix(state, (i, j), Side.LEFT))
            game = instance.games[i, j]
            if policy is Policy.SELF_PLAY:
                values[1, i, j], plays[1, i, j] = maximin(ucb_matrix(state, (i, j), Side.RIGHT))
            elif policy is Policy.NASH_RESPONSE:
                values[1, i, j], plays[1, i, j] = -maximin(game)[0], maximin(-game.T)[1]
            else:
                plays[1, i, j] = best_response(-game.T, plays[0, i, j])
                values[1, i, j] = plays[1, i, j] @ -game.T @ plays[0, i, j]
        prefs = preferences_from_values(values[0], values[1].T, instance.left_outside, instance.right_outside)
        matching = deferred_acceptance(prefs)
        event_ok = bool((np.abs(state.means - instance.games) <= widths).all())
        # each agent's optimistic payoff: its match's mean plus the profile's width mass, else its outside option
        optimistic = [instance.left_outside.copy(), instance.right_outside.copy()]
        strategies, actions, rewards, width_bound = {}, {}, {}, 0.0
        for i, j in matching.pairs:
            x, y = plays[0, i, j], plays[1, i, j]
            mass, mean = float(x @ widths[i, j] @ y), float(x @ state.means[i, j] @ y)
            width_bound += 4.0 * mass
            optimistic[0][i], optimistic[1][j] = mean + mass, mass - mean
            row, col = (int(streams[side, i, j].choice(len(v), p=v)) for side, v in ((0, x), (1, y)))
            reward = float(instance.games[i, j, row, col]) + float(streams[2, i, j].standard_normal())
            state.update(i, j, row, col, reward)
            left, right = AgentId.left(i), AgentId.right(j)
            strategies[left], strategies[right] = x, y
            actions[left], actions[right] = row, col
            rewards[left], rewards[right] = reward, -reward
        value_slack = pair_slack = None
        if policy is Policy.SELF_PLAY:
            slacks = {pair: (values[0][pair] - optimistic[0][pair[0]], values[1][pair] - optimistic[1][pair[1]])
                      for pair in pairs}
            value_slack = max((max(slacks[pair]) for pair in matching.pairs), default=None)
            pair_slack = max(min(slack) for slack in slacks.values())
        mi = matching_instability(instance, matching, strategies).value
        records.append(StepRecord(t, matching, strategies, actions, rewards, mi, event_ok, width_bound,
                                  value_slack, pair_slack))
    return records


# (p, a, m, k, T): 2x2 games solved alone; non-square games, one stack a side;
# a 4x4 market whose first round solves 16 or 32 2x2 games in one stack
SHAPES = [(2, 2, 2, 2, 60), (3, 4, 2, 3, 30), (4, 4, 2, 2, 25)]


@pytest.mark.parametrize("generator", list(Generator))
@pytest.mark.parametrize("policy", list(Policy))
@pytest.mark.parametrize("shape", SHAPES, ids=["2x2x2x2", "3x4x2x3", "4x4x2x2"])
def test_run_episode_is_the_reference_round(shape, policy, generator):
    *sizes, T = shape
    instance = generate_instance(*sizes, generator=generator, seed=11)
    expected = [record_fields(record) for record in reference_episode(instance, policy, T, seed=7)]
    assert [record_fields(record) for record in run_episode(instance, policy, T, seed=7)] == expected
