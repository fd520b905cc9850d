"""Bandit learning loop: confidence bounds, policies, convergence, invariants."""

import math

import numpy as np
import pytest
from conftest import build_example_market, record_solve_lp_ranks

from matchgames import games, learning, market
from matchgames.errors import DimensionError, InputError
from matchgames.games import check_strategy, maximin, solve_game
from matchgames.learning import (
    ConfidenceState,
    Policy,
    auto_delta,
    run_episode,
    ucb_matrix,
)
from matchgames.market import AgentId, Generator, MarketInstance, Matching, Side, generate_instance

WIDTH_ONE_VISIT = 1.6651092223153954  # sqrt(2 ln 4), delta = 0.25, one sample


def test_auto_delta_frozen_values():
    assert auto_delta(100, 2, 2, 1, 1) == 1.5625e-06
    assert auto_delta(2000, 3, 3, 2, 2) == 1.9290123456790124e-10


@pytest.mark.parametrize(
    ("sizes", "message"),
    [
        ((2.5, 1, 1, 1, 1), "^T must be an integer"),
        ((2.0, 1, 1, 1, 1), "^T must be an integer"),
        ((1, True, 1, 1, 1), "^p must be an integer"),
        ((1, 1, 0, 1, 1), "^a must be at least 1"),
        ((1, 1, 1, 10**400, 1), "^m is too large for a float"),
        ((10**100, 10**60, 1, 1, 1), "auto_delta underflows"),
    ],
)
def test_auto_delta_sizes_follow_the_integer_rule(sizes, message):
    with pytest.raises(InputError, match=message):
        auto_delta(*sizes)


@pytest.mark.parametrize(
    ("sizes", "message"),
    [
        ((2.5, 1, 1, 1), "^p must be an integer"),
        ((-1, 1, 1, 1), "^p must be at least 1"),
        ((1, 0, 1, 1), "^a must be at least 1"),
        ((1, 1, 1, True), "^k must be an integer"),
        # numpy refuses these before it allocates anything
        ((10**30, 1, 1, 1), "^p, a, m and k are too large"),
        ((2**16,) * 4, "^p, a, m and k are too large"),
    ],
)
def test_fresh_state_sizes_follow_the_integer_rule(sizes, message):
    with pytest.raises(InputError, match=message):
        ConfidenceState.fresh(*sizes, delta=0.25)


@pytest.mark.parametrize(
    ("pair", "error", "message"),
    [
        ((-1, 0), InputError, "^pair index must be at least 0, got -1$"),
        ((0, -1), InputError, "^pair index must be at least 0, got -1$"),
        ((1.0, 0), InputError, "^pair index must be an integer, got 1.0$"),
        ((1, 0), DimensionError, r"^pair \(1, 0\) out of range for a state of shape \(1, 2, 2, 3\)$"),
        ((0, 2), DimensionError, r"^pair \(0, 2\) out of range"),
        ((0, 0, 0), DimensionError, r"^pair must hold two indices, got \(0, 0, 0\)$"),
        ((0,), DimensionError, r"^pair must hold two indices, got \(0,\)$"),
        ((), DimensionError, r"^pair must hold two indices, got \(\)$"),
        (5, DimensionError, r"^pair must hold two indices, got 5$"),
    ],
)
def test_ucb_matrix_refuses_a_pair_outside_the_state(pair, error, message):
    state = ConfidenceState.fresh(1, 2, 2, 3, delta=0.25)
    with pytest.raises(InputError, match=message) as info:
        ucb_matrix(state, pair)
    assert type(info.value) is error


def test_confidence_state_update_and_width():
    state = ConfidenceState.fresh(1, 1, 2, 2, delta=0.25)
    assert state.counts.sum() == 0
    # unvisited cells get the one-sample width rather than infinity
    assert state.width(0, 0)[0, 0] == pytest.approx(WIDTH_ONE_VISIT, abs=1e-12)
    state.update(0, 0, 0, 1, 1.0)
    state.update(0, 0, 0, 1, 0.0)
    assert state.counts[0, 0, 0, 1] == 2
    assert state.means[0, 0, 0, 1] == pytest.approx(0.5, abs=1e-15)
    assert state.width(0, 0)[0, 1] == pytest.approx(WIDTH_ONE_VISIT / math.sqrt(2), abs=1e-12)
    assert state.width(0, 0)[0, 0] == pytest.approx(WIDTH_ONE_VISIT, abs=1e-12)
    # with no pair given, the same radii for every pair at once
    assert (state.width()[0, 0] == state.width(0, 0)).all()


def test_right_view_is_negated_transpose():
    state = ConfidenceState.fresh(1, 1, 2, 3, delta=0.25)
    state.update(0, 0, 0, 0, 0.75)
    state.update(0, 0, 1, 2, -0.25)
    width = state.width(0, 0)
    left_up = ucb_matrix(state, (0, 0))
    right_up = ucb_matrix(state, (0, 0), Side.RIGHT)
    assert left_up.shape == (2, 3)
    assert right_up.shape == (3, 2)
    assert (left_up == state.means[0, 0] + width).all()
    assert (right_up == (-state.means[0, 0] + width).T).all()


@pytest.mark.parametrize("shape", [(2, 3, 2, 2), (2, 3, 2, 3)], ids=["2x2-games", "2x3-games"])
def test_solved_optimistic_games_are_ucb_matrix(monkeypatch, shape):
    # run_episode forms a round's optimistic games once, as a stack a side,
    # and hands maximin the stacks; on both sides of maximin's crossover,
    # every game it hands over must be ucb_matrix's to the byte
    p, a, m, k = shape
    rng = np.random.default_rng(17)
    state = ConfidenceState.fresh(p, a, m, k, delta=auto_delta(1000, p, a, m, k))
    calls, ranks = [], record_solve_lp_ranks(monkeypatch)
    monkeypatch.setattr(learning, "maximin", lambda game: calls.append(game) or maximin(game))
    every_pair = list(np.ndindex(p, a))
    cases = [(every_pair[:5], tuple(Side)), (every_pair, tuple(Side)), (every_pair, (Side.LEFT,))]
    for crossover, rank in ((0, 3), (10**9, 2)):
        monkeypatch.setattr(games, "_STACK_MIN_GAMES", crossover)
        for _ in range(100):
            state.counts[...] = rng.integers(0, 50, size=state.counts.shape) * rng.integers(0, 2, size=state.counts.shape)
            state.means[...] = rng.normal(scale=rng.choice([1e-3, 1.0, 1e3]), size=state.means.shape)
            for pairs, sides in cases:
                calls.clear()
                ranks.clear()
                solved = learning._solve_optimistic(state, state.width(), pairs, sides)
                assert [len(list(answers)) for answers in solved] == [len(pairs)] * len(sides)
                assert all(type(call) is np.ndarray and call.ndim == 3 for call in calls)
                assert set(ranks) == {rank}
                handed = [game for call in calls for game in call]
                expected = [ucb_matrix(state, pair, side) for side in sides for pair in pairs]
                assert [game.shape for game in handed] == [game.shape for game in expected]
                assert [game.tobytes() for game in handed] == [game.tobytes() for game in expected]


def test_non_square_round_of_six_pairs_solves_game_by_game(monkeypatch):
    # 6 matched pairs refresh 12 self-play games, but the two sides' games
    # differ in shape (2x3 and 3x2), so each side's stack holds 6 games:
    # below the crossover, so no side pays the stacked tableau's fixed cost
    state = ConfidenceState.fresh(6, 6, 2, 3, delta=auto_delta(1000, 6, 6, 2, 3))
    ranks = record_solve_lp_ranks(monkeypatch)
    pairs = [(i, (5 * i + 1) % 6) for i in range(6)]
    solved = learning._solve_optimistic(state, state.width(), pairs, tuple(Side))
    assert [len(list(answers)) for answers in solved] == [6, 6]
    assert ranks == [2] * 12


def test_a_side_that_is_not_a_side_member_is_refused():
    state = ConfidenceState.fresh(1, 1, 2, 3, delta=0.25)
    for side in (0, 1, "left", None):
        with pytest.raises(InputError, match=f"^unknown side {side!r}$"):
            ucb_matrix(state, (0, 0), side)
    instance = generate_instance(2, 2, 2, 2, seed=3)
    for side in (0, "left"):
        with pytest.raises(InputError, match=f"^unknown proposing side {side!r}$"):
            run_episode(instance, Policy.SELF_PLAY, 30, seed=1, proposing_side=side)


def test_first_round_matches_assortatively():
    instance = generate_instance(2, 2, 2, 2, seed=5)
    records = run_episode(instance, Policy.SELF_PLAY, 1, seed=5)
    # no data yet: every pair looks identical, ties break toward low indices
    assert records[0].matching.pairs == ((0, 0), (1, 1))


def test_episode_is_deterministic():
    instance = generate_instance(2, 2, 2, 2, seed=6)
    first = run_episode(instance, Policy.SELF_PLAY, 40, seed=3)
    second = run_episode(instance, Policy.SELF_PLAY, 40, seed=3)
    for one, two in zip(first, second):
        assert one.matching == two.matching
        assert one.mi == two.mi
        assert one.actions == two.actions
        assert one.rewards == two.rewards
        for agent in one.strategies:
            assert (one.strategies[agent] == two.strategies[agent]).all()


def test_different_seeds_differ():
    instance = generate_instance(2, 2, 2, 2, seed=6)
    first = run_episode(instance, Policy.SELF_PLAY, 40, seed=3)
    second = run_episode(instance, Policy.SELF_PLAY, 40, seed=4)
    assert any(one.rewards != two.rewards for one, two in zip(first, second))


def test_rewards_are_zero_sum_and_match_actions():
    instance = generate_instance(2, 2, 2, 2, seed=7)
    records = run_episode(instance, Policy.SELF_PLAY, 30, seed=7, noise_scale=0.0)
    for record in records:
        assert set(record.rewards) == {
            agent
            for i, j in record.matching.pairs
            for agent in (AgentId.left(i), AgentId.right(j))
        }
        for i, j in record.matching.pairs:
            left, right = AgentId.left(i), AgentId.right(j)
            assert record.rewards[left] == -record.rewards[right]
            # zero noise: the reward is exactly the payoff cell played
            ai, aj = record.actions[left], record.actions[right]
            assert record.rewards[left] == instance.games[i, j, ai, aj]


def test_event_holds_without_noise():
    instance = build_example_market()
    records = run_episode(instance, Policy.SELF_PLAY, 50, delta=0.25, seed=2, noise_scale=0.0)
    assert all(record.event_ok for record in records)


def test_optimism_slacks_stay_nonpositive_in_self_play():
    instance = generate_instance(2, 2, 2, 2, generator=Generator.UNIFORM_SIGNED, seed=8)
    records = run_episode(instance, Policy.SELF_PLAY, 120, seed=8)
    for record in records:
        assert record.ucb_value_slack is not None and record.ucb_value_slack <= 1e-9
        assert record.ucb_pair_slack is not None and record.ucb_pair_slack <= 1e-9


def test_instability_below_width_bound_on_clean_steps():
    instance = generate_instance(2, 2, 2, 2, generator=Generator.UNIFORM_SIGNED, seed=9)
    records = run_episode(instance, Policy.SELF_PLAY, 150, seed=9)
    assert all(record.width_bound >= 0.0 for record in records)
    clean = [record for record in records if record.event_ok]
    assert clean, "confidence event never held"
    for record in clean:
        assert record.mi <= record.width_bound + 1e-9


def test_zero_noise_learning_settles_on_stable_matching():
    instance = build_example_market()
    records = run_episode(instance, Policy.SELF_PLAY, 200, delta=0.25, seed=2, noise_scale=0.0)
    tail = records[-50:]
    assert all(record.matching == Matching(((0, 1),)) for record in tail)
    assert max(record.mi for record in tail) < 0.2


def test_nash_response_plays_exact_column_strategies():
    instance = generate_instance(2, 3, 2, 2, seed=10)
    records = run_episode(instance, Policy.NASH_RESPONSE, 30, seed=10)
    assert any(len(record.matching) for record in records)
    for record in records:
        for i, j in record.matching.pairs:
            expected = solve_game(instance.games[i, j]).column_strategy
            assert (record.strategies[AgentId.right(j)] == expected).all()


def test_best_response_exploits_recorded_left_strategies():
    instance = generate_instance(2, 2, 3, 3, generator=Generator.UNIFORM_SIGNED, seed=11)
    records = run_episode(instance, Policy.BEST_RESPONSE, 30, seed=11)
    assert any(len(record.matching) for record in records)
    for record in records:
        for i, j in record.matching.pairs:
            x = record.strategies[AgentId.left(i)]
            response = record.strategies[AgentId.right(j)]
            # one-hot, and attains the best payoff against x in the right's view
            assert sorted(response) == [0.0, 0.0, 1.0]
            game = instance.games[i, j]
            assert -(x @ game @ response) == pytest.approx(max(-(x @ game)), abs=1e-12)


def test_baseline_records_omit_self_play_diagnostics():
    instance = generate_instance(2, 2, 2, 2, seed=12)
    for policy in (Policy.NASH_RESPONSE, Policy.BEST_RESPONSE):
        records = run_episode(instance, policy, 10, seed=12)
        assert len(records) == 10
        assert all(record.ucb_value_slack is None for record in records)
        assert all(record.ucb_pair_slack is None for record in records)


@pytest.mark.parametrize("policy", list(Policy))
def test_game_solves_per_episode(monkeypatch, policy):
    instance = generate_instance(2, 3, 2, 2, generator=Generator.UNIFORM_SIGNED, seed=14)
    solved = []  # games per maximin call: a stack of G games counts as G
    for module in (learning, market):
        monkeypatch.setattr(
            module, "maximin", lambda game: solved.append(math.prod(np.shape(game)[:-2])) or maximin(game)
        )
    records = run_episode(instance, policy, 30, seed=14)
    # round 1 refreshes every pair, each later round the pairs matched before it
    refreshed = 2 * 3 + sum(len(record.matching) for record in records[:-1])
    # only self-play solves the right side's optimistic games; the baselines read
    # the right side's table from exact solutions or from best responses
    expected = refreshed * (2 if policy is Policy.SELF_PLAY else 1)
    # once, in the instance, every pair's true game for the audit; nash-response
    # also solves each mirrored game -A^T for the right side's exact strategy
    expected += 2 * 3 * (2 if policy is Policy.NASH_RESPONSE else 1)
    assert sum(solved) == expected


def _fields(record) -> tuple:
    """Every StepRecord field, strategies by their bytes and scalars by repr."""
    return (
        record.t, record.matching.pairs,
        tuple((agent, x.dtype.str, x.tobytes()) for agent, x in record.strategies.items()),
        *(tuple((agent, repr(v)) for agent, v in table.items()) for table in (record.actions, record.rewards)),
        *(repr(getattr(record, name)) for name in
          ("mi", "event_ok", "width_bound", "ucb_value_slack", "ucb_pair_slack")),
    )


@pytest.mark.parametrize("policy", list(Policy))
@pytest.mark.parametrize("shape", [(6, 6, 2, 2), (5, 4, 2, 3)], ids=["square", "non-square"])
def test_pairwise_and_stacked_refreshes_agree(monkeypatch, policy, shape):
    runs = {}
    for crossover, rank in ((0, 3), (10**9, 2)):
        # every game of the episode is solved in a stacked tableau, or none is;
        # a fresh instance a route, so its game values are solved on that route
        instance = generate_instance(*shape, generator=Generator.UNIFORM_SIGNED, seed=22)
        ranks = record_solve_lp_ranks(monkeypatch)
        monkeypatch.setattr(games, "_STACK_MIN_GAMES", crossover)
        runs[rank] = [_fields(record) for record in run_episode(instance, policy, 40, seed=22)]
        monkeypatch.undo()
        assert set(ranks) == {rank}
    assert runs[3] == runs[2]


def _strategy_cases(rng, count: int):
    """Dirichlet, one-hot and rounded (tenths) strategies of length 1 to 5."""
    for case in range(count):
        n = int(rng.integers(1, 6))
        kind = case % 3
        if kind == 0:
            yield rng.dirichlet(np.full(n, rng.choice([0.2, 1.0, 5.0])))
        elif kind == 1:
            yield np.eye(n)[int(rng.integers(n))]
        else:
            yield rng.multinomial(10, np.full(n, 1.0 / n)) / 10.0


def test_draw_matches_generator_choice():
    rng = np.random.default_rng(2024)
    for x in _strategy_cases(rng, 10_000):
        seed = int(rng.integers(2**63))
        reference, ours = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            expected = int(reference.choice(len(x), p=x))
            assert learning._draw(ours, check_strategy(x, len(x))) == expected
        # both streams stand at the same place afterwards
        assert ours.random() == reference.random()


# one-word seeds at the word edges, seeds of two to seven 32-bit words, and
# seeds of exactly the pool's four words and of eight
EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**96 + 7, 2**128 + 11, 2**200 + 1, 2**128 - 1, 2**256 - 1)


def test_seed_table_matches_seed_sequence():
    rng = np.random.default_rng(2025)
    random_seeds = [int.from_bytes(rng.bytes(int(n)), "little") for n in rng.integers(1, 33, size=12)]
    for seed in (*EDGE_SEEDS, *random_seeds):
        table = learning._seed_table(seed, 3, 4)
        assert table.shape == (3, 3, 4, 4) and table.dtype == np.uint64
        for purpose, i, j in np.ndindex(3, 3, 4):
            expected = np.random.SeedSequence(entropy=seed, spawn_key=(purpose, i, j)).generate_state(4, np.uint64)
            assert table[purpose, i, j].tobytes() == expected.tobytes(), (seed, purpose, i, j)


@pytest.mark.parametrize("seed", [2**64 + 1, 2**130, 2**128 - 1])
@pytest.mark.parametrize("policy", list(Policy))
def test_episode_streams_are_seed_sequence_streams(monkeypatch, policy, seed):
    instance = generate_instance(3, 4, 2, 3, generator=Generator.UNIFORM_SIGNED, seed=5)
    ours = [_fields(record) for record in run_episode(instance, policy, 30, seed=seed)]

    def seed_sequences(seed, p, a):
        table = np.empty((3, p, a), dtype=object)
        for key in np.ndindex(3, p, a):
            table[key] = np.random.SeedSequence(entropy=seed, spawn_key=key)
        return table

    # the reference builds every stream as default_rng(SeedSequence(...)) did
    monkeypatch.setattr(learning, "_seed_table", seed_sequences)
    monkeypatch.setattr(learning, "_TableSeed", lambda sequence: sequence)
    assert [_fields(record) for record in run_episode(instance, policy, 30, seed=seed)] == ours


@pytest.mark.parametrize(
    "bad", [[np.nan, 1.0], [-0.25, 1.25], [0.5, 0.51]], ids=["nan", "negative", "sum-1.01"]
)
def test_kernel_strategy_that_is_not_a_distribution_fails_the_round(monkeypatch, bad):
    """The round draws from its kernel's strategies unchecked; its audit refuses them."""
    # value 0 and strategy `bad` for every game, a stack's game by game
    monkeypatch.setattr(learning, "maximin", lambda game: (
        np.zeros(np.shape(game)[:-2]), np.broadcast_to(bad, (*np.shape(game)[:-2], len(bad)))
    ))
    monkeypatch.setattr(learning, "_draw", lambda rng, x: 0)
    with pytest.raises(InputError, match="strategy entries"):
        run_episode(generate_instance(2, 2, 2, 2, seed=15), Policy.SELF_PLAY, 1, seed=15)


@pytest.mark.parametrize("policy", list(Policy))
def test_round_layers_are_called_once_per_round(monkeypatch, policy):
    """The names a per-layer tracer wraps in learning each see one call a round."""
    calls = {}
    for name in ("preferences_from_values", "deferred_acceptance", "matching_instability"):
        original = getattr(learning, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(learning, name, counting)
    T = 25
    run_episode(generate_instance(3, 2, 2, 2, seed=16), policy, T, seed=16)
    assert calls == {
        "preferences_from_values": T,
        "deferred_acceptance": T,
        "matching_instability": T,
    }


@pytest.mark.parametrize("policy", [Policy.NASH_RESPONSE, Policy.BEST_RESPONSE])
@pytest.mark.parametrize("shape", [(3, 3, 2, 2), (4, 3, 2, 3), (3, 4, 3, 2)])
def test_first_round_permutes_under_relabelling_the_left_agents(policy, shape):
    """Round 1 on a market with its left agents relabelled is round 1 of the
    original, relabelled: the same matching once mapped back, every matched
    agent's strategy byte for byte, and the same instability up to the order
    in which its total adds the subsidies (left to right, by label).

    Only round 1 is compared: the random streams are keyed by pair index, so
    relabelled agents draw other actions, and later rounds learn from them.
    Self-play is left out: its round-1 optimistic games all tie (every mean
    is 0 and every width equal), and deferred acceptance breaks ties by
    index. On generate_instance(3, 3, 2, 2, seed=4) with the left agents
    relabelled (2, 0, 1), self-play's round 1 matched (0,0),(1,1),(2,2) and
    the relabelled run, mapped back, (0,1),(1,2),(2,0). Under these two
    policies the left side's round-1 lists tie the same way in both runs,
    and the right side ranks by exact game values or best responses.
    """
    p = shape[0]
    matched = 0
    for seed in range(12):
        instance = generate_instance(*shape, seed=seed)
        [record] = run_episode(instance, policy, 1, seed=seed)
        rng = np.random.default_rng(seed)
        for sigma in (np.roll(np.arange(p), 1), np.arange(p)[::-1], rng.permutation(p)):
            # relabelled left agent k is the original left agent sigma[k]
            relabelled = MarketInstance(
                *shape, games=instance.games[sigma], left_outside=instance.left_outside[sigma],
                right_outside=instance.right_outside,
            )
            [other] = run_episode(relabelled, policy, 1, seed=seed)
            mapped = sorted((int(sigma[k]), j) for k, j in other.matching.pairs)
            assert mapped == list(record.matching.pairs)
            assert len(other.strategies) == len(record.strategies)
            for k, j in other.matching.pairs:
                original = record.strategies[AgentId.left(int(sigma[k]))]
                assert other.strategies[AgentId.left(k)].tobytes() == original.tobytes()
                assert other.strategies[AgentId.right(j)].tobytes() == record.strategies[AgentId.right(j)].tobytes()
            assert other.mi == pytest.approx(record.mi, rel=0.0, abs=1e-12)
            matched += len(mapped)
    assert matched > 0


def test_run_episode_validation():
    instance = generate_instance(1, 1, 2, 2, seed=13)
    with pytest.raises(InputError):
        run_episode(instance, Policy.SELF_PLAY, 0)
    with pytest.raises(InputError):
        run_episode(instance, Policy.SELF_PLAY, 5, delta=1.5)
    with pytest.raises(InputError):
        run_episode(instance, Policy.SELF_PLAY, 5, delta=0.0)
    with pytest.raises(InputError):
        run_episode(instance, "self-play", 5)
    with pytest.raises(InputError):
        run_episode(instance, Policy.SELF_PLAY, 5, noise_scale=float("inf"))
    with pytest.raises(InputError, match="^noise_scale must be a real number"):
        run_episode(instance, Policy.SELF_PLAY, 5, noise_scale="1")
    with pytest.raises(InputError, match="^delta must be a real number"):
        run_episode(instance, Policy.SELF_PLAY, 5, delta=True)
    with pytest.raises(InputError, match=r"^noise_scale must be nonnegative, got -1\.0$"):
        run_episode(instance, Policy.SELF_PLAY, 5, noise_scale=-1.0)


@pytest.mark.parametrize(
    ("T", "seed", "field"),
    [(2.5, 0, "T"), (True, 0, "T"), (2.0, 0, "T"), (3, -1, "seed"), (3, 0.5, "seed"), (3, False, "seed")],
)
def test_run_episode_refuses_non_integral_horizons_and_seeds(T, seed, field):
    instance = generate_instance(1, 1, 2, 2, seed=13)
    with pytest.raises(InputError, match=f"^{field} must be "):
        run_episode(instance, Policy.SELF_PLAY, T, seed=seed)


def test_run_episode_takes_numpy_integers():
    instance = generate_instance(2, 2, 2, 2, seed=13)
    records = run_episode(instance, Policy.SELF_PLAY, np.int64(4), seed=np.int64(13))
    expected = run_episode(instance, Policy.SELF_PLAY, 4, seed=13)
    assert [record.mi for record in records] == [record.mi for record in expected]


def test_policy_values_round_trip():
    assert Policy("self-play") is Policy.SELF_PLAY
    assert Policy("nash-response") is Policy.NASH_RESPONSE
    assert Policy("best-response") is Policy.BEST_RESPONSE
