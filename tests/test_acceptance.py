"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Run order matters only for readability; each criterion is independent except
for the shared session fixtures (one long self-play episode, one batch of
experiment traces per policy). Criterion lines are printed after the run by
the terminal-summary hook in conftest.py.
"""

import functools
import time

import numpy as np
import pytest
from conftest import ACCEPTANCE_RESULTS, realized_payoffs

from matchgames.experiments import (
    AGGREGATE_FILENAME,
    CONFIG_FILENAME,
    ExperimentConfig,
    run_experiment,
    run_trace_path,
    theoretical_bound,
)
from matchgames.games import maximin, oracle_solve_game, solve_game
from matchgames.instability import matching_instability, oracle_mi, subset_instability
from matchgames.learning import Policy, run_episode
from matchgames.market import (
    AgentId,
    Generator,
    MarketInstance,
    Matching,
    UtilityTable,
    deferred_acceptance,
    generate_instance,
    preferences_from_values,
)


def criterion(number: int, name: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                ACCEPTANCE_RESULTS.append((number, name, False))
                raise
            ACCEPTANCE_RESULTS.append((number, name, True))

        return wrapper

    return decorate


def single_proposer_market() -> MarketInstance:
    """One proposer, two receivers; pair values 0 and 1, all matches wanted."""
    games = np.array(
        [
            [
                [[1.0, -1.0], [-1.0, 1.0]],
                [[1.0, 1.0], [1.0, 0.0]],
            ]
        ]
    )
    return MarketInstance(
        p=1, a=2, m=2, k=2, games=games, left_outside=(-2.0,), right_outside=(-2.0, -2.0)
    )


def equilibrium_profile(instance, matching):
    profile = {}
    for i, j in matching.pairs:
        sol = solve_game(instance.games[i, j])
        profile[AgentId.left(i)] = sol.row_strategy
        profile[AgentId.right(j)] = sol.column_strategy
    return profile


def random_matching(instance, rng):
    size = int(rng.integers(0, min(instance.p, instance.a) + 1))
    lefts = sorted(rng.choice(instance.p, size=size, replace=False).tolist())
    rights = rng.choice(instance.a, size=size, replace=False).tolist()
    return Matching(tuple(zip(lefts, rights)))


def random_profile(instance, matching, rng):
    return {
        agent: rng.dirichlet(np.ones(n))
        for i, j in matching.pairs
        for agent, n in ((AgentId.left(i), instance.m), (AgentId.right(j), instance.k))
    }


BATCH = dict(
    p=2,
    a=2,
    m=2,
    k=2,
    T=5000,
    runs=20,
    seeds_base=0,
    generator=Generator.UNIFORM_SIGNED,
    outside_option=-1.0,
)


@pytest.fixture(scope="session")
def long_episode():
    instance = generate_instance(3, 3, 2, 2, seed=1)
    return run_episode(instance, Policy.SELF_PLAY, 2000, seed=1)


@pytest.fixture(scope="session")
def selfplay_batch(tmp_path_factory):
    config = ExperimentConfig(
        policy=Policy.SELF_PLAY,
        output_dir=str(tmp_path_factory.mktemp("selfplay")),
        **BATCH,
    )
    start = time.monotonic()
    trace = run_experiment(config)
    return trace, time.monotonic() - start


@pytest.fixture(scope="session")
def nash_batch(tmp_path_factory):
    config = ExperimentConfig(
        policy=Policy.NASH_RESPONSE,
        output_dir=str(tmp_path_factory.mktemp("nash")),
        **BATCH,
    )
    return run_experiment(config)


@pytest.fixture(scope="session")
def best_batch(tmp_path_factory):
    config = ExperimentConfig(
        policy=Policy.BEST_RESPONSE,
        output_dir=str(tmp_path_factory.mktemp("best")),
        **BATCH,
    )
    return run_experiment(config)


@criterion(1, "game solver matches enumeration oracle on 200 games")
def test_game_solver_oracle_equivalence():
    rng = np.random.default_rng(2026)
    start = time.monotonic()
    for _ in range(200):
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        game = rng.uniform(-1.0, 1.0, size=shape)
        lp = solve_game(game)
        oracle = oracle_solve_game(game)
        assert abs(lp.value - oracle.value) <= 1e-8
        for sol in (lp, oracle):
            assert (sol.row_strategy @ game >= sol.value - 1e-8).all()
            assert (game @ sol.column_strategy <= sol.value + 1e-8).all()
    assert time.monotonic() - start <= 10.0


@criterion(2, "worked one-proposer market reproduced to 1e-9")
def test_worked_market_reproduction():
    instance = single_proposer_market()
    first = solve_game(instance.games[0, 0])
    second = solve_game(instance.games[0, 1])
    assert abs(first.value - 0.0) <= 1e-9
    assert abs(second.value - 1.0) <= 1e-9
    assert first.row_strategy == pytest.approx([0.5, 0.5], abs=1e-9)
    assert first.column_strategy == pytest.approx([0.5, 0.5], abs=1e-9)
    values = np.array([[first.value, second.value]])
    prefs = preferences_from_values(
        values, -values.T, instance.left_outside, instance.right_outside
    )
    matching = deferred_acceptance(prefs)
    assert matching.pairs == ((0, 1),)
    report = matching_instability(instance, matching, equilibrium_profile(instance, matching))
    assert abs(report.value) <= 1e-9


@criterion(3, "instability matches exhaustive oracle on 200 markets")
def test_instability_oracle_equivalence():
    rng = np.random.default_rng(3026)
    start = time.monotonic()
    for _ in range(200):
        instance = generate_instance(
            int(rng.integers(1, 4)),
            int(rng.integers(1, 4)),
            int(rng.integers(1, 3)),
            int(rng.integers(1, 3)),
            generator=Generator.UNIFORM_SIGNED,
            outside_option=float(rng.uniform(-1.0, 0.0)),
            seed=int(rng.integers(1 << 30)),
        )
        matching = random_matching(instance, rng)
        profile = random_profile(instance, matching, rng)
        value = matching_instability(instance, matching, profile).value
        assert value >= 0.0
        assert abs(value - oracle_mi(instance, matching, profile)) <= 1e-8
    assert time.monotonic() - start <= 60.0


@criterion(4, "reductions: single-action, single-pair, zero on equilibria")
def test_reduction_cases():
    rng = np.random.default_rng(4026)
    one = np.array([1.0])
    # single-action markets collapse to the fixed-utility metric, bit for bit
    for _ in range(100):
        p, a = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        instance = generate_instance(
            p, a, 1, 1, outside_option=float(rng.uniform(-1.0, 0.0)), seed=int(rng.integers(1 << 30))
        )
        values = instance.games[:, :, 0, 0]
        matching = random_matching(instance, rng)
        profile = {
            agent: one
            for i, j in matching.pairs
            for agent in (AgentId.left(i), AgentId.right(j))
        }
        mi = matching_instability(instance, matching, profile).value
        si = subset_instability(
            UtilityTable(values, -values.T, instance.left_outside, instance.right_outside),
            matching,
        ).value
        assert mi >= 0.0
        assert mi == si
    # single-pair markets collapse to the value gap of the played profile
    for _ in range(100):
        instance = generate_instance(
            1, 1, int(rng.integers(2, 4)), int(rng.integers(2, 4)),
            outside_option=-5.0, seed=int(rng.integers(1 << 30)),
        )
        matching = Matching(((0, 0),))
        profile = random_profile(instance, matching, rng)
        realized = realized_payoffs(instance, matching, profile)
        expected = abs(maximin(instance.games[0, 0])[0] - realized[AgentId.left(0)])
        mi = matching_instability(instance, matching, profile).value
        assert mi >= 0.0
        assert abs(mi - expected) <= 1e-9
    # exact zero on constructed equilibria
    for _ in range(25):
        instance = generate_instance(
            int(rng.integers(1, 4)), int(rng.integers(1, 4)), 2, 2,
            generator=Generator.UNIFORM_SIGNED, outside_option=-1.0,
            seed=int(rng.integers(1 << 30)),
        )
        values = np.array(
            [
                [solve_game(instance.games[i, j]).value for j in range(instance.a)]
                for i in range(instance.p)
            ]
        )
        prefs = preferences_from_values(
            values, -values.T, instance.left_outside, instance.right_outside
        )
        matching = deferred_acceptance(prefs)
        profile = equilibrium_profile(instance, matching)
        assert matching_instability(instance, matching, profile).value == 0.0
    # clearly positive on constructed non-equilibria
    worked = single_proposer_market()
    blocking = matching_instability(
        worked, Matching(((0, 0),)), equilibrium_profile(worked, Matching(((0, 0),)))
    )
    assert blocking.value > 1e-6  # (L0, R1) blocks: both gain a full unit
    off_strategy = matching_instability(
        worked,
        Matching(((0, 1),)),
        {AgentId.left(0): np.array([0.0, 1.0]), AgentId.right(1): np.array([0.0, 1.0])},
    )
    assert off_strategy.value > 1e-6  # realized 0 against a game value of 1


@criterion(5, "equilibrium play pins realized utility to the game value")
def test_equilibrium_pins_utility():
    rng = np.random.default_rng(5026)
    for _ in range(100):
        instance = generate_instance(
            1, 1, int(rng.integers(2, 4)), int(rng.integers(2, 4)),
            outside_option=-5.0, seed=int(rng.integers(1 << 30)),
        )
        matching = Matching(((0, 0),))
        sol = solve_game(instance.games[0, 0])
        profile = {AgentId.left(0): sol.row_strategy, AgentId.right(0): sol.column_strategy}
        realized = realized_payoffs(instance, matching, profile)
        left_slack = sol.value - realized[AgentId.left(0)]
        right_slack = -sol.value - realized[AgentId.right(0)]
        assert left_slack <= 1e-9 and right_slack <= 1e-9
        assert abs(realized[AgentId.left(0)] - sol.value) <= 1e-9


@criterion(6, "optimistic no-blocking invariants hold all 2000 steps")
def test_optimism_invariants(long_episode):
    for record in long_episode:
        assert record.ucb_value_slack is not None
        assert record.ucb_value_slack <= 1e-9
        assert record.ucb_pair_slack is not None
        assert record.ucb_pair_slack <= 1e-9


@criterion(7, "instability below confidence-width bound on clean steps")
def test_width_bound_dominates_mi(long_episode):
    clean = 0
    for record in long_episode:
        assert record.mi >= 0.0
        if record.event_ok:
            clean += 1
            assert record.mi <= record.width_bound + 1e-9
    assert clean / len(long_episode) >= 0.95


@criterion(8, "mean cumulative instability stays under the bound, sublinearly")
def test_regret_bound_and_sublinearity(selfplay_batch):
    trace, elapsed = selfplay_batch
    assert elapsed <= 600.0
    T = trace.mean.shape[0]
    assert T == 5000
    for index in range(T):
        assert trace.bound[index] == theoretical_bound(index + 1, 2, 2, 2, 2)
    assert (trace.mean <= trace.bound + 1e-9).all()
    assert trace.mean[T - 1] / trace.mean[T // 2 - 1] <= 1.8
    assert (np.diff(trace.cumulative, axis=1) >= -1e-15).all()


@criterion(9, "exact right-side play achieves the lowest final regret")
def test_baseline_ordering(selfplay_batch, nash_batch, best_batch):
    selfplay, _ = selfplay_batch
    assert nash_batch.mean[-1] <= selfplay.mean[-1]
    assert best_batch.cumulative.shape == (20, 5000)
    assert (np.diff(best_batch.cumulative, axis=1) >= -1e-15).all()
    assert (np.diff(nash_batch.cumulative, axis=1) >= -1e-15).all()


@criterion(10, "repeated runs produce byte-identical trace files")
def test_byte_identical_replication(tmp_path):
    dirs = (tmp_path / "first", tmp_path / "second")
    for directory in dirs:
        run_experiment(
            ExperimentConfig(
                p=2, a=2, m=2, k=2, T=60, runs=2, seeds_base=7,
                generator=Generator.UNIFORM_SIGNED, outside_option=-1.0,
                output_dir=str(directory), workers=1,
            )
        )
    for name in ("run_000.csv", "run_001.csv", AGGREGATE_FILENAME, CONFIG_FILENAME):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    assert run_trace_path(dirs[0], 0).name == "run_000.csv"
