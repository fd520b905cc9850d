"""Instability metric: hand cases, reductions, oracle agreement, invariants."""

import bisect
import collections
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import build_example_market, build_example_profile, realized_payoffs

from matchgames import instability, market
from matchgames.errors import DimensionError, InputError
from matchgames.games import maximin, oracle_solve_game, solve_game
from matchgames.instability import (
    TAG_COVER,
    TAG_NONE,
    TAG_PARTICIPATION,
    TAG_VALUE_GAP,
    InstabilityReport,
    SubsidyVector,
    _audit,
    _solve_cover,
    matching_instability,
    oracle_mi,
    subset_instability,
)
from matchgames.learning import Policy, run_episode
from matchgames.market import (
    AgentId,
    Generator,
    MarketInstance,
    Matching,
    Side,
    UtilityTable,
    deferred_acceptance,
    generate_instance,
    preferences_from_values,
)


def pennies_market(right_outside: float = -2.0) -> MarketInstance:
    return MarketInstance(
        p=1,
        a=1,
        m=2,
        k=2,
        games=np.array([[1.0, -1.0], [-1.0, 1.0]]).reshape(1, 1, 2, 2),
        left_outside=(-2.0,),
        right_outside=(right_outside,),
    )

TAGS = {TAG_NONE, TAG_PARTICIPATION, TAG_VALUE_GAP, TAG_COVER}


def equilibrium_profile(instance, matching):
    profile = {}
    for i, j in matching.pairs:
        sol = solve_game(instance.games[i, j])
        profile[AgentId.left(i)] = sol.row_strategy
        profile[AgentId.right(j)] = sol.column_strategy
    return profile


def random_profile(instance, matching, rng):
    profile = {}
    for i, j in matching.pairs:
        profile[AgentId.left(i)] = rng.dirichlet(np.ones(instance.m))
        profile[AgentId.right(j)] = rng.dirichlet(np.ones(instance.k))
    return profile


def random_matching(instance, rng):
    size = int(rng.integers(0, min(instance.p, instance.a) + 1))
    lefts = sorted(rng.choice(instance.p, size=size, replace=False).tolist())
    rights = rng.choice(instance.a, size=size, replace=False).tolist()
    return Matching(tuple(zip(lefts, rights)))


def assert_subsidies_stabilize(instance, matching, strategies, report, tol=1e-8):
    """The reported subsidies must actually remove every instability.

    Checked directly from the constraint definitions with game values from
    the enumeration oracle, independent of the production code path.
    """
    values = np.array(
        [
            [oracle_solve_game(instance.games[i, j]).value for j in range(instance.a)]
            for i in range(instance.p)
        ]
    )
    realized = realized_payoffs(instance, matching, strategies)
    s = report.subsidies.amounts
    assert all(amount >= 0.0 for amount in s.values())
    assert report.value == pytest.approx(sum(s.values()), abs=1e-12)
    lefts = [AgentId.left(i) for i in range(instance.p)]
    rights = [AgentId.right(j) for j in range(instance.a)]
    boosted_left = np.array([realized[agent] + s[agent] for agent in lefts])
    boosted_right = np.array([realized[agent] + s[agent] for agent in rights])
    assert (boosted_left >= instance.left_outside - tol).all()
    assert (boosted_right >= instance.right_outside - tol).all()
    for i, j in matching.pairs:
        assert boosted_left[i] >= values[i, j] - tol
        assert boosted_right[j] >= -values[i, j] - tol
    gain_left = values - boosted_left[:, None]
    gain_right = -values - boosted_right[None, :]
    assert (np.minimum(gain_left, gain_right) <= tol).all()


def test_example_equilibrium_scores_zero():
    instance = build_example_market()
    report = matching_instability(instance, Matching(((0, 1),)), {
        AgentId.left(0): np.array([1.0]),
        AgentId.right(1): np.array([1.0]),
    })
    assert report.value == 0.0
    assert all(tag == TAG_NONE for tag in report.binding.values())
    assert report.active_pairs == ()


def test_example_deviation_scores_one():
    instance = build_example_market()
    report = matching_instability(
        instance, Matching(((0, 0), (1, 1))), build_example_profile()
    )
    # both rights sit at -1.0, half a unit below their outside option
    assert report.value == 1.0
    assert report.subsidies.amounts[AgentId.right(0)] == 0.5
    assert report.subsidies.amounts[AgentId.right(1)] == 0.5
    assert report.binding[AgentId.right(0)] == TAG_PARTICIPATION


def test_oracle_agrees_on_example():
    instance = build_example_market()
    stable = Matching(((0, 1),))
    profile = {AgentId.left(0): np.array([1.0]), AgentId.right(1): np.array([1.0])}
    assert oracle_mi(instance, stable, profile) == pytest.approx(0.0, abs=1e-12)
    deviated = Matching(((0, 0), (1, 1)))
    assert oracle_mi(instance, deviated, build_example_profile()) == pytest.approx(
        1.0, abs=1e-12
    )


def test_value_rationality_floor_and_tag():
    # matching pennies played at the pure (0, 0) cell: the right agent
    # realizes -1 against a game value of 0 and needs a unit subsidy
    instance = pennies_market()
    profile = {AgentId.left(0): np.array([1.0, 0.0]), AgentId.right(0): np.array([1.0, 0.0])}
    report = matching_instability(instance, Matching(((0, 0),)), profile)
    assert report.value == pytest.approx(1.0, abs=1e-12)
    assert report.binding[AgentId.right(0)] == TAG_VALUE_GAP
    assert report.binding[AgentId.left(0)] == TAG_NONE
    realized = realized_payoffs(instance, Matching(((0, 0),)), profile)
    assert abs(maximin(instance.games[0, 0])[0] - realized[AgentId.left(0)]) == pytest.approx(
        1.0, abs=1e-12
    )


def test_binding_tag_is_the_larger_floor_term_with_ties_to_participation():
    # matching pennies at the pure (0, 0) cell, whose game value is exactly
    # 0: the right agent realizes -1, a value gap of 1, and its outside
    # option sets the participation term beside it
    profile = {AgentId.left(0): np.array([1.0, 0.0]), AgentId.right(0): np.array([1.0, 0.0])}
    for right_outside, amount, tag in (
        (0.0, 1.0, TAG_PARTICIPATION),  # both terms are 1
        (-0.5, 1.0, TAG_VALUE_GAP),  # participation 0.5, value gap 1
        (0.5, 1.5, TAG_PARTICIPATION),  # participation 1.5, value gap 1
    ):
        instance = pennies_market(right_outside)
        assert instance.game_values.tolist() == [[0.0]]
        report = matching_instability(instance, Matching(((0, 0),)), profile)
        assert report.subsidies.amounts == {AgentId.left(0): 0.0, AgentId.right(0): amount}
        assert report.binding == {AgentId.left(0): TAG_NONE, AgentId.right(0): tag}


def test_cover_tag_wins_over_the_floor_it_raises():
    # R0 sits 0.1 below its outside option (floor 0.1, participation), and
    # the blocking pair (L1, R0) is covered more cheaply by raising R0 to its
    # gap of 0.3 than by raising L1 to 0.8
    utilities = UtilityTable(
        np.array([[1.0], [0.8]]),
        np.array([[0.0, 0.3]]),
        (0.0, 0.0),
        (0.1,),
    )
    report = subset_instability(utilities, Matching(((0, 0),)))
    assert report.subsidies.amounts[AgentId.right(0)] == 0.3
    assert report.value == pytest.approx(0.3, abs=1e-12)
    assert report.binding == {
        AgentId.left(0): TAG_NONE, AgentId.left(1): TAG_NONE, AgentId.right(0): TAG_COVER,
    }


def test_near_equilibrium_clamps_to_exact_zero():
    instance = pennies_market()
    wobble = np.array([0.5 + 5e-13, 0.5 - 5e-13])
    profile = {AgentId.left(0): wobble, AgentId.right(0): wobble}
    report = matching_instability(instance, Matching(((0, 0),)), profile)
    assert report.value == 0.0


def test_subset_instability_covers_cheapest_side():
    # one blocking pair with gains 0.8 (left) and 0.3 (right): paying the
    # right agent is the cheaper cover
    utilities = UtilityTable(
        np.array([[1.0], [0.8]]),
        np.array([[0.0, 0.3]]),
        (0.0, 0.0),
        (0.0,),
    )
    report = subset_instability(utilities, Matching(((0, 0),)))
    assert report.value == pytest.approx(0.3, abs=1e-12)
    assert report.subsidies.amounts[AgentId.right(0)] == pytest.approx(0.3, abs=1e-12)
    assert report.binding[AgentId.right(0)] == TAG_COVER
    assert report.active_pairs == ((1, 0),)


def test_single_action_markets_reduce_to_subset_instability():
    rng = np.random.default_rng(31)
    one = np.array([1.0])
    for _ in range(40):
        p, a = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        instance = generate_instance(p, a, 1, 1, outside_option=-0.3, seed=int(rng.integers(1 << 30)))
        values = instance.games[:, :, 0, 0]
        utilities = UtilityTable(values, -values.T, instance.left_outside, instance.right_outside)
        matching = random_matching(instance, rng)
        profile = {
            agent: one
            for i, j in matching.pairs
            for agent in (AgentId.left(i), AgentId.right(j))
        }
        mi = matching_instability(instance, matching, profile)
        si = subset_instability(utilities, matching)
        assert mi.value == pytest.approx(si.value, abs=1e-12)


def test_one_by_one_markets_reduce_to_value_gap():
    rng = np.random.default_rng(32)
    for _ in range(40):
        instance = generate_instance(
            1, 1, 2, 2, outside_option=-5.0, seed=int(rng.integers(1 << 30))
        )
        profile = {
            AgentId.left(0): rng.dirichlet(np.ones(2)),
            AgentId.right(0): rng.dirichlet(np.ones(2)),
        }
        # outside option of -5 keeps participation slack, isolating the gap
        matching = Matching(((0, 0),))
        mi = matching_instability(instance, matching, profile)
        realized = realized_payoffs(instance, matching, profile)
        expected = abs(maximin(instance.games[0, 0])[0] - realized[AgentId.left(0)])
        assert mi.value == pytest.approx(expected, abs=1e-12)


def test_equilibrium_play_on_stable_matching_scores_exact_zero():
    rng = np.random.default_rng(33)
    for _ in range(15):
        instance = generate_instance(
            int(rng.integers(1, 4)),
            int(rng.integers(1, 4)),
            int(rng.integers(1, 3)),
            int(rng.integers(1, 3)),
            generator=Generator.UNIFORM_SIGNED,
            outside_option=-1.0,
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
        report = matching_instability(instance, matching, profile)
        assert report.value == 0.0


def test_equilibrium_pins_realized_utility_to_game_value():
    rng = np.random.default_rng(34)
    for _ in range(25):
        instance = generate_instance(1, 1, 3, 3, seed=int(rng.integers(1 << 30)))
        sol = solve_game(instance.games[0, 0])
        profile = {AgentId.left(0): sol.row_strategy, AgentId.right(0): sol.column_strategy}
        realized = realized_payoffs(instance, Matching(((0, 0),)), profile)
        # neither side's value-rationality slack may bind, which pins the
        # realized payoff to the game value from both directions
        assert sol.value - realized[AgentId.left(0)] <= 1e-9
        assert -sol.value - realized[AgentId.right(0)] <= 1e-9
        assert realized[AgentId.left(0)] == pytest.approx(sol.value, abs=1e-9)


def test_matches_oracle_on_random_markets():
    rng = np.random.default_rng(35)
    for _ in range(40):
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
        report = matching_instability(instance, matching, profile)
        assert report.value == pytest.approx(
            oracle_mi(instance, matching, profile), abs=1e-8
        )
        assert_subsidies_stabilize(instance, matching, profile, report)
        assert set(report.binding.values()) <= TAGS


def test_report_record_is_json_ready():
    instance = build_example_market()
    report = matching_instability(
        instance, Matching(((0, 0), (1, 1))), build_example_profile()
    )
    record = report.to_record()
    assert record["format"] == "instability-report"
    assert record["version"] == 1
    assert record["value"] == 1.0
    assert record["subsidies"]["R0"] == 0.5
    assert all(isinstance(key, str) for key in record["binding"])


def test_profile_validation():
    instance = build_example_market()
    with pytest.raises(InputError, match=r"\(missing \['L0', 'R1'\], extra \[\]\)"):
        matching_instability(instance, Matching(((0, 1),)), {})
    with pytest.raises(InputError, match=r"\(missing \[\], extra \['L0', 'L1', 'R0', 'R1'\]\)"):
        matching_instability(instance, Matching(()), build_example_profile())
    # as many entries as matched agents, but one of them the wrong agent
    one = np.array([1.0])
    with pytest.raises(InputError, match=r"\(missing \['R1'\], extra \['R0'\]\)"):
        matching_instability(instance, Matching(((0, 1),)), {AgentId.left(0): one, AgentId.right(0): one})
    # keys that cannot be ordered among themselves are named in order of their text
    with pytest.raises(InputError, match=r"\(missing \[\], extra \['3', 'L0'\]\)"):
        matching_instability(instance, Matching(()), {"L0": one, 3: one})
    with pytest.raises(InputError, match=r"\(missing \['L0', 'R1'\], extra \['R0', 'x'\]\)"):
        matching_instability(instance, Matching(((0, 1),)), {AgentId.right(0): one, "x": one})
    with pytest.raises(DimensionError, match=r"pair \(0, 1\): strategy has shape \(2,\), expected \(1,\)"):
        matching_instability(
            instance,
            Matching(((0, 1),)),
            {AgentId.left(0): np.array([0.5, 0.5]), AgentId.right(1): np.array([1.0])},
        )
    # right shapes, but not distributions: a negative entry, a NaN, a bad sum
    instance = generate_instance(1, 1, 2, 2, seed=3)
    for x, y in (([2.0, -1.0], [5.0, 5.0]), ([np.nan, 1.0], [0.5, 0.5]), ([0.5, 0.5], [0.5, 0.6])):
        with pytest.raises(InputError, match=r"pair \(0, 0\): strategy entries"):
            matching_instability(
                instance, Matching(((0, 0),)), {AgentId.left(0): x, AgentId.right(0): y}
            )


def test_audit_checks_its_inputs_before_it_solves(monkeypatch):
    calls = []

    def recording_maximin(game):
        calls.append(np.shape(game))
        return maximin(game)

    monkeypatch.setattr(market, "maximin", recording_maximin)
    instance = generate_instance(2, 2, 2, 2, seed=5)
    half = np.array([0.5, 0.5])
    with pytest.raises(DimensionError, match="out of range"):
        matching_instability(instance, Matching(((2, 0),)), {AgentId.left(2): half, AgentId.right(0): half})
    with pytest.raises(InputError, match="missing"):
        matching_instability(instance, Matching(((0, 1),)), {AgentId.left(0): half})
    assert calls == []
    matching_instability(instance, Matching(((0, 1),)), {AgentId.left(0): half, AgentId.right(1): half})
    assert calls == [(2, 2, 2, 2)]


def test_total_adds_the_subsidies_left_to_right():
    # ten floors of 0.1: added left to right they make 0.9999999999999999, the
    # bits of Python 3.11's sum(); a compensated sum (3.12 on) would give 1.0
    utilities = UtilityTable(np.zeros((5, 5)), np.zeros((5, 5)), (0.1,) * 5, (0.1,) * 5)
    report = subset_instability(utilities, Matching(tuple((i, i) for i in range(5))))
    assert list(report.subsidies.amounts.values()) == [0.1] * 10
    assert report.value == 0.9999999999999999


def test_negative_tolerance_rejected():
    utilities = UtilityTable(
        np.array([[1.0, 0.5], [0.3, 0.2]]), np.array([[0.4, 0.6], [0.7, 0.1]]), (0.0, 0.0), (0.0, 0.0)
    )
    instance = generate_instance(2, 2, 2, 2, seed=3)
    audits = (
        lambda tol: subset_instability(utilities, Matching(()), tol=tol),
        lambda tol: matching_instability(instance, Matching(()), {}, tol=tol),
    )
    for audit in audits:
        for tol, message in (
            (-1e-3, "^tol must be a nonnegative number, got -0.001$"),
            (float("nan"), "^tol must be finite, got nan$"),
            (float("inf"), "^tol must be finite, got inf$"),
            ("x", "^tol must be a real number, got 'x'$"),
            (None, "^tol must be a real number, got None$"),
            ([0.1], r"^tol must be a real number, got \[0\.1\]$"),
            (True, "^tol must be a real number, got True$"),
        ):
            with pytest.raises(InputError, match=message):
                audit(tol)
    assert subset_instability(utilities, Matching(()), tol=0.0).value == pytest.approx(1.2, abs=1e-12)


def test_oracle_refuses_large_markets():
    instance = generate_instance(4, 2, 1, 1)
    with pytest.raises(InputError):
        oracle_mi(instance, Matching(()), {})


def brute_force_cover(left_gain, right_gain, pairs, current, outside, tol):
    """Cheapest total subsidy over level assignments, from the raw constraints.

    An agent's lower bound is its participation and value-gap requirement;
    its levels are that bound and its cross-pair gaps above it. Every
    assignment of levels to the left agents is enumerated; each right agent
    then takes the least level that covers the pairs its left partners
    leave open, which is optimal for that left assignment.
    """
    p, a = left_gain.shape
    partner_left = dict(pairs)
    partner_right = {j: i for i, j in pairs}
    lower_left = np.array([
        max(0.0, outside[0][i] - current[0][i],
            left_gain[i, partner_left[i]] - current[0][i] if i in partner_left else 0.0)
        for i in range(p)
    ])
    lower_right = np.array([
        max(0.0, outside[1][j] - current[1][j],
            right_gain[j, partner_right[j]] - current[1][j] if j in partner_right else 0.0)
        for j in range(a)
    ])
    gap_left = left_gain - np.asarray(current[0])[:, None]
    gap_right = right_gain.T - np.asarray(current[1])[None, :]
    cross = np.ones((p, a), dtype=bool)
    for i, j in pairs:
        cross[i, j] = False
    levels = [
        sorted({lower_left[i], *(g for g in gap_left[i][cross[i]] if g > lower_left[i])})
        for i in range(p)
    ]
    combos = np.array(list(itertools.product(*levels)), dtype=float).reshape(-1, p)
    total = combos.sum(axis=1)
    for j in range(a):
        need = np.full(len(combos), lower_right[j])
        for i in range(p):
            if cross[i, j] and gap_right[i, j] > lower_right[j] + tol:
                open_pair = gap_left[i, j] - combos[:, i] > tol
                need = np.where(open_pair, np.maximum(need, gap_right[i, j]), need)
        total += need
    return float(total.min())


def test_cover_matches_level_brute_force():
    rng = np.random.default_rng(36)
    tol = 1e-9
    for case in range(200):
        p, a = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        if case % 2 == 0:  # integer-valued, with many tied covers
            left_gain = rng.integers(-1, 4, size=(p, a)).astype(float)
            right_gain = rng.integers(-1, 4, size=(a, p)).astype(float)
            current = (rng.integers(-2, 1, size=p).astype(float), rng.integers(-2, 1, size=a).astype(float))
            outside = (rng.integers(-2, 1, size=p).astype(float), rng.integers(-2, 1, size=a).astype(float))
        else:
            left_gain = rng.uniform(-0.5, 2.0, size=(p, a))
            right_gain = rng.uniform(-0.5, 2.0, size=(a, p))
            current = (rng.uniform(-1.0, 0.5, size=p), rng.uniform(-1.0, 0.5, size=a))
            outside = (rng.uniform(-1.0, 0.0, size=p), rng.uniform(-1.0, 0.0, size=a))
        size = int(rng.integers(0, min(p, a) + 1))
        pairs = tuple(zip(
            sorted(rng.choice(p, size=size, replace=False).tolist()),
            rng.choice(a, size=size, replace=False).tolist(),
        ))
        matching = Matching(pairs)
        report = _audit(left_gain, right_gain.T, matching, current, outside, tol)
        expected = brute_force_cover(left_gain, right_gain, pairs, current, outside, tol)
        assert report.value == pytest.approx(expected, abs=1e-9)

        s = report.subsidies.amounts
        s_left = np.array([s[AgentId.left(i)] for i in range(p)])
        s_right = np.array([s[AgentId.right(j)] for j in range(a)])
        assert (s_left >= 0.0).all() and (s_right >= 0.0).all()
        assert (outside[0] - current[0] - s_left <= tol).all()
        assert (outside[1] - current[1] - s_right <= tol).all()
        for i, j in pairs:
            assert left_gain[i, j] - current[0][i] - s_left[i] <= tol
            assert right_gain[j, i] - current[1][j] - s_right[j] <= tol
        for i in range(p):
            for j in range(a):
                if (i, j) not in pairs:
                    assert min(
                        left_gain[i, j] - current[0][i] - s_left[i],
                        right_gain[j, i] - current[1][j] - s_right[j],
                    ) <= tol


def integer_market(rng, n):
    """An n x n market of 2x2 games with small integer payoffs and outside options."""
    return MarketInstance(
        p=n, a=n, m=2, k=2,
        games=rng.integers(-2, 3, size=(n, n, 2, 2)).astype(float),
        left_outside=tuple(rng.integers(-3, 0, size=n).astype(float)),
        right_outside=tuple(rng.integers(-3, 0, size=n).astype(float)),
    )


def test_audit_is_equivariant_under_relabelling():
    rng = np.random.default_rng(37)
    pure = (np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    for _ in range(20):
        n = int(rng.integers(3, 7))
        instance = integer_market(rng, n)
        matching = random_matching(instance, rng)
        profile = {
            agent: pure[int(rng.integers(3))]
            for i, j in matching.pairs
            for agent in (AgentId.left(i), AgentId.right(j))
        }
        report = matching_instability(instance, matching, profile)
        for _ in range(3):
            to_left, to_right = rng.permutation(n), rng.permutation(n)

            def moved(agent):
                if agent.side is Side.LEFT:
                    return AgentId.left(int(to_left[agent.index]))
                return AgentId.right(int(to_right[agent.index]))

            games = np.empty_like(instance.games)
            games[np.ix_(to_left, to_right)] = instance.games
            left_outside = np.empty(n)
            left_outside[to_left] = instance.left_outside
            right_outside = np.empty(n)
            right_outside[to_right] = instance.right_outside
            relabelled = MarketInstance(
                p=n, a=n, m=2, k=2, games=games,
                left_outside=tuple(left_outside), right_outside=tuple(right_outside),
            )
            pairs = tuple(sorted((int(to_left[i]), int(to_right[j])) for i, j in matching.pairs))
            other = matching_instability(
                relabelled, Matching(pairs), {moved(agent): x for agent, x in profile.items()}
            )
            assert other.subsidies.amounts == {
                moved(agent): amount for agent, amount in report.subsidies.amounts.items()
            }
            assert other.binding == {moved(agent): tag for agent, tag in report.binding.items()}
            assert other.value == pytest.approx(report.value, rel=1e-12, abs=1e-12)


def test_audit_scales_with_payoff_units():
    rng = np.random.default_rng(38)
    for _ in range(20):
        n = int(rng.integers(3, 7))
        instance = integer_market(rng, n)
        matching = random_matching(instance, rng)
        profile = random_profile(instance, matching, rng)
        base = matching_instability(instance, matching, profile).value
        for c in (0.5, 2.0, 10.0, 1000.0):
            scaled = MarketInstance(
                p=n, a=n, m=2, k=2, games=c * instance.games,
                left_outside=tuple(c * np.asarray(instance.left_outside)),
                right_outside=tuple(c * np.asarray(instance.right_outside)),
            )
            value = matching_instability(scaled, matching, profile).value
            assert value == pytest.approx(c * base, rel=1e-9, abs=1e-12)


def test_empty_matching_audit_at_n30_is_bounded():
    n = 30
    instance = generate_instance(n, n, 2, 2, generator=Generator.GAUSSIAN_UNIT, seed=39)
    values = instance.game_values
    report = matching_instability(instance, Matching(()), {})
    assert len(report.active_pairs) >= 700
    # unmatched agents sit at their outside options, so every floor is zero
    gap_left = values - np.asarray(instance.left_outside)[:, None]
    gap_right = -values - np.asarray(instance.right_outside)[None, :]
    raise_left = np.maximum(gap_left.max(axis=1), 0.0).sum()
    raise_right = np.maximum(gap_right.max(axis=0), 0.0).sum()
    assert 0.0 <= report.value <= min(raise_left, raise_right) + 1e-9


def audit_by_arrays(left_gain, right_gain, matching, current, outside, tol):
    """_audit restated on numpy arrays: floors by masked assignment and
    np.maximum, the active pairs by one mask read in np.nonzero's order."""
    p, a = left_gain.shape
    rows, cols = np.array(matching.pairs, dtype=int).reshape(-1, 2).T
    gap_left = left_gain - current[0][:, None]
    gap_right = right_gain.T - current[1]
    participation = np.concatenate(outside) - np.concatenate(current)
    value_gap = np.zeros(p + a)
    value_gap[rows] = gap_left[rows, cols]
    value_gap[p + cols] = gap_right[rows, cols]
    participation[participation <= tol] = 0.0
    value_gap[value_gap <= tol] = 0.0
    floors = np.maximum(participation, value_gap)
    bar = floors + tol
    active = (gap_left > bar[:p, None]) & (gap_right > bar[p:])
    active[rows, cols] = False
    left_active, right_active = np.nonzero(active)
    columns = (left_active, p + right_active, gap_left[active], gap_right[active])
    final = _solve_cover(floors.tolist(), list(zip(*(c.tolist() for c in columns))), tol)
    agents = [AgentId.left(i) for i in range(p)] + [AgentId.right(j) for j in range(a)]
    terms = zip(agents, final, floors.tolist(), (participation >= value_gap).tolist())
    binding = {
        agent: TAG_NONE if amount <= 0.0 else TAG_COVER if amount > floor
        else TAG_PARTICIPATION if participation_wins else TAG_VALUE_GAP
        for agent, amount, floor, participation_wins in terms
    }
    total = 0.0
    for amount in final:  # left to right, as _audit adds them
        total += amount
    return InstabilityReport(
        value=total,
        subsidies=SubsidyVector(dict(zip(agents, final))),
        active_pairs=tuple(zip(left_active.tolist(), right_active.tolist())),
        binding=binding,
    )


@pytest.mark.parametrize("integer", [True, False], ids=["integer", "gaussian"])
def test_audit_core_matches_its_array_definition(integer):
    rng = np.random.default_rng(40 + integer)

    def draw(*shape):
        return rng.integers(-2, 3, size=shape).astype(float) if integer else rng.standard_normal(shape)

    for p, a in itertools.product(range(1, 9), repeat=2):
        left_gain, right_gain = draw(p, a), draw(a, p)
        outside = (draw(p), draw(a))
        shuffled = tuple(zip(rng.permutation(p).tolist(), rng.permutation(a).tolist()))
        for size in (0, int(rng.integers(1, min(p, a) + 1)), min(p, a)):  # empty, partial, full
            matching = Matching(shuffled[:size])
            # current utilities read from the gain tables, as subset_instability
            # does, and drawn apart from them, as realized play gives
            read = (outside[0].copy(), outside[1].copy())
            for i, j in matching.pairs:
                read[0][i], read[1][j] = left_gain[i, j], right_gain[j, i]
            for current in (read, (draw(p), draw(a))):
                for tol in (0.0, 1e-9, 0.05, 1.0):  # integer gaps hit tol 1.0 exactly
                    args = (left_gain, right_gain, matching, current, outside, tol)
                    expected = audit_by_arrays(*args).to_record()
                    report = _audit(left_gain, right_gain.T, matching, current, outside, tol)
                    assert repr(report.to_record()) == repr(expected)


def exact_cover(floors: list, pairs: list, tol: float) -> list:
    """The cheapest cover as a minimum closure, cut exactly on Fractions.

    Written from the closure model, apart from _solve_cover: left node
    ("L", i, t) means s_i >= levels[t] and pays its step on an edge to the
    sink, right node ("R", j, t) means s_j < levels[t] and pays its step on
    an edge from the source. Infinite edges keep each ladder monotone and
    send a pair's uncovered right level to its left covering level (the
    lowest level >= gap - tol). Breadth-first augmenting paths find a
    maximum flow; the nodes the source still reaches, the smallest minimum
    cut's source side, give each agent its level.
    """
    levels = {}
    for i, j, gap_left, gap_right in pairs:
        levels.setdefault(("L", i), {floors[i]}).add(gap_left)
        levels.setdefault(("R", j), {floors[j]}).add(gap_right)
    levels = {agent: sorted(values) for agent, values in levels.items()}
    capacity: dict = {}

    def edge(u, v, amount):
        capacity.setdefault(u, {}).setdefault(v, Fraction(0))
        capacity.setdefault(v, {}).setdefault(u, Fraction(0))
        capacity[u][v] += amount

    for (side, agent), ladder in levels.items():
        for t in range(1, len(ladder)):
            node, step = (side, agent, t), Fraction(ladder[t]) - Fraction(ladder[t - 1])
            edge(*((node, "sink") if side == "L" else ("source", node)), step)
            if t > 1:
                edge(*((node, (side, agent, t - 1)) if side == "L" else ((side, agent, t - 1), node)), math.inf)
    for i, j, gap_left, gap_right in pairs:
        cover_left = bisect.bisect_left(levels["L", i], gap_left - tol)
        cover_right = bisect.bisect_left(levels["R", j], gap_right - tol)
        edge(("R", j, cover_right), ("L", i, cover_left), math.inf)

    def reachable() -> dict:
        parent = {"source": None}
        queue = collections.deque(["source"])
        while queue:
            u = queue.popleft()
            for v, amount in capacity.get(u, {}).items():
                if amount > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        return parent

    while "sink" in (parent := reachable()):
        path = [("sink", parent["sink"])]
        while path[-1][1] != "source":
            path.append((path[-1][1], parent[path[-1][1]]))
        push = min(capacity[u][v] for v, u in path)
        for v, u in path:
            capacity[u][v] -= push
            capacity[v][u] += push
    source_side = reachable()
    subsidies = list(floors)
    for (side, agent), ladder in levels.items():
        inside = [(side, agent, t) in source_side for t in range(1, len(ladder))]
        subsidies[agent] = ladder[inside.count(True) if side == "L" else inside.count(False)]
    return subsidies


def recorded_covers(monkeypatch) -> list:
    """The arguments of every _solve_cover call from now on."""
    calls, solve = [], instability._solve_cover
    monkeypatch.setattr(instability, "_solve_cover", lambda *args: calls.append(args) or solve(*args))
    return calls


def covering_heights(floors: list, pairs: list, tol: float) -> list:
    """Per pair, the number of ladder levels at or below its right and its
    left covering level: above 1, the covering node has a chain edge below it."""
    levels = {}
    for left, right, gap_left, gap_right in pairs:
        levels.setdefault(left, {floors[left]}).add(gap_left)
        levels.setdefault(right, {floors[right]}).add(gap_right)
    levels = {agent: sorted(values) for agent, values in levels.items()}
    return [
        (bisect.bisect_left(levels[right], gap_right - tol), bisect.bisect_left(levels[left], gap_left - tol))
        for left, right, gap_left, gap_right in pairs
    ]


def tall_ladder_covers(seed: int, count: int) -> list:
    """Covers on grids of 3 to 6 agents a side, every cross pair active with
    its own gaps, so most ladders have three or more levels and many
    covering nodes have a chain edge below them on either side. Even cases
    hold small integer gaps, which tie often, cut at tol 0 and 1; odd ones
    hold uniform gaps."""
    rng = np.random.default_rng(seed)
    covers = []
    for case in range(count):
        p, a = (int(n) for n in rng.integers(3, 7, size=2))
        integer = case % 2 == 0
        draw = rng.integers(0, 2, size=p + a) if integer else rng.uniform(0.0, 0.5, size=p + a)
        floors = [float(floor) for floor in draw]
        pairs = []
        for i, j in itertools.product(range(p), range(a)):
            gaps = rng.integers(3, 9, size=2) if integer else rng.uniform(0.6, 3.0, size=2)
            pairs.append((i, p + j, float(gaps[0]), float(gaps[1])))
        tol = float(case % 4 // 2) if integer else 1e-9
        covers.append((floors, pairs, tol))
    return covers


def test_cover_matches_an_exact_min_cut(monkeypatch):
    # the audit-dense shapes: 6x6 to 8x8 markets of 3x3 games, empty,
    # quarter and half matchings, mixed strategies; a wide self-play
    # episode, whose rounds hold a few dozen active pairs; empty matchings
    # of 2x2 markets at n = 8 to 12, covers of 56 to 133 active pairs where
    # most flow goes along the first two phases' direct paths; and covers
    # whose ladders are tall on both sides, so that the second phase's
    # paths run through a chain edge at either end
    calls = recorded_covers(monkeypatch)
    rng = np.random.default_rng(56)
    for n, share, _ in itertools.product((6, 7, 8), (0, 4, 2), range(4)):  # empty, quarter, half
        instance = generate_instance(n, n, 3, 3, generator=Generator.GAUSSIAN_UNIT, seed=int(rng.integers(2**31)))
        size = n // share if share else 0
        matching = Matching(tuple(zip(range(size), rng.permutation(n)[:size].tolist())))
        matching_instability(instance, matching, random_profile(instance, matching, rng))
    instance = generate_instance(16, 16, 2, 2, generator=Generator.GAUSSIAN_UNIT, seed=57)
    run_episode(instance, Policy.SELF_PLAY, 30, seed=57)
    for n in range(8, 13):
        instance = generate_instance(n, n, 2, 2, generator=Generator.GAUSSIAN_UNIT, seed=58 + n)
        matching_instability(instance, Matching(()), {})
    assert len(calls) == 36 + 30 + 5
    assert max(len(pairs) for _, pairs, _ in calls[:66]) >= 40
    assert min(len(pairs) for _, pairs, _ in calls[66:]) >= 50
    tall = tall_ladder_covers(59, 120)
    heights = [height for cover in tall for height in covering_heights(*cover)]
    assert sum(right > 1 for right, _ in heights) > len(heights) // 2
    assert sum(left > 1 for _, left in heights) > len(heights) // 2
    for floors, pairs, tol in [*calls, *tall]:
        assert _solve_cover(floors, pairs, tol) == exact_cover(floors, pairs, tol)


def test_cover_does_not_depend_on_the_order_of_the_pairs(monkeypatch):
    calls = recorded_covers(monkeypatch)
    for n in (6, 10):
        instance = generate_instance(n, n, 2, 2, generator=Generator.GAUSSIAN_UNIT, seed=60 + n)
        matching_instability(instance, Matching(()), {})
    rng = np.random.default_rng(61)
    for floors, pairs, tol in [*calls, *tall_ladder_covers(62, 40)]:
        expected = _solve_cover(floors, pairs, tol)
        for _ in range(3):
            shuffled = [pairs[index] for index in rng.permutation(len(pairs))]
            assert _solve_cover(floors, shuffled, tol) == expected
