"""Market structures: preferences, deferred acceptance, stability, generation."""

import numpy as np
import pytest
from conftest import EXAMPLE_OUTSIDE, EXAMPLE_VALUES, all_matchings

from matchgames.errors import DimensionError, InputError
from matchgames.instability import TAG_COVER, TAG_NONE, TAG_PARTICIPATION, subset_instability
from matchgames.market import (
    AgentId,
    Generator,
    MarketInstance,
    Matching,
    PreferenceProfile,
    Side,
    UtilityTable,
    deferred_acceptance,
    generate_instance,
    preferences_from_values,
)


def example_utilities() -> UtilityTable:
    return UtilityTable(
        EXAMPLE_VALUES,
        -EXAMPLE_VALUES.T,
        (EXAMPLE_OUTSIDE, EXAMPLE_OUTSIDE),
        (EXAMPLE_OUTSIDE, EXAMPLE_OUTSIDE),
    )


def test_agent_id_basics():
    left = AgentId.left(0)
    right = AgentId.right(1)
    assert str(left) == "L0"
    assert str(right) == "R1"
    assert left < right
    assert left.side is Side.LEFT and right.side is Side.RIGHT
    for _ in range(2):  # a refused index is refused every time
        with pytest.raises(InputError):
            AgentId.left(-1)
        with pytest.raises(InputError):
            AgentId.right(-1)


@pytest.mark.parametrize("index", [0, 1, 7])
def test_agent_id_constructors_equal_the_plain_ids(index):
    assert AgentId.left(index) == AgentId(Side.LEFT, index)
    assert AgentId.right(index) == AgentId(Side.RIGHT, index)
    assert hash(AgentId.left(index)) == hash(AgentId(Side.LEFT, index))
    assert AgentId.left(index) != AgentId.right(index)


def _preferences_by_definition(values, outside) -> tuple:
    """Stable argsort of the negated values, cut below the outside option."""
    return tuple(
        tuple(int(j) for j in np.argsort(-row, kind="stable") if row[j] >= cut)
        for row, cut in zip(np.asarray(values, dtype=float), outside)
    )


def _tables_with_ties(rng, p: int, a: int):
    """(left, right, left_outside, right_outside) tables full of ties."""
    # integer values: many ties, and some entries equal to the outside option
    yield (
        rng.integers(-2, 3, size=(p, a)).astype(float),
        rng.integers(-2, 3, size=(a, p)).astype(float),
        rng.integers(-2, 3, size=p).astype(float),
        rng.integers(-2, 3, size=a).astype(float),
    )
    # signed zeros against a zero or negative-zero outside option
    signed = np.array([0.0, -0.0, 1.0, -1.0])
    yield (
        rng.choice(signed, size=(p, a)),
        rng.choice(signed, size=(a, p)),
        rng.choice(signed[:2], size=p),
        rng.choice(signed[:2], size=a),
    )
    # continuous values cut at outside options drawn from the table itself
    left, right = rng.standard_normal((p, a)), rng.standard_normal((a, p))
    yield left, right, rng.choice(left.ravel(), size=p), rng.choice(right.ravel(), size=a)


@pytest.mark.parametrize("size", [2, 16])
def test_preferences_from_values_match_their_definition(size):
    rng = np.random.default_rng(size)
    for _ in range(50):
        for left, right, left_outside, right_outside in _tables_with_ties(rng, size, size):
            prefs = preferences_from_values(left, right, left_outside, right_outside)
            assert prefs.left == _preferences_by_definition(left, left_outside)
            assert prefs.right == _preferences_by_definition(right, right_outside)
            assert prefs.left_threshold == tuple(left_outside.tolist())
            assert prefs.right_threshold == tuple(right_outside.tolist())


def test_preferences_from_example_values():
    prefs = preferences_from_values(
        EXAMPLE_VALUES,
        -EXAMPLE_VALUES.T,
        (EXAMPLE_OUTSIDE, EXAMPLE_OUTSIDE),
        (EXAMPLE_OUTSIDE, EXAMPLE_OUTSIDE),
    )
    # L0 ranks R0 (1.0) over R1 (0.0); L1 ties at 1.0, broken toward R0
    assert prefs.left == ((0, 1), (0, 1))
    # R0 sees -1.0 twice, both below the outside option; R1 keeps only L0
    assert prefs.right == ((), (0,))
    assert prefs.left_threshold == (EXAMPLE_OUTSIDE, EXAMPLE_OUTSIDE)


def test_preferences_truncate_strictly_below_threshold():
    prefs = preferences_from_values(
        np.array([[0.5, -0.5, -0.2]]),
        np.array([[0.0], [0.0], [0.0]]),
        (-0.2,),
        (0.0, 0.0, 0.0),
    )
    # -0.5 falls below the threshold, -0.2 sits exactly on it and stays
    assert prefs.left == ((0, 2),)


def test_deferred_acceptance_on_example():
    prefs = preferences_from_values(
        EXAMPLE_VALUES,
        -EXAMPLE_VALUES.T,
        (EXAMPLE_OUTSIDE, EXAMPLE_OUTSIDE),
        (EXAMPLE_OUTSIDE, EXAMPLE_OUTSIDE),
    )
    assert deferred_acceptance(prefs).pairs == ((0, 1),)
    # unique stable matching here, so the right-proposing run agrees
    assert deferred_acceptance(prefs, Side.RIGHT).pairs == ((0, 1),)


def test_example_matching_is_stable():
    report = subset_instability(example_utilities(), Matching(((0, 1),)))
    assert report.value == 0.0
    assert set(report.binding.values()) == {TAG_NONE}
    assert report.active_pairs == ()


def test_blocking_pair_and_ir_detection():
    utilities = example_utilities()
    # L0 matched to R0 sits at 1.0 but R0 gets -1.0 < -0.5: IR violation
    report = subset_instability(utilities, Matching(((0, 0),)))
    assert report.value > 0.0
    assert report.binding[AgentId.right(0)] == TAG_PARTICIPATION
    # leaving everyone unmatched makes (L0, R1) a blocking pair
    report = subset_instability(utilities, Matching(()))
    assert report.value > 0.0
    assert (0, 1) in report.active_pairs


def test_identical_values_give_assortative_matching():
    values = np.full((3, 3), 0.25)
    prefs = preferences_from_values(values, values.T, (0.0,) * 3, (0.0,) * 3)
    assert prefs.left == ((0, 1, 2),) * 3
    matching = deferred_acceptance(prefs)
    assert matching.pairs == ((0, 0), (1, 1), (2, 2))


def test_deferred_acceptance_is_proposer_optimal():
    rng = np.random.default_rng(21)
    for _ in range(20):
        values = rng.uniform(-1.0, 1.0, size=(3, 3))
        outside = (-0.2,) * 3
        utilities = UtilityTable(values, -values.T, outside, outside)
        prefs = preferences_from_values(values, -values.T, outside, outside)
        stable = [m for m in all_matchings(3, 3) if subset_instability(utilities, m).value == 0.0]
        assert stable, "every market has at least one stable matching"
        for side in Side:
            result = deferred_acceptance(prefs, side)
            assert subset_instability(utilities, result).value == 0.0
            # every proposer does at least as well as in any stable matching
            proposers = utilities.current(result)[side]
            for other in stable:
                assert (proposers >= utilities.current(other)[side] - 1e-12).all()


def test_deferred_acceptance_is_equivariant_under_relabelling():
    rng = np.random.default_rng(22)
    for _ in range(200):
        p, a = (int(n) for n in rng.integers(1, 7, size=2))
        # strict lists truncated at a random length, some of them empty
        left = [tuple(rng.permutation(a)[: rng.integers(0, a + 1)]) for _ in range(p)]
        right = [tuple(rng.permutation(p)[: rng.integers(0, p + 1)]) for _ in range(a)]
        sigma, tau = rng.permutation(p), rng.permutation(a)
        relabelled_left = [None] * p
        for i, lst in enumerate(left):
            relabelled_left[sigma[i]] = tuple(tau[j] for j in lst)
        relabelled_right = [None] * a
        for j, lst in enumerate(right):
            relabelled_right[tau[j]] = tuple(sigma[i] for i in lst)
        for side in Side:
            matching = deferred_acceptance(PreferenceProfile(left, right), side)
            relabelled = deferred_acceptance(
                PreferenceProfile(relabelled_left, relabelled_right), side
            )
            expected = sorted((int(sigma[i]), int(tau[j])) for i, j in matching.pairs)
            assert sorted(relabelled.pairs) == expected


def test_matching_rejects_overlaps():
    with pytest.raises(InputError):
        Matching(((0, 0), (0, 1)))
    with pytest.raises(InputError):
        Matching(((0, 0), (1, 0)))
    with pytest.raises(InputError):
        Matching(((-1, 0),))
    with pytest.raises(DimensionError):
        Matching(((5, 0),)).validate_for(2, 2)


def test_matching_lookups():
    matching = Matching(((1, 0), (0, 2)))
    assert matching.pairs == ((0, 2), (1, 0))
    assert len(matching) == 2
    # valued by partner index, a table reads each agent's partner, -1.0 if unmatched
    by_index = UtilityTable(
        np.tile(np.arange(3.0), (2, 1)), np.tile(np.arange(2.0), (3, 1)), (-1.0,) * 2, (-1.0,) * 3
    )
    left, right = by_index.current(matching)
    assert left.tolist() == [2.0, 0.0]
    assert right.tolist() == [1.0, -1.0, 0.0]


def test_preference_profile_validation():
    with pytest.raises(InputError):
        PreferenceProfile(((0, 0),), ((0,),))
    with pytest.raises(DimensionError):
        PreferenceProfile(((3,),), ((0,),))
    with pytest.raises(DimensionError):
        PreferenceProfile(((0,),), ((0,),), left_threshold=(0.0, 0.0))


@pytest.mark.parametrize(
    ("left", "right", "thresholds", "error", "message"),
    [
        (((0, 1, 0),), ((0,), (0,)), {}, InputError, "left preference list repeats an entry: (0, 1, 0)"),
        (((0,),), ((0, 0),), {}, InputError, "right preference list repeats an entry: (0, 0)"),
        (((-1,),), ((0,),), {}, DimensionError, "left preference list (-1,) references index out of range"),
        (((0, 1),), ((0,),), {}, DimensionError, "left preference list (0, 1) references index out of range"),
        (((0,),), ((-1,),), {}, DimensionError, "right preference list (-1,) references index out of range"),
        (((0,),), ((1, 0),), {}, DimensionError, "right preference list (1, 0) references index out of range"),
        # a repeat is reported before a range fault, and left lists before right ones
        (((2, 2),), ((0,),), {}, InputError, "left preference list repeats an entry: (2, 2)"),
        (((1,),), ((0, 0),), {}, DimensionError, "left preference list (1,) references index out of range"),
        (((0,),), ((0,),), {"left_threshold": (0.0, 1.0)}, DimensionError,
         "left_threshold has 2 entries for 1 agents"),
        (((0,),), ((0,),), {"right_threshold": (0.5, 0.5, 0.5)}, DimensionError,
         "right_threshold has 3 entries for 1 agents"),
    ],
    ids=[
        "left-repeat", "right-repeat", "left-negative", "left-bound", "right-negative", "right-bound",
        "repeat-before-range", "left-before-right", "left-threshold", "right-threshold",
    ],
)
def test_preference_profile_refusals_keep_their_messages(left, right, thresholds, error, message):
    with pytest.raises(InputError) as info:
        PreferenceProfile(left, right, **thresholds)
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["left", "right", "left_outside", "right_outside"])
def test_utility_table_refuses_non_finite_entries(field, bad):
    tables = {
        "left": np.zeros((2, 3)),
        "right": np.zeros((3, 2)),
        "left_outside": np.zeros(2),
        "right_outside": np.zeros(3),
    }
    tables[field].flat[-1] = bad
    with pytest.raises(InputError) as info:
        UtilityTable(**tables)
    assert type(info.value) is InputError
    assert str(info.value) == "utility table contains non-finite entries"


def test_generate_instance_shapes_and_determinism():
    inst = generate_instance(2, 3, 4, 5, seed=9)
    assert inst.games.shape == (2, 3, 4, 5)
    assert inst.left_outside.shape == (2,)
    assert (inst.left_outside == -1.0).all() and (inst.right_outside == -1.0).all()
    again = generate_instance(2, 3, 4, 5, seed=9)
    assert (inst.games == again.games).all()
    other = generate_instance(2, 3, 4, 5, seed=10)
    assert (inst.games != other.games).any()


def test_generator_statistics():
    gaussian = generate_instance(5, 5, 8, 8, generator=Generator.GAUSSIAN_UNIT, seed=42)
    draws = gaussian.games.ravel()
    assert abs(draws.mean()) < 0.05
    assert abs(draws.var() - 1.0) < 0.1
    uniform = generate_instance(5, 5, 8, 8, generator=Generator.UNIFORM_SIGNED, seed=42)
    draws = uniform.games.ravel()
    assert draws.min() >= -1.0 and draws.max() <= 1.0
    assert abs(draws.mean()) < 0.05
    assert abs(draws.var() - 1.0 / 3.0) < 0.05


def test_instance_validation():
    with pytest.raises(InputError):
        generate_instance(0, 2, 2, 2)
    with pytest.raises(InputError):
        generate_instance(2, 2, 2, 2, outside_option=float("nan"))
    good = generate_instance(2, 2, 2, 2)
    with pytest.raises(DimensionError):
        MarketInstance(
            p=2,
            a=2,
            m=2,
            k=3,
            games=good.games,
            left_outside=good.left_outside,
            right_outside=good.right_outside,
        )


def test_utility_table_lookups():
    utilities = example_utilities()
    left, right = utilities.current(Matching(((0, 1),)))
    # L0 and R1 read their pair's entries; unmatched agents fall back to their outside option
    assert left.tolist() == [0.0, EXAMPLE_OUTSIDE]
    assert right.tolist() == [EXAMPLE_OUTSIDE, 0.0]
    with pytest.raises(DimensionError):
        utilities.current(Matching(((0, 2),)))


def _outside_by_agent(utilities: UtilityTable, agent: AgentId) -> float:
    """The former UtilityTable.outside."""
    outside = utilities.left_outside if agent.side is Side.LEFT else utilities.right_outside
    return float(outside[agent.index])


def _current_by_agent(utilities: UtilityTable, agent: AgentId, matching: Matching) -> float:
    """The former per-agent UtilityTable.current: the partner's entry, else the outside option."""
    if agent.side is Side.LEFT:
        table, partners = utilities.left, dict(matching.pairs)
    else:
        table, partners = utilities.right, {j: i for i, j in matching.pairs}
    partner = partners.get(agent.index)
    if partner is None:
        return _outside_by_agent(utilities, agent)
    return float(table[agent.index, partner])


def _is_stable_by_agent(utilities: UtilityTable, matching: Matching, tol: float) -> tuple:
    """Gale-Shapley stability, one agent and one cross pair at a time.

    Returns (stable, IR violators, blocking pairs): a matched agent below its
    outside option by more than tol violates IR, and a cross pair blocks when
    both members would gain more than tol.
    """
    p, a = utilities.left.shape
    agents = [AgentId.left(i) for i in range(p)] + [AgentId.right(j) for j in range(a)]
    matched = {AgentId.left(i) for i, _ in matching.pairs} | {AgentId.right(j) for _, j in matching.pairs}
    current = {agent: _current_by_agent(utilities, agent, matching) for agent in agents}
    ir = [
        agent for agent in agents
        if agent in matched and current[agent] < _outside_by_agent(utilities, agent) - tol
    ]
    blocking = [
        (i, j)
        for i in range(p)
        for j in range(a)
        if utilities.left[i, j] > current[AgentId.left(i)] + tol
        and utilities.right[j, i] > current[AgentId.right(j)] + tol
    ]
    return not ir and not blocking, tuple(ir), tuple(blocking)


@pytest.mark.parametrize("integer", [True, False], ids=["integer", "gaussian"])
def test_stability_check_matches_its_per_agent_definition(integer):
    rng = np.random.default_rng(23 if integer else 24)

    def draw(*shape: int) -> np.ndarray:
        if integer:  # ties between entries, and with the outside options
            return rng.integers(-2, 3, size=shape).astype(float)
        return rng.standard_normal(shape)

    for _ in range(150):
        p, a = (int(n) for n in rng.integers(1, 7, size=2))
        utilities = UtilityTable(draw(p, a), draw(a, p), draw(p), draw(a))
        for size in sorted({0, int(rng.integers(0, min(p, a) + 1)), min(p, a)}):
            pairs = zip(rng.permutation(p)[:size].tolist(), rng.permutation(a)[:size].tolist())
            matching = Matching(tuple(pairs))
            left, right = utilities.current(matching)
            expected_left = [_current_by_agent(utilities, AgentId.left(i), matching) for i in range(p)]
            expected_right = [_current_by_agent(utilities, AgentId.right(j), matching) for j in range(a)]
            assert left.tobytes() == np.array(expected_left).tobytes()
            assert right.tobytes() == np.array(expected_right).tobytes()
            for tol in (0.0, 1e-9, 0.5):
                report = subset_instability(utilities, matching, tol)
                stable, ir, blocking = _is_stable_by_agent(utilities, matching, tol)
                assert (report.value == 0.0) == stable
                # an IR violator is raised to its outside option (C2) or, by a cover, past it
                assert {agent for agent, tag in report.binding.items() if tag == TAG_PARTICIPATION} <= set(ir)
                assert all(report.binding[agent] in (TAG_PARTICIPATION, TAG_COVER) for agent in ir)
                if not ir:
                    assert report.active_pairs == blocking
