"""Market structures: preferences, deferred acceptance, stability, generation."""

import pickle
import re
import tracemalloc

import numpy as np
import pytest
from conftest import EXAMPLE_OUTSIDE, EXAMPLE_VALUES, all_matchings

from matchgames import market
from matchgames.errors import DimensionError, InputError
from matchgames.games import maximin
from matchgames.instability import (
    TAG_COVER,
    TAG_NONE,
    TAG_PARTICIPATION,
    matching_instability,
    subset_instability,
)
from matchgames.learning import Policy, run_episode
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
    # the dataclass's own formula, so no set or dict of ids changes its order
    assert hash(AgentId.right(index)) == hash((Side.RIGHT, index))
    assert AgentId.left(index) != AgentId.right(index)


@pytest.mark.parametrize("side", [0, 1, np.int64(1)], ids=["0", "1", "numpy-1"])
def test_agent_id_reads_an_integer_side_as_its_side(side):
    agent = AgentId(side, 2)
    assert agent == (AgentId.left(2) if side == 0 else AgentId.right(2))
    assert type(agent.side) is Side and hash(agent) == hash(AgentId(Side(int(side)), 2))
    assert {agent: "x"}[AgentId(Side(int(side)), 2)] == "x"


@pytest.mark.parametrize(
    ("side", "message"),
    [(5, "must be 0 (left) or 1 (right), got 5"), (-1, "must be 0 (left) or 1 (right)"),
     ("L", "must be an integer, got 'L'"), (None, "must be an integer, got None"), (True, "must be an integer, got True"),
     (False, "must be an integer"), (np.True_, "must be an integer"), (1.0, "must be an integer, got 1.0")],
    ids=["5", "-1", "string", "None", "True", "False", "numpy-True", "float"],
)
def test_agent_id_refuses_a_side_that_is_not_left_or_right(side, message):
    with pytest.raises(InputError, match=r"^agent side " + re.escape(message)):
        AgentId(side, 0)


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


@pytest.mark.parametrize("size", [2, 5, 16])
def test_handed_on_profile_and_matching_equal_checked_ones(size):
    """preferences_from_values and deferred_acceptance skip their result types'
    checks; the results must be what the checking constructors build."""
    rng = np.random.default_rng(100 + size)
    cut = {"left": 0, "right": 0}
    for _ in range(40):
        for left, right, left_outside, right_outside in _tables_with_ties(rng, size, size):
            prefs = preferences_from_values(left, right, left_outside, right_outside)
            assert prefs == PreferenceProfile(prefs.left, prefs.right)
            for name in cut:
                lists = getattr(prefs, name)
                assert type(lists) is tuple and all(type(lst) is tuple for lst in lists)
                assert all(type(entry) is int for lst in lists for entry in lst)
                cut[name] += sum(len(lst) < size for lst in lists)
            for side in Side:
                matching = deferred_acceptance(prefs, side)
                assert matching == Matching(matching.pairs)
                assert all(type(index) is int for pair in matching.pairs for index in pair)
    assert cut["left"] > 0 and cut["right"] > 0  # both sides were truncated


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


def test_deferred_acceptance_refuses_a_side_that_is_not_a_side_member():
    # Side is an IntEnum, so 0 equals Side.LEFT; it must not run right-proposing
    prefs = preferences_from_values(
        EXAMPLE_VALUES,
        -EXAMPLE_VALUES.T,
        (EXAMPLE_OUTSIDE, EXAMPLE_OUTSIDE),
        (EXAMPLE_OUTSIDE, EXAMPLE_OUTSIDE),
    )
    for side in (0, 1, "left", None):
        with pytest.raises(InputError, match=f"^unknown proposing side {side!r}$"):
            deferred_acceptance(prefs, side)


def test_deferred_acceptance_on_sparse_lists_allocates_by_the_lists():
    # 2000 agents a side, one non-empty list a side: the rank lists must not be 2000 x 2000
    n = 2000
    for left_list, right_list, expected in (
        ((0, 7), (3, 1999), ((1999, 7),)),  # 1999 is absent from right 0's empty list, ranked by right 7
        ((7,), (3,), ()),  # 1999 lies past the end of right 7's list: absent, not ranked
    ):
        left, right = [()] * n, [()] * n
        left[1999], right[7] = left_list, right_list
        prefs = PreferenceProfile(left, right)
        for side in Side:
            tracemalloc.start()
            try:
                matching = deferred_acceptance(prefs, side)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert matching.pairs == expected
            assert peak < 1_000_000


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


@pytest.mark.parametrize(
    ("left", "right", "error", "message"),
    [
        (((0, 1, 0),), ((0,), (0,)), InputError, "left preference list repeats an entry: (0, 1, 0)"),
        (((0,),), ((0, 0),), InputError, "right preference list repeats an entry: (0, 0)"),
        (((-1,),), ((0,),), DimensionError, "left preference list (-1,) references index out of range"),
        (((0, 1),), ((0,),), DimensionError, "left preference list (0, 1) references index out of range"),
        (((0,),), ((-1,),), DimensionError, "right preference list (-1,) references index out of range"),
        (((0,),), ((1, 0),), DimensionError, "right preference list (1, 0) references index out of range"),
        # a repeat is reported before a range fault, and left lists before right ones
        (((2, 2),), ((0,),), InputError, "left preference list repeats an entry: (2, 2)"),
        (((1,),), ((0, 0),), DimensionError, "left preference list (1,) references index out of range"),
    ],
    ids=[
        "left-repeat", "right-repeat", "left-negative", "left-bound", "right-negative", "right-bound",
        "repeat-before-range", "left-before-right",
    ],
)
def test_preference_profile_refusals_keep_their_messages(left, right, error, message):
    with pytest.raises(InputError) as info:
        PreferenceProfile(left, right)
    assert type(info.value) is error and str(info.value) == message


def _instance(**fields) -> MarketInstance:
    sizes = {"p": 2, "a": 2, "m": 2, "k": 2, **fields}
    return MarketInstance(games=np.zeros((2, 2, 2, 2)), left_outside=(0.0, 0.0), right_outside=(0.0, 0.0), **sizes)


@pytest.mark.parametrize(
    ("build", "field"),
    [
        (lambda: Matching(((2.7, 0), (True, 1))), "matched index"),
        (lambda: Matching(((0, True),)), "matched index"),
        (lambda: PreferenceProfile(((1.9, 0), ()), ((0,), (1,))), "left preference list entry"),
        (lambda: PreferenceProfile(((1, 0), ()), ((0,), (True,))), "right preference list entry"),
        (lambda: AgentId.left(1.5), "agent index"),
        (lambda: AgentId.right(True), "agent index"),
        (lambda: AgentId.left(-1), "agent index"),
        (lambda: _instance(p=True), "p"),
        (lambda: _instance(k=2.0), "k"),
        (lambda: _instance(seed=-5), "seed"),
        (lambda: _instance(seed=1.5), "seed"),
    ],
    ids=[
        "matching-float", "matching-bool", "left-list-float", "right-list-bool", "agent-float",
        "agent-bool", "agent-negative", "instance-bool", "instance-float", "seed-negative", "seed-float",
    ],
)
def test_constructors_refuse_rather_than_truncate(build, field):
    for _ in range(2):  # a cached id never stands in for a refused index
        AgentId.left(1), AgentId.right(1)
        with pytest.raises(InputError, match=f"^{field} must be "):
            build()


@pytest.mark.parametrize(
    ("build", "error", "message"),
    [
        (lambda: UtilityTable(np.zeros((2, 2, 2)), np.zeros((2, 2)), np.zeros(2), np.zeros(2)),
         DimensionError, "left (2, 2, 2)"),
        (lambda: preferences_from_values(np.zeros((2, 2, 2)), np.zeros((2, 2)), np.zeros(2), np.zeros(2)),
         DimensionError, "left (2, 2, 2)"),
        (lambda: UtilityTable([[0.0]], [["x"]], [0.0], [0.0]), InputError, "right must hold real numbers"),
        (lambda: Matching(((0, 1, 2),)), DimensionError, "a matched pair must hold two indices"),
        (lambda: Matching((1,)), InputError, "matched index rows must be sequences"),
        (lambda: PreferenceProfile(left=(0,), right=()), InputError, "left preference list entry rows must be sequences"),
        (lambda: MarketInstance(p=1, a=1, m=1, k=1, games=[[[["x"]]]], left_outside=(0.0,), right_outside=(0.0,)),
         InputError, "games must hold real numbers"),
        (lambda: MarketInstance(p=1, a=1, m=1, k=1, games=np.zeros((1, 1, 1, 1)), left_outside=(0.0,), right_outside=["x"]),
         InputError, "right_outside must hold real numbers"),
        (lambda: MarketInstance(p=1, a=1, m=1, k=1, games=[[[[True]]]], left_outside=[False], right_outside=[0.0]),
         InputError, "games must hold real numbers, not bools"),
        (lambda: MarketInstance(p=1, a=1, m=1, k=1, games=np.zeros((1, 1, 1, 1)), left_outside=[False], right_outside=[0.0]),
         InputError, "left_outside must hold real numbers, not bools"),
        (lambda: MarketInstance(p=1, a=1, m=1, k=1, games=np.ones((1, 1, 1, 1), dtype=bool), left_outside=[0.0],
                                right_outside=[0.0]),
         InputError, "games must hold real numbers, not bools"),
        (lambda: MarketInstance(p=1, a=1, m=1, k=1, games=np.zeros((1, 1, 1, 1)), left_outside=np.float64(0.0),
                                right_outside=np.False_),
         InputError, "right_outside must hold real numbers, not bools"),
        (lambda: UtilityTable([[True]], [[False]], [True], [0.0]), InputError, "left must hold real numbers, not bools"),
        (lambda: UtilityTable([[0.5, 1.0]], [[0.0], (np.True_,)], [0.0], [0.0, 0.0]),
         InputError, "right must hold real numbers, not bools"),
        (lambda: UtilityTable(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros(1), np.zeros(1, dtype=bool)),
         InputError, "right_outside must hold real numbers, not bools"),
        (lambda: UtilityTable([np.array([True])], [[0.0]], [0.0], [0.0]), InputError,
         "left must hold real numbers, not bools"),
        (lambda: preferences_from_values(np.zeros((2, 2)), np.zeros((2, 2)), (0.0, False), np.zeros(2)),
         InputError, "left_outside must hold real numbers, not bools"),
    ],
    ids=[
        "table-3d", "preferences-3d", "table-string", "matching-triple", "matching-flat", "profile-flat",
        "instance-string-game", "instance-string-outside", "instance-bool-game", "instance-bool-outside",
        "instance-bool-array", "instance-numpy-bool", "table-bool", "table-numpy-bool-in-tuple",
        "table-bool-array", "table-bool-array-in-a-list", "preferences-bool-outside",
    ],
)
def test_constructors_refuse_malformed_input_with_a_typed_error(build, error, message):
    with pytest.raises(InputError) as info:
        build()
    assert type(info.value) is error and message in str(info.value)


def test_constructors_read_numpy_integers():
    one, two = np.int64(1), np.int32(2)
    matching = Matching(((one, 0), (0, two)))
    assert matching.pairs == ((0, 2), (1, 0))
    prefs = PreferenceProfile(np.array([[1, 0], [0, 1]]), [(one,), (0, one)])
    assert prefs == PreferenceProfile(((1, 0), (0, 1)), ((1,), (0, 1)))
    assert str(AgentId.left(two)) == "L2" and AgentId.left(two) == AgentId.left(2)
    instance = _instance(p=np.int64(2), seed=np.uint8(3))
    for value in (*matching.pairs[0], *prefs.left[0], AgentId.left(two).index, instance.p, instance.seed):
        assert type(value) is int


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


@pytest.mark.parametrize(
    ("bad", "message"),
    [("1", "a real number"), (None, "a real number"), ([1.0], "a real number"), (True, "a real number"),
     (10**400, "finite"), (float("-inf"), "finite")],
)
def test_generate_instance_refuses_an_outside_option_that_is_not_a_finite_real(bad, message):
    with pytest.raises(InputError, match=f"^outside_option must be {message}, got "):
        generate_instance(2, 2, 2, 2, outside_option=bad)


def test_instance_holds_a_read_only_copy_of_its_games():
    games = np.arange(16.0).reshape(2, 2, 2, 2)
    instance = MarketInstance(
        p=2, a=2, m=2, k=2, games=games, left_outside=(-1.0, -1.0), right_outside=(-1.0, -1.0)
    )
    assert not instance.games.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        instance.games[0, 0, 0, 0] = 1.0
    assert games.flags.writeable
    games[0, 0, 0, 0] = 99.0
    assert instance.games[0, 0, 0, 0] == 0.0


def test_instance_holds_read_only_copies_of_its_outside_options():
    left_outside, right_outside = np.full(2, -1.0), np.full(3, -1.0)
    instance = MarketInstance(
        p=2, a=3, m=1, k=1, games=np.zeros((2, 3, 1, 1)),
        left_outside=left_outside, right_outside=right_outside,
    )
    assert instance.left_outside is not left_outside
    left_outside[0] = 5.0
    right_outside[1] = 7.0
    assert instance.left_outside.tolist() == [-1.0, -1.0]
    assert instance.right_outside.tolist() == [-1.0, -1.0, -1.0]
    for array in (instance.left_outside, instance.right_outside):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[1] = float("nan")
    # a scalar outside option is spread over the side, still read-only
    scalar = MarketInstance(
        p=1, a=1, m=1, k=1, games=np.zeros((1, 1, 1, 1)), left_outside=-1.0, right_outside=-1.0
    )
    assert scalar.left_outside.shape == (1,) and not scalar.left_outside.flags.writeable


@pytest.mark.parametrize("read_values", [False, True])
def test_unpickled_instance_is_rebuilt_read_only(read_values):
    instance = generate_instance(2, 3, 2, 2, seed=4)
    if read_values:
        instance.game_values
    copy = pickle.loads(pickle.dumps(instance))
    assert "game_values" not in vars(copy)  # the cache is not carried over
    for name in ("games", "left_outside", "right_outside"):
        assert not getattr(copy, name).flags.writeable
        assert getattr(copy, name).tobytes() == getattr(instance, name).tobytes()
    assert (copy.p, copy.a, copy.m, copy.k, copy.generator, copy.seed) == (2, 3, 2, 2, instance.generator, 4)
    assert not copy.game_values.flags.writeable
    assert copy.game_values.tobytes() == instance.game_values.tobytes()


@pytest.mark.parametrize("sizes", [(3, 2, 2, 3), (4, 4, 2, 2)], ids=["game-by-game", "stacked"])
def test_game_values_are_solved_once_and_read_only(monkeypatch, sizes):
    calls = []
    monkeypatch.setattr(market, "maximin", lambda game: calls.append(np.shape(game)) or maximin(game))
    instance = generate_instance(*sizes, seed=8)
    m, k = sizes[2:]
    uniform = {AgentId.left(0): np.full(m, 1.0 / m), AgentId.right(1): np.full(k, 1.0 / k)}
    for _ in range(3):
        matching_instability(instance, Matching(((0, 1),)), uniform)
    for policy in Policy:
        run_episode(instance, policy, 5, seed=8)
    assert calls == [sizes]
    values = instance.game_values
    assert values.tobytes() == maximin(instance.games)[0].tobytes()
    assert values.shape == sizes[:2] and not values.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        values[0, 0] = 1.0


@pytest.mark.parametrize(
    ("sizes", "seed", "field"),
    [((2.0, 2, 2, 2), 0, "p"), ((2, 2, True, 2), 0, "m"), ((2, 2, 2, 2.5), 0, "k"),
     ((2, 2, 2, 2), -3, "seed"), ((2, 2, 2, 2), 1.5, "seed"), ((2, 2, 2, 2), True, "seed"),
     ((2, 2, 2, 2), None, "seed")],
)
def test_generate_instance_refuses_non_integral_sizes_and_seeds(sizes, seed, field):
    with pytest.raises(InputError, match=f"^{field} must be "):
        generate_instance(*sizes, seed=seed)


def test_generate_instance_takes_numpy_integers():
    instance = generate_instance(np.int64(2), 2, np.int32(3), 2, seed=np.int64(5))
    expected = generate_instance(2, 2, 3, 2, seed=5)
    assert type(instance.seed) is int and type(instance.p) is int
    assert instance.games.tobytes() == expected.games.tobytes()


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


@pytest.mark.parametrize(
    "field, shape, shapes",
    [("right", (2, 3), "left (2, 3), right (2, 3), outside (2,)/(3,)"),
     ("left_outside", (3,), "left (2, 3), right (3, 2), outside (3,)/(3,)"),
     ("right_outside", (2,), "left (2, 3), right (3, 2), outside (2,)/(2,)")],
)
def test_utility_table_refuses_shapes_that_disagree(field, shape, shapes):
    tables = {
        "left": np.zeros((2, 3)),
        "right": np.zeros((3, 2)),
        "left_outside": np.zeros(2),
        "right_outside": np.zeros(3),
    }
    tables[field] = np.zeros(shape)
    with pytest.raises(DimensionError) as info:
        UtilityTable(**tables)
    assert str(info.value) == f"utility table shapes disagree: {shapes}"


def test_generate_instance_refuses_an_unknown_generator():
    with pytest.raises(InputError) as info:
        generate_instance(1, 1, 2, 2, generator="uniform-signed")
    assert str(info.value) == "unknown generator 'uniform-signed'"
