"""Every public entry that reads numbers reads them by one rule (errors.check_reals).

A numeric string, a bool of either kind, a bool array nested in a list, null
and an integer beyond the float range are each refused with a typed error
that names the field, whether they come in as Python objects, as JSON
documents or on the command line.
"""

import json

import numpy as np
import pytest

from matchgames.cli import main
from matchgames.errors import FormatError, InputError, check_reals
from matchgames.formats import read_instance, read_strategy_profile
from matchgames.games import best_response, maximin, solve_game
from matchgames.instability import matching_instability
from matchgames.market import AgentId, MarketInstance, Matching, UtilityTable, preferences_from_values

# each bad entry, and the words of the refusal that says why
BAD = {
    "numeric-string": ("1.5", "not strings"),
    "bool": (True, "not bools"),
    "numpy-bool": (np.True_, "not bools"),
    "bool-array-in-a-list": (np.array(True), "not bools"),  # 0-d, so every shape still fits
    "null": (None, "null"),
    "beyond-float": (10**400, "beyond the float range"),
}


def _instance(games=((((0.5,),),),), left=(-1.0,)) -> MarketInstance:
    return MarketInstance(p=1, a=1, m=1, k=1, games=games, left_outside=left, right_outside=(-1.0,))


def _json(path, document) -> str:
    # a numpy bool or array is written as the JSON it stands for
    path.write_text(json.dumps(document, default=lambda item: item.tolist()))
    return str(path)


def _read_instance(tmp_path, x):
    document = {
        "format": "market-instance", "version": 1, "p": 1, "a": 1, "m": 1, "k": 1,
        "games": [[[[x]]]], "outside_options": {"left": [-1.0], "right": [-1.0]},
    }
    return read_instance(_json(tmp_path / "instance.json", document))


def _read_strategy_profile(tmp_path, x):
    document = {"format": "strategy-profile", "version": 1, "left": {"0": [x]}, "right": {}}
    return read_strategy_profile(_json(tmp_path / "strategies.json", document))


# each entry with the bad entry x placed in one of its numeric inputs, the
# error it must raise, and the field its message must name
ENTRIES = {
    "MarketInstance-games": (lambda tmp_path, x: _instance(games=[[[[x]]]]), InputError, "games"),
    "MarketInstance-outside": (lambda tmp_path, x: _instance(left=[x]), InputError, "left_outside"),
    "UtilityTable": (lambda tmp_path, x: UtilityTable([[x]], [[0.0]], [0.0], [0.0]), InputError, "left"),
    "preferences_from_values": (
        lambda tmp_path, x: preferences_from_values([[0.0]], [[0.0]], [0.0], [x]), InputError, "right_outside"
    ),
    "maximin": (lambda tmp_path, x: maximin([[x]]), InputError, "payoff matrix"),
    "solve_game": (lambda tmp_path, x: solve_game([[x]]), InputError, "payoff matrix"),
    "best_response-game": (lambda tmp_path, x: best_response([[x]], [1.0]), InputError, "payoff matrix"),
    "best_response-strategy": (lambda tmp_path, x: best_response([[0.5]], [x]), InputError, "strategy"),
    "matching_instability": (
        lambda tmp_path, x: matching_instability(
            _instance(), Matching(((0, 0),)), {AgentId.left(0): [x], AgentId.right(0): [1.0]}
        ),
        InputError,
        "strategy",
    ),
    "read_instance": (_read_instance, FormatError, "field 'games'"),
    "read_strategy_profile": (_read_strategy_profile, FormatError, "left agent '0'"),
}


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("entry", ENTRIES)
def test_every_entry_refuses_what_is_not_a_real_number(tmp_path, entry, bad):
    build, error, field = ENTRIES[entry]
    value, reason = BAD[bad]
    with pytest.raises(error) as raised:
        build(tmp_path, value)
    assert field in str(raised.value) and reason in str(raised.value)


@pytest.mark.parametrize("bad", BAD)
def test_solve_game_command_refuses_what_is_not_a_real_number(capsys, bad):
    value, reason = BAD[bad]
    matrix = json.dumps([[value]], default=lambda item: item.tolist())
    assert main(["solve-game", "--matrix", matrix]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "payoff matrix" in captured.err and reason in captured.err


@pytest.mark.parametrize(
    "value",
    [np.array([0.25, 0.75]), [0.25, 0.75], (1, 0), [2**70, -(2**64)], np.array([1, 0], dtype=np.int32),
     np.array([0.5], dtype=np.float32), np.array([2**70, 0.5], dtype=object), -0.0, 5e-324, [],
     [2**70, np.float64(0.5)], [2**70, np.int64(3)], [2**70, np.float32(0.5)]],
    ids=["float64", "list", "int-tuple", "beyond-int64", "int32", "float32", "object", "negative-zero", "subnormal",
         "empty", "beyond-int64-numpy-float64", "beyond-int64-numpy-int64", "beyond-int64-numpy-float32"],
)
def test_check_reals_reads_numbers_as_float64_to_the_bit(value):
    array = check_reals("x", value)
    expected = np.array([float(item) for item in np.ravel(np.asarray(value, dtype=object))]).reshape(np.shape(value))
    assert array.dtype == np.float64 and array.tobytes() == expected.tobytes()


def test_check_reals_returns_a_float64_array_as_it_is():
    array = np.zeros((2, 3))
    assert check_reals("x", array) is array


@pytest.mark.parametrize(
    ("value", "reason"),
    [(np.array([True, False]), "not bools"), ([[0.5], np.array([False])], "not bools"),
     (np.array([0.5, True], dtype=object), "not bools"), ([1j], "complex"), ({"a": 1.0}, "objects"),
     ([[1.0], [2.0, 3.0]], "regular array"), ([2**70, np.True_], "not bools")],
    ids=["bool-array", "nested-bool-array", "object-array-bool", "complex", "object", "ragged",
         "beyond-int64-numpy-bool"],
)
def test_check_reals_refuses_with_an_input_error_naming_the_field(value, reason):
    with pytest.raises(InputError, match=f"^the field .*{reason}"):
        check_reals("the field", value)
