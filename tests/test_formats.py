"""JSON document codecs: lossless round trips and located error messages."""

import json
import re

import numpy as np
import pytest
from conftest import build_example_market

from matchgames.errors import FormatError
from matchgames.formats import (
    read_instance,
    read_matching,
    read_preferences,
    read_strategy_profile,
    write_instance,
    write_matching,
    write_preferences,
    write_report,
    write_strategy_profile,
)
from matchgames.market import (
    AgentId,
    Generator,
    Matching,
    PreferenceProfile,
    generate_instance,
)


def test_instance_round_trip_is_lossless(tmp_path):
    instance = generate_instance(2, 3, 2, 4, generator=Generator.UNIFORM_SIGNED, seed=17)
    path = tmp_path / "instance.json"
    write_instance(instance, path)
    loaded = read_instance(path)
    assert (loaded.games == instance.games).all()
    assert (loaded.left_outside == instance.left_outside).all()
    assert (loaded.right_outside == instance.right_outside).all()
    assert loaded.generator is Generator.UNIFORM_SIGNED
    assert loaded.seed == 17


def test_instance_without_provenance_round_trips(tmp_path):
    instance = build_example_market()
    path = tmp_path / "instance.json"
    write_instance(instance, path)
    loaded = read_instance(path)
    assert loaded.generator is None
    assert loaded.seed is None
    assert (loaded.games == instance.games).all()


def test_matching_round_trip(tmp_path):
    path = tmp_path / "matching.json"
    write_matching(Matching(((2, 0), (0, 1))), path)
    assert read_matching(path).pairs == ((0, 1), (2, 0))
    write_matching(Matching(()), path)
    assert read_matching(path).pairs == ()


def test_strategy_profile_round_trip(tmp_path):
    profile = {
        AgentId.left(0): np.array([0.25, 0.75]),
        AgentId.right(2): np.array([1.0]),
    }
    path = tmp_path / "strategies.json"
    write_strategy_profile(profile, path)
    loaded = read_strategy_profile(path)
    assert set(loaded) == set(profile)
    for agent, vector in profile.items():
        assert (loaded[agent] == vector).all()


def test_preferences_round_trip(tmp_path):
    prefs = PreferenceProfile(
        ((1, 0), ()),
        ((0,), (1, 0)),
        left_threshold=(-0.5, 0.25),
        right_threshold=(0.0, 0.0),
    )
    path = tmp_path / "prefs.json"
    write_preferences(prefs, path)
    loaded = read_preferences(path)
    assert loaded == prefs


def test_preferences_thresholds_default_to_zero(tmp_path):
    path = tmp_path / "prefs.json"
    document = {
        "format": "preferences",
        "version": 1,
        "left": [[0]],
        "right": [[0]],
    }
    path.write_text(json.dumps(document))
    loaded = read_preferences(path)
    assert loaded.left_threshold == (0.0,)
    assert loaded.right_threshold == (0.0,)


@pytest.mark.parametrize("side", ["left", "right"])
def test_non_list_preferences_rejected(tmp_path, side):
    path = tmp_path / "prefs.json"
    document = {"format": "preferences", "version": 1, "left": [], "right": []}
    document[side] = 5
    path.write_text(json.dumps(document))
    with pytest.raises(FormatError, match="bad preference lists"):
        read_preferences(path)


def test_malformed_json_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "format": "matching",\n  oops\n}')
    with pytest.raises(FormatError, match=r"line 3 column 3"):
        read_matching(path)


def test_wrong_format_name_rejected(tmp_path):
    path = tmp_path / "wrong.json"
    write_matching(Matching(((0, 0),)), path)
    with pytest.raises(FormatError, match="'format'"):
        read_instance(path)


def test_wrong_version_rejected(tmp_path):
    path = tmp_path / "old.json"
    write_matching(Matching(((0, 0),)), path)
    document = json.loads(path.read_text())
    document["version"] = 99
    path.write_text(json.dumps(document))
    with pytest.raises(FormatError, match="'version'"):
        read_matching(path)


def test_missing_field_names_the_field(tmp_path):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"format": "matching", "version": 1}))
    with pytest.raises(FormatError, match="'pairs'"):
        read_matching(path)


def test_overlapping_pairs_rejected_with_path(tmp_path):
    path = tmp_path / "overlap.json"
    path.write_text(
        json.dumps({"format": "matching", "version": 1, "pairs": [[0, 0], [0, 1]]})
    )
    with pytest.raises(FormatError, match="overlap"):
        read_matching(path)


def test_bad_strategy_vector_rejected(tmp_path):
    path = tmp_path / "strategies.json"
    path.write_text(
        json.dumps(
            {
                "format": "strategy-profile",
                "version": 1,
                "left": {"0": [[0.5], [0.5]]},
                "right": {},
            }
        )
    )
    with pytest.raises(FormatError, match="left agent '0'"):
        read_strategy_profile(path)


def test_unknown_generator_rejected(tmp_path):
    instance = generate_instance(1, 1, 1, 1, seed=3)
    path = tmp_path / "instance.json"
    write_instance(instance, path)
    document = json.loads(path.read_text())
    document["generator"] = "mystery"
    path.write_text(json.dumps(document))
    with pytest.raises(FormatError, match="mystery"):
        read_instance(path)


def test_report_document_shape(tmp_path):
    path = tmp_path / "report.json"
    write_report(
        {
            "format": "instability-report",
            "version": 1,
            "value": 0.0,
            "subsidies": {},
            "active_pairs": [],
            "binding": {},
        },
        path,
    )
    document = json.loads(path.read_text())
    assert document["format"] == "instability-report"
    assert path.read_text().endswith("\n")


def _document(tmp_path, name: str, document: dict):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return path


@pytest.mark.parametrize("pairs", [[[0.9, 1]], [[0, 1.5]], [[True, 0]], [[1, False]], [["0", 1]]])
def test_matching_index_must_be_whole(tmp_path, pairs):
    path = _document(tmp_path, "matching.json", {"format": "matching", "version": 1, "pairs": pairs})
    with pytest.raises(FormatError, match="'pairs'.*not a whole number"):
        read_matching(path)


def test_matching_integral_float_index_is_read(tmp_path):
    document = {"format": "matching", "version": 1, "pairs": [[1.0, 0.0]]}
    assert read_matching(_document(tmp_path, "matching.json", document)).pairs == ((1, 0),)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("entry", [0.7, False])
def test_preference_index_must_be_whole(tmp_path, side, entry):
    document = {"format": "preferences", "version": 1, "left": [[0]], "right": [[0]]}
    document[side] = [[entry]]
    path = _document(tmp_path, "prefs.json", document)
    with pytest.raises(FormatError, match=f"'{side}'.*not a whole number"):
        read_preferences(path)


@pytest.mark.parametrize(("field", "value"), [("p", 1.9), ("a", True), ("m", "x"), ("k", None)])
def test_instance_dimension_must_be_whole(tmp_path, field, value):
    path = tmp_path / "instance.json"
    write_instance(generate_instance(1, 1, 1, 1, seed=3), path)
    document = json.loads(path.read_text())
    document[field] = value
    path.write_text(json.dumps(document))
    with pytest.raises(FormatError, match=f"field '{field}' must be a whole number"):
        read_instance(path)


@pytest.mark.parametrize("seed", ["abc", "7", 1.5, True, [1]])
def test_instance_seed_must_be_whole(tmp_path, seed):
    path = tmp_path / "instance.json"
    write_instance(generate_instance(1, 1, 1, 1, seed=3), path)
    document = json.loads(path.read_text())
    document["seed"] = seed
    path.write_text(json.dumps(document))
    with pytest.raises(FormatError, match="field 'seed' must be a whole number"):
        read_instance(path)


@pytest.mark.parametrize(("seed", "expected"), [(None, None), (7, 7), (7.0, 7)])
def test_instance_seed_is_null_or_whole(tmp_path, seed, expected):
    path = _document(tmp_path, "instance.json", _instance_document(seed=seed))
    loaded = read_instance(path)
    assert loaded.seed == expected and type(loaded.seed) is type(expected)
    write_instance(loaded, path)
    assert json.loads(path.read_text())["seed"] == expected


@pytest.mark.parametrize("alias", ["01", "+1", " 1", "1_0", "-0"])
def test_strategy_key_must_be_a_plain_index(tmp_path, alias):
    document = {
        "format": "strategy-profile",
        "version": 1,
        "left": {"1": [1.0], alias: [1.0]},
        "right": {},
    }
    path = _document(tmp_path, "strategies.json", document)
    with pytest.raises(FormatError, match=re.escape(f"left agent '{alias}'")):
        read_strategy_profile(path)


def _instance_document(**changes) -> dict:
    document = {
        "format": "market-instance",
        "version": 1,
        "p": 1, "a": 1, "m": 1, "k": 2,
        "games": [[[[0.5, -0.5]]]],
        "outside_options": {"left": [-1.0], "right": [-1.0]},
    }
    document.update(changes)
    return document


@pytest.mark.parametrize(
    ("reader", "document", "field", "refused"),
    [
        (read_instance, _instance_document(games=[[[[0.5, True]]]]), "field 'games'", "true or false"),
        (read_instance, _instance_document(games=[[[[False, 1.0]]]]), "field 'games'", "true or false"),
        (read_instance, _instance_document(outside_options={"left": [False], "right": [-1.0]}),
         "field 'outside_options.left'", "true or false"),
        (read_instance, _instance_document(outside_options={"left": [-1.0], "right": True}),
         "field 'outside_options.right'", "true or false"),
        (read_strategy_profile, {"format": "strategy-profile", "version": 1, "left": {"0": [True]}, "right": {}},
         "left agent '0'", "true or false"),
        (read_strategy_profile,
         {"format": "strategy-profile", "version": 1, "left": {}, "right": {"1": [0.0, False, 1.0]}},
         "right agent '1'", "true or false"),
        (read_preferences,
         {"format": "preferences", "version": 1, "left": [[0]], "right": [[0]], "left_threshold": [True]},
         "field 'left_threshold'", "true or false"),
        (read_preferences,
         {"format": "preferences", "version": 1, "left": [[0]], "right": [[0]], "right_threshold": False},
         "field 'right_threshold'", "true or false"),
        # a string is refused, not parsed, even when it spells a number
        (read_instance, _instance_document(games=[[[["0.5", "-0.5"]]]]), "field 'games'", "strings"),
        (read_instance, _instance_document(games=[[[[0.5, "-0.5"]]]]), "field 'games'", "strings"),
        (read_instance, _instance_document(outside_options={"left": ["-1"], "right": [-1.0]}),
         "field 'outside_options.left'", "strings"),
        (read_instance, _instance_document(outside_options={"left": [-1.0], "right": "-1"}),
         "field 'outside_options.right'", "strings"),
        (read_strategy_profile, {"format": "strategy-profile", "version": 1, "left": {"0": ["1"]}, "right": {}},
         "left agent '0'", "strings"),
        (read_preferences,
         {"format": "preferences", "version": 1, "left": [[0]], "right": [[0]], "left_threshold": ["0.25"]},
         "field 'left_threshold'", "strings"),
        (read_preferences,
         {"format": "preferences", "version": 1, "left": [[0]], "right": [[0]], "right_threshold": "0"},
         "field 'right_threshold'", "strings"),
    ],
    ids=[
        "games-true", "games-false", "outside-left", "outside-right",
        "strategy-left", "strategy-right", "left-threshold", "right-threshold",
        "games-strings", "games-string", "outside-left-string", "outside-right-string",
        "strategy-left-string", "left-threshold-string", "right-threshold-string",
    ],
)
def test_bool_is_not_read_as_a_number(tmp_path, reader, document, field, refused):
    path = _document(tmp_path, "document.json", document)
    with pytest.raises(FormatError, match=re.escape(field) + ".*not " + refused):
        reader(path)


def test_integers_beyond_int64_are_read_as_numbers(tmp_path):
    # numpy holds such an integer as a Python object, so it is checked item by item
    document = _instance_document(games=[[[[2**70, 0.5]]]], outside_options={"left": [-1], "right": [-(2**64)]})
    instance = read_instance(_document(tmp_path, "instance.json", document))
    assert instance.games.tolist() == [[[[float(2**70), 0.5]]]]
    assert instance.right_outside.tolist() == [-float(2**64)]
    document = _instance_document(games=[[[[10**400, 0.5]]]])
    with pytest.raises(FormatError, match="field 'games' holds a number beyond the float range"):
        read_instance(_document(tmp_path, "huge.json", document))


def test_numbers_equal_to_one_and_zero_are_read(tmp_path):
    # 1.0 and 0.0 are what a bool would become, so they are searched, not refused
    document = _instance_document(games=[[[[1, 0.0]]]], outside_options={"left": [0], "right": [1.0]})
    instance = read_instance(_document(tmp_path, "instance.json", document))
    assert instance.games.tolist() == [[[[1.0, 0.0]]]]
    assert instance.left_outside.tolist() == [0.0] and instance.right_outside.tolist() == [1.0]
    profile = {"format": "strategy-profile", "version": 1, "left": {"0": [0, 1]}, "right": {}}
    assert read_strategy_profile(_document(tmp_path, "s.json", profile))[AgentId.left(0)].tolist() == [0.0, 1.0]


def test_bool_version_rejected(tmp_path):
    # true == 1, so the version comparison alone would take it
    path = _document(tmp_path, "matching.json", {"format": "matching", "version": True, "pairs": []})
    with pytest.raises(FormatError, match="field 'version' is True, expected 1"):
        read_matching(path)
