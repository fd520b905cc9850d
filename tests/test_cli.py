"""Command-line interface: exit codes, JSON output, config merging."""

import json
import subprocess
import sys

import numpy as np
import pytest
from conftest import build_example_market, build_example_profile

from matchgames.cli import entry, main
from matchgames.experiments import ExperimentConfig
from matchgames.formats import (
    read_instance,
    read_preferences,
    write_instance,
    write_matching,
    write_preferences,
    write_strategy_profile,
)
from matchgames.games import oracle_solve_game
from matchgames.market import AgentId, Matching, PreferenceProfile, generate_instance


@pytest.fixture
def audit_files(tmp_path):
    instance_path = tmp_path / "instance.json"
    matching_path = tmp_path / "matching.json"
    strategies_path = tmp_path / "strategies.json"
    write_instance(build_example_market(), instance_path)
    write_matching(Matching(((0, 0), (1, 1))), matching_path)
    write_strategy_profile(build_example_profile(), strategies_path)
    return str(instance_path), str(matching_path), str(strategies_path)


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_bound_prints_frozen_value(capsys):
    assert main(["bound", "--t", "1", "--p", "1", "--a", "1", "--m", "1", "--k", "1"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record == {"t": 1, "bound": 6.709640090061899}


def test_bound_too_large_for_a_float_is_an_input_error(capsys):
    assert main(["bound", "--t", "1" + "0" * 400, "--p", "1", "--a", "1", "--m", "1", "--k", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: t is too large for a float\n"


def test_solve_game_inline_matrix(capsys):
    assert main(["solve-game", "--matrix", "[[1,-1],[-1,1]]"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["value"] == 0.0
    assert record["row_strategy"] == pytest.approx([0.5, 0.5], abs=1e-12)


def test_solve_game_requires_exactly_one_source(capsys, tmp_path):
    assert main(["solve-game"]) == 2
    path = tmp_path / "game.json"
    path.write_text("[[0.0]]")
    assert main(["solve-game", "--matrix", "[[0]]", "--file", str(path)]) == 2
    assert main(["solve-game", "--file", str(path)]) == 0
    capsys.readouterr()


def test_solve_game_rejects_ragged_matrix(capsys):
    assert main(["solve-game", "--matrix", "[[1,2],[3]]"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("source", "matrix", "refused"),
    [
        ("--matrix", "[[true, false], [false, true]]", "true or false"),
        ("--file", "[[true, false], [false, true]]", "true or false"),
        ("--matrix", '[["1", "-1"], ["-1", "1"]]', "strings"),
        ("--file", '[["1", "-1"], ["-1", "1"]]', "strings"),
    ],
    ids=["--matrix", "--file", "--matrix-strings", "--file-strings"],
)
def test_solve_game_refuses_bool_entries(tmp_path, capsys, source, matrix, refused):
    if source == "--file":
        path = tmp_path / "game.json"
        path.write_text(matrix)
        matrix = str(path)
    assert main(["solve-game", source, matrix]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "matrix" in captured.err and refused in captured.err


@pytest.mark.parametrize("command", ["matrix", "file", "config"])
def test_json_syntax_errors_name_the_source_and_position(tmp_path, capsys, command):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "p": 1,\n  oops\n}')
    argv, where = {
        "matrix": (["solve-game", "--matrix", "[[1, 2],"], "--matrix: line 1 column 9: "),
        "file": (["solve-game", "--file", str(path)], f"{path}: line 3 column 3: "),
        "config": (["simulate", "--config", str(path)], f"{path}: line 3 column 3: "),
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {where}")


def test_solve_game_rescaled_matrix_solves(capsys):
    # the kernel normalises the payoffs' scale, so 1e9-sized payoffs solve too
    base = np.random.default_rng(0).uniform(-1, 1, size=(3, 4))
    matrix = base * 1e9
    assert main(["solve-game", "--matrix", json.dumps(matrix.tolist())]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["value"] == pytest.approx(1e9 * oracle_solve_game(base).value, rel=1e-9)


def test_solve_game_solver_failure_is_input_error(capsys, monkeypatch):
    def failing_solve_lp(B):
        raise RuntimeError("entering column 0 has no positive entry")

    monkeypatch.setattr("matchgames.games.solve_lp", failing_solve_lp)
    assert main(["solve-game", "--matrix", "[[1,-1],[-1,1]]"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: game solver failed") and err.count("\n") == 1
    assert "magnitude" in err


def test_gen_instance_defaults_are_generate_instance_defaults(tmp_path, capsys):
    out = tmp_path / "instance.json"
    assert main(["gen-instance", "--p", "2", "--a", "2", "--m", "2", "--k", "2", "--output", str(out)]) == 0
    capsys.readouterr()
    expected = tmp_path / "expected.json"
    write_instance(generate_instance(2, 2, 2, 2), expected)
    assert out.read_bytes() == expected.read_bytes()


def test_gen_instance_round_trips(tmp_path, capsys):
    out = tmp_path / "instance.json"
    argv = [
        "gen-instance", "--p", "2", "--a", "3", "--m", "2", "--k", "2",
        "--generator", "uniform-signed", "--seed", "11", "--output", str(out),
    ]
    assert main(argv) == 0
    instance = read_instance(out)
    assert instance.games.shape == (2, 3, 2, 2)
    assert instance.seed == 11
    capsys.readouterr()


def test_match_runs_deferred_acceptance(tmp_path, capsys):
    prefs_path = tmp_path / "prefs.json"
    write_preferences(PreferenceProfile(((0, 1), (0, 1)), ((0, 1), (0, 1))), prefs_path)
    out_path = tmp_path / "matched.json"
    assert main(["match", "--preferences", str(prefs_path), "--output", str(out_path)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["pairs"] == [[0, 0], [1, 1]]
    assert json.loads(out_path.read_text())["pairs"] == [[0, 0], [1, 1]]


def test_match_non_list_preferences_is_input_error(tmp_path, capsys):
    prefs_path = tmp_path / "prefs.json"
    prefs_path.write_text('{"format": "preferences", "version": 1, "left": 5, "right": []}')
    assert main(["match", "--preferences", str(prefs_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bad preference lists" in err


def test_match_fractional_preference_index_is_input_error(tmp_path, capsys):
    prefs_path = tmp_path / "prefs.json"
    prefs_path.write_text('{"format": "preferences", "version": 1, "left": [[0.7]], "right": [[0]]}')
    assert main(["match", "--preferences", str(prefs_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "'left'" in captured.err and "0.7" in captured.err


@pytest.mark.parametrize(
    ("document", "field"),
    [
        ("instance", "'p'"),
        ("instance", "'seed'"),
        ("matching", "'pairs'"),
        ("strategies", "'01'"),
    ],
)
def test_audit_truncating_integer_is_input_error(audit_files, tmp_path, capsys, document, field):
    paths = dict(zip(("instance", "matching", "strategies"), audit_files))
    record = json.loads(open(paths[document]).read())
    if field == "'seed'":
        record["seed"] = "abc"
    elif document == "instance":
        record["p"] = 2.5
    elif document == "matching":
        record["pairs"] = [[0.9, 0], [1, 1]]
    else:
        record["left"]["01"] = record["left"]["1"]
    paths[document] = str(tmp_path / f"bad_{document}.json")
    with open(paths[document], "w") as handle:
        json.dump(record, handle)
    argv = ["audit", *(f"--{name}={path}" for name, path in paths.items())]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and field in captured.err


@pytest.mark.parametrize(
    ("document", "field", "bad", "refused"),
    [
        ("instance", "'games'", True, "true or false"),
        ("instance", "'outside_options.right'", False, "true or false"),
        ("strategies", "left agent '1'", True, "true or false"),
        ("instance", "'games'", "1.0", "strings"),
        ("instance", "'outside_options.right'", "-0.5", "strings"),
        ("strategies", "left agent '1'", "1", "strings"),
    ],
    ids=[
        "instance-'games'", "instance-'outside_options.right'", "strategies-left agent '1'",
        "instance-'games'-string", "instance-'outside_options.right'-string",
        "strategies-left agent '1'-string",
    ],
)
def test_audit_bool_number_is_input_error(audit_files, tmp_path, capsys, document, field, bad, refused):
    paths = dict(zip(("instance", "matching", "strategies"), audit_files))
    record = json.loads(open(paths[document]).read())
    if field == "'games'":
        record["games"][0][1] = [[bad]]
    elif document == "instance":
        record["outside_options"]["right"][0] = bad
    else:
        record["left"]["1"] = [bad]
    paths[document] = str(tmp_path / f"bad_{document}.json")
    with open(paths[document], "w") as handle:
        json.dump(record, handle)
    argv = ["audit", *(f"--{name}={path}" for name, path in paths.items())]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and field in captured.err and refused in captured.err


def test_preferences_with_threshold_keys_read_and_match_as_before(tmp_path, capsys):
    # a preferences file as written before the profile dropped its thresholds
    lists = {"left": [[1, 0], [0]], "right": [[1, 0], [0, 1]]}
    plain, legacy = tmp_path / "plain.json", tmp_path / "legacy.json"
    plain.write_text(json.dumps({"format": "preferences", "version": 1, **lists}))
    legacy.write_text(json.dumps({"format": "preferences", "version": 1, **lists,
                                  "left_threshold": [-0.5, 0.25], "right_threshold": [0.0, 0.0]}))
    assert read_preferences(legacy) == read_preferences(plain) == PreferenceProfile(((1, 0), (0,)), ((1, 0), (0, 1)))
    printed = []
    for path in (plain, legacy):
        assert main(["match", "--preferences", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        printed.append(captured.out)
    assert printed[0] == printed[1] and json.loads(printed[0])["pairs"] == [[0, 1], [1, 0]]


def test_audit_reports_instability(audit_files, capsys):
    instance_path, matching_path, strategies_path = audit_files
    argv = [
        "audit",
        "--instance", instance_path,
        "--matching", matching_path,
        "--strategies", strategies_path,
    ]
    assert main(argv) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["value"] == 1.0
    assert record["subsidies"]["R0"] == 0.5


def test_audit_output_file_is_the_printed_record(audit_files, tmp_path, capsys):
    instance_path, matching_path, strategies_path = audit_files
    output = tmp_path / "report.json"
    argv = ["audit", "--instance", instance_path, "--matching", matching_path,
            "--strategies", strategies_path, "--output", str(output)]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert output.read_text() == printed
    assert json.loads(printed)["value"] == 1.0


def test_audit_missing_file_is_io_error(audit_files, capsys):
    _, matching_path, strategies_path = audit_files
    argv = [
        "audit",
        "--instance", "/nonexistent/instance.json",
        "--matching", matching_path,
        "--strategies", strategies_path,
    ]
    assert main(argv) == 3
    assert "error" in capsys.readouterr().err


def test_audit_malformed_file_is_input_error(audit_files, tmp_path, capsys):
    _, matching_path, strategies_path = audit_files
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    argv = [
        "audit",
        "--instance", str(bad),
        "--matching", matching_path,
        "--strategies", strategies_path,
    ]
    assert main(argv) == 2
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["instance", "matching", "strategies", "file", "config"])
def test_a_file_that_is_not_utf8_is_input_error_naming_it(audit_files, tmp_path, capsys, command):
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe{\x00}\x00")  # a byte-order mark, then UTF-16 text
    if command in ("file", "config"):
        argv = ["solve-game", "--file", str(bad)] if command == "file" else ["simulate", "--config", str(bad)]
    else:
        paths = dict(zip(("instance", "matching", "strategies"), audit_files), **{command: str(bad)})
        argv = ["audit", *(f"--{name}={path}" for name, path in paths.items())]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}: not UTF-8 text: invalid start byte at byte 0\n"


def test_audit_nan_strategy_is_input_error(audit_files, tmp_path, capsys):
    instance_path, matching_path, _ = audit_files
    profile = build_example_profile()
    profile[AgentId.left(0)] = np.array([np.nan])
    strategies_path = tmp_path / "nan_strategies.json"
    write_strategy_profile(profile, strategies_path)
    argv = [
        "audit",
        "--instance", instance_path,
        "--matching", matching_path,
        "--strategies", str(strategies_path),
    ]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "finite" in captured.err


def test_simulate_writes_traces(tmp_path, capsys):
    out = tmp_path / "results"
    argv = [
        "simulate", "--p", "1", "--a", "2", "--m", "2", "--k", "2",
        "--T", "20", "--runs", "2", "--workers", "1",
        "--delta", "auto", "--output-dir", str(out),
    ]
    assert main(argv) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["runs"] == 2 and summary["T"] == 20
    assert (out / "run_001.csv").exists()
    assert (out / "aggregate.csv").exists()


def test_simulate_merges_config_file(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "p": 2, "a": 2, "m": 2, "k": 2, "T": 10, "runs": 1,
        "workers": 1, "output_dir": str(tmp_path / "a"),
    }))
    assert main(["simulate", "--config", str(config_path)]) == 0
    # an explicit flag overrides the same key from the file
    assert main([
        "simulate", "--config", str(config_path),
        "--T", "5", "--output-dir", str(tmp_path / "b"),
    ]) == 0
    capsys.readouterr()
    rows = (tmp_path / "b" / "run_000.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 5


def test_simulate_rejects_unknown_config_keys(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"p": 1, "horizon": 9}))
    assert main(["simulate", "--config", str(config_path)]) == 2
    assert "horizon" in capsys.readouterr().err


def test_simulate_config_must_be_an_object(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps([{"p": 1}]))
    assert main(["simulate", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err == f"error: {config_path}: config must be a JSON object\n"


@pytest.mark.parametrize(
    "key, value",
    [("p", [2]), ("T", {}), ("outside_option", {}), ("noise_scale", [1.0]),
     ("policy", ["self-play"]), ("delta", [0.1]), ("output_dir", ["out"]), ("workers", "two"),
     # numbers that int() would truncate, and bools, which int() reads as 0 or 1
     ("p", 1.5), ("a", True), ("m", 1.9), ("k", True), ("T", 2.5), ("runs", 1.5),
     ("seeds_base", 0.5), ("workers", True), ("T", float("inf")),
     # bools, which float() reads as 0.0 or 1.0
     ("outside_option", True), ("noise_scale", False), ("delta", True), ("delta", False),
     # strings, which float() would parse
     ("outside_option", "-1.0"), ("noise_scale", "0.5"), ("delta", "0.1"),
     # an integer beyond the float range
     pytest.param("noise_scale", 10**400, id="noise_scale-huge")],
)
def test_simulate_rejects_config_values_of_the_wrong_type(tmp_path, capsys, key, value):
    config = {"p": 1, "a": 1, "m": 1, "k": 1, "T": 2, "runs": 1, "workers": 1,
              "output_dir": str(tmp_path / "out")}
    config[key] = value
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(key) in err


def test_simulate_reads_the_delta_flag_as_a_number(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["simulate", "--p", "1", "--a", "1", "--m", "1", "--k", "1", "--T", "2",
            "--runs", "1", "--workers", "1", "--delta", "0.25", "--output-dir", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    assert json.loads((out / "config.json").read_text())["delta"] == 0.25


def test_simulate_requires_market_dimensions(capsys):
    assert main(["simulate", "--p", "1", "--a", "1", "--m", "1"]) == 2
    assert "required" in capsys.readouterr().err.lower()


@pytest.mark.parametrize(
    ("config", "message"),
    [
        ({"a": 1.5}, "missing required setting 'p' (flag or config file)"),
        ({"p": 1.5}, "setting 'p' has a bad value 1.5"),
        ({"p": 1, "a": 1, "m": "x"}, "setting 'm' has a bad value 'x'"),
        ({"p": 1, "a": 1, "m": 1, "k": 1, "runs": 0.5}, "missing required setting 'T' (flag or config file)"),
        ({"p": 1, "a": 1, "m": 1, "k": 1, "T": 1, "noise_scale": True, "runs": 0.5},
         "setting 'runs' has a bad value 0.5"),
    ],
)
def test_simulate_reports_settings_in_field_order(tmp_path, capsys, config, message):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_simulate_defaults_are_the_config_defaults(tmp_path, capsys):
    # a null in the config file leaves the setting at its default, as an absent key does
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"outside_option": None, "policy": None, "seeds_base": None}))
    out = tmp_path / "results"
    argv = ["simulate", "--config", str(config_path), "--p", "1", "--a", "1", "--m", "1",
            "--k", "1", "--T", "2", "--runs", "1", "--workers", "1", "--output-dir", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    expected = ExperimentConfig(p=1, a=1, m=1, k=1, T=2, runs=1).record()
    assert json.loads((out / "config.json").read_text()) == expected


def test_simulate_negative_seed_base_is_input_error_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "results"
    argv = ["simulate", "--p", "1", "--a", "1", "--m", "1", "--k", "1", "--T", "2",
            "--runs", "1", "--seeds-base", "-1", "--output-dir", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: seeds_base must be at least 0, got -1\n"
    assert not out.exists()


def test_simulate_infinite_outside_option_is_input_error_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "results"
    argv = ["simulate", "--p", "1", "--a", "1", "--m", "1", "--k", "1", "--T", "2",
            "--runs", "1", "--outside-option", "inf", "--output-dir", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: outside_option must be finite, got inf\n"
    assert not out.exists()


def test_gen_instance_negative_seed_is_input_error(tmp_path, capsys):
    out = tmp_path / "instance.json"
    argv = ["gen-instance", "--p", "1", "--a", "1", "--m", "1", "--k", "1",
            "--seed", "-3", "--output", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: seed must be at least 0, got -3\n"
    assert not out.exists()


# sizes numpy refuses before it allocates anything
@pytest.mark.parametrize("sizes", [(10**30, 1, 1, 1), (2**16,) * 4], ids=["one-huge", "four-large"])
@pytest.mark.parametrize(
    "command", [["simulate", "--T", "1", "--runs", "1", "--workers", "1", "--output-dir"], ["gen-instance", "--output"]],
    ids=["simulate", "gen-instance"],
)
def test_market_too_large_for_numpy_is_input_error_and_writes_nothing(tmp_path, capsys, command, sizes):
    out = tmp_path / "results"
    flags = [arg for name, size in zip("pamk", sizes) for arg in (f"--{name}", str(size))]
    assert main([command[0], *flags, *command[1:], str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: p, a, m and k are too large")
    assert not out.exists()


def test_simulate_rejects_bad_delta(tmp_path, capsys):
    argv = [
        "simulate", "--p", "1", "--a", "1", "--m", "1", "--k", "1",
        "--T", "5", "--runs", "1", "--delta", "sometimes",
        "--output-dir", str(tmp_path),
    ]
    assert main(argv) == 2
    assert "delta" in capsys.readouterr().err


def test_entry_raises_system_exit(capsys):
    with pytest.raises(SystemExit) as excinfo:
        entry()
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_module_invocation():
    result = subprocess.run(
        [sys.executable, "-m", "matchgames", "bound", "--t", "2",
         "--p", "1", "--a", "1", "--m", "1", "--k", "1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["t"] == 2


def test_audit_pair_out_of_range_is_input_error(audit_files, tmp_path, capsys):
    instance_path, _, strategies_path = audit_files
    matching_path = tmp_path / "far.json"
    write_matching(Matching(((0, 0), (1, 5))), matching_path)
    argv = ["audit", "--instance", instance_path, "--matching", str(matching_path),
            "--strategies", strategies_path]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: pair (1, 5) out of range for market 2x2\n"
