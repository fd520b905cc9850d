"""Seeded mutations of valid documents, run through the command line.

Each case changes one value of a valid matrix, instance, matching, strategy,
preference or config document: the value becomes a bool, a string, null, a
list or a huge or non-finite number, or its field or entry is deleted (the
method of Miller, Fredriksen and So, 1990). Whatever the mutation,
``cli.main`` must exit 0, 2 or 3 without a traceback, and a refusal is one
``error:`` line on stderr. A field written twice in the JSON text, which no
dict can hold, is refused with exit 2 wherever it stands, and so is a value
nested deeper than the JSON decoder recurses.
"""

import copy
import json
import math
import random

import pytest

from matchgames.cli import main
from matchgames.formats import (
    write_instance,
    write_matching,
    write_preferences,
    write_strategy_profile,
)
from matchgames.market import AgentId, Matching, PreferenceProfile, generate_instance

HUGE = [1e308, -1e308, 10**400, math.inf, -math.inf, math.nan]
REPLACEMENTS = [True, False, "1", "x", None, *HUGE]
# a valid simulate config runs a size as it is, so a huge one would run for
# ever: these config fields get every mutation but a huge number
SIZES = {"p", "a", "m", "k", "T", "runs", "workers"}
# cases per document kind; simulate runs an experiment each time, so fewer
CASES = {"matrix": 250, "instance": 250, "matching": 120, "strategies": 120, "preferences": 200, "config": 80}


def _positions(node, path=()):
    """Every position below node: dict keys and list indices, depth first."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _positions(value, path + (key,))


def _mutate(document, rng: random.Random, sizes=frozenset()) -> str:
    """Change one value of document in place, giving no field named in sizes a
    huge number; returns what was done."""
    *parents, key = rng.choice(list(_positions(document)))
    parent = document
    for step in parents:
        parent = parent[step]
    choices = ["delete", "list", *REPLACEMENTS]
    if key in sizes:
        choices = [choice for choice in choices if choice not in HUGE]
    choice = rng.choice(choices)
    if choice == "delete":
        del parent[key]
    elif choice == "list":
        parent[key] = [parent[key]]
    else:
        parent[key] = choice
    return f"{choice!r} at {[*parents, key]}"


def _read(write, value, path) -> dict:
    write(value, path)
    return json.loads(path.read_text())


@pytest.fixture
def documents(tmp_path):
    """A valid document of each kind, read back from the writers' files."""
    profile = {AgentId.left(0): [0.5, 0.5], AgentId.left(1): [1.0, 0.0],
               AgentId.right(0): [0.25, 0.75], AgentId.right(1): [0.0, 1.0]}
    prefs = PreferenceProfile(((0, 1), (1,)), ((1, 0), (0, 1)))
    return {
        "matrix": [[1.0, -2.0, 0.5], [0.0, 3.0, -1.0]],
        "instance": _read(write_instance, generate_instance(2, 2, 2, 2, seed=3), tmp_path / "i.json"),
        "matching": _read(write_matching, Matching(((0, 0), (1, 1))), tmp_path / "m.json"),
        "strategies": _read(write_strategy_profile, profile, tmp_path / "s.json"),
        "preferences": _read(write_preferences, prefs, tmp_path / "p.json"),
        "config": {"p": 1, "a": 2, "m": 2, "k": 2, "T": 3, "runs": 1, "workers": 1, "seeds_base": 4,
                   "policy": "self-play", "generator": "uniform-signed", "outside_option": -1.0,
                   "delta": 0.1, "noise_scale": 0.5},
    }


def _argv(kind: str, documents: dict, tmp_path) -> list[str]:
    """The command that reads documents[kind]; the other documents stay valid."""
    paths = {}
    for name, document in documents.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(document))
    if kind == "matrix":
        return ["solve-game", "--matrix", json.dumps(documents["matrix"])]
    if kind == "preferences":
        return ["match", "--preferences", str(paths["preferences"])]
    if kind == "config":
        return ["simulate", "--config", str(paths["config"]), "--output-dir", str(tmp_path / "out")]
    return ["audit", *(f"--{name}={paths[name]}" for name in ("instance", "matching", "strategies"))]


@pytest.mark.parametrize("kind", list(CASES))
def test_mutated_documents_exit_cleanly(tmp_path, capsys, documents, kind):
    rng = random.Random(list(CASES).index(kind))
    exits = set()
    for _ in range(CASES[kind]):
        mutated = copy.deepcopy(documents)
        where = _mutate(mutated[kind], rng, SIZES if kind == "config" else frozenset())
        try:
            code = main(_argv(kind, mutated, tmp_path))
        except Exception as exc:  # a traceback: report the mutation behind it
            pytest.fail(f"{kind}, {where}: {exc!r}")
        err = capsys.readouterr().err
        assert code in (0, 2, 3), (kind, where, code, err)
        if code == 0:
            assert err == "", (kind, where, err)
        else:
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), (kind, where, err)
        exits.add(code)
    # the mutations both refuse documents and leave some valid
    assert 2 in exits


def _duplicated(document, position) -> str:
    """document as JSON text with the field at position written twice, the same value both times."""
    marked = copy.deepcopy(document)
    *parents, key = position
    parent = marked
    for step in parents:
        parent = parent[step]
    entry = f"{json.dumps(key)}: {json.dumps(parent[key])}"
    parent[key] = mark = "\N{BULLET} written twice"  # no document holds this text
    return json.dumps(marked).replace(f"{json.dumps(key)}: {json.dumps(mark)}", f"{entry}, {entry}")


@pytest.mark.parametrize("kind", [kind for kind in CASES if kind != "matrix"])
def test_duplicated_fields_exit_2(tmp_path, capsys, documents, kind):
    """Every field of every object, top level or nested, written twice."""
    argv = _argv(kind, documents, tmp_path)
    fields = [position for position in _positions(documents[kind]) if isinstance(position[-1], str)]
    assert len(fields) >= 3
    for position in fields:
        text = _duplicated(documents[kind], position)
        assert json.loads(text) == documents[kind]  # the same document, read by a plain decoder
        (tmp_path / f"{kind}.json").write_text(text)
        assert main(argv) == 2, position
        err = capsys.readouterr().err
        assert err == f"error: {tmp_path / kind}.json: duplicate key {position[-1]!r}\n", (position, err)


def test_duplicated_matrix_key_exits_2(capsys):
    assert main(["solve-game", "--matrix", '{"rows": [[1.0]], "rows": [[2.0]]}']) == 2
    assert capsys.readouterr().err == "error: --matrix: duplicate key 'rows'\n"


@pytest.mark.parametrize("kind", list(CASES))
def test_deeply_nested_value_exits_2(tmp_path, capsys, documents, kind):
    """The matrix, or a document's first field, nested 5,000 lists deep."""
    depth = 5000
    argv = _argv(kind, documents, tmp_path)
    if kind == "matrix":
        argv[-1] = "[" * depth + argv[-1] + "]" * depth
        where = "--matrix"
    else:
        first = next(iter(documents[kind]))
        mark = "\N{BULLET} nested"  # no document holds this text
        text = json.dumps({**documents[kind], first: mark})
        (tmp_path / f"{kind}.json").write_text(text.replace(json.dumps(mark), "[" * depth + "]" * depth))
        where = f"{tmp_path / kind}.json"
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {where}: JSON nested too deeply\n"
