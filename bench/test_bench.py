"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracing import Tracer, layer_metrics, metric_names  # noqa: E402


def test_smoke_runs_every_workload():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    reports, results = lines[0::2], lines[1::2]
    assert sorted({r["workload"] for r in reports}) == sorted(run.WORKLOADS)
    for report, result in zip(reports, results):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert report["machine"]["python"] and report["machine"]["numpy"]
        assert "fail_share" in report["figures"]
        names = [name for name, _ in run.expected_metrics(bool(report["trace"]))]
        assert list(result["metrics"]) == names
        if report["workload"] == "game-solve":
            assert set(report["scale_probe"]) == {"1e-09", "1e-06", "0.001", "1", "1000", "1e+06", "1e+09"}


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "game-solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == metric_names()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("removal", ["function", "module"])
def test_removed_layer_is_reported_absent(monkeypatch, removal):
    mg = run.import_package()
    if removal == "function":
        monkeypatch.delattr(mg.linprog, "solve_lp")
    else:
        monkeypatch.setitem(sys.modules, "matchgames.linprog", None)
    tracer = Tracer()
    with tracer:
        mg.solve_game([[1.0, -1.0], [-1.0, 1.0]])
    assert tracer.absent == ["linprog.solve_lp"]
    metrics = layer_metrics(tracer.summary(), 1.0, 1.0, 0, [])
    assert metrics["linprog.solve_lp.calls"] == (0, "count")
    assert metrics["games.solve_game.calls"] == (1, "count")
    assert metrics["games.maximin.calls"] == (2, "count")


def test_self_time_excludes_children():
    mg = run.import_package()
    tracer = Tracer()
    with tracer:
        mg.solve_game([[2.0, 0.0], [0.0, 1.0]])
    metrics = layer_metrics(tracer.summary(), 1.0, 1.0, 0, [])
    outer = next(s for s in tracer.spans if s[0] == "games.solve_game")
    total = sum(metrics[f"{name}.self_s"][0] for name in
                ("games.solve_game", "games.maximin", "linprog.solve_lp"))
    assert total == pytest.approx(outer[2] - outer[1], rel=1e-9)
    assert metrics["linprog.solves_per_game"] == (2.0, "count")
