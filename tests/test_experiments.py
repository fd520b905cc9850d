"""Experiment harness: bound values, trace files, determinism, aggregation."""

import dataclasses
import json
import re
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest

from matchgames import experiments
from matchgames.errors import FormatError, InputError
from matchgames.experiments import (
    AGGREGATE_FILENAME,
    AGGREGATE_HEADER,
    CONFIG_FILENAME,
    TRACE_HEADER,
    ExperimentConfig,
    parse_matching_field,
    read_aggregate_file,
    read_trace_file,
    resolve_output_dir,
    run_experiment,
    run_trace_path,
    theoretical_bound,
)
from matchgames.learning import Policy, run_episode
from matchgames.market import Matching, generate_instance


def small_config(output_dir, **overrides) -> ExperimentConfig:
    settings = dict(
        p=2, a=2, m=2, k=2, T=30, runs=3, seeds_base=100, output_dir=str(output_dir), workers=1
    )
    settings.update(overrides)
    return ExperimentConfig(**settings)


def test_theoretical_bound_frozen_values():
    assert theoretical_bound(1, 1, 1, 1, 1) == 6.709640090061899
    assert theoretical_bound(100, 2, 2, 1, 1) == 294.5115897091079
    assert theoretical_bound(np.int64(100), 2, 2, 1, 1) == 294.5115897091079
    assert theoretical_bound(5000, 2, 2, 2, 2) == 5378.043312600765


def test_theoretical_bound_monotone_in_horizon():
    values = [theoretical_bound(t, 2, 3, 2, 2) for t in (1, 10, 100, 1000)]
    assert values == sorted(values)
    assert values[0] > 2.0


def test_theoretical_bound_validation():
    with pytest.raises(InputError):
        theoretical_bound(0, 1, 1, 1, 1)
    with pytest.raises(InputError):
        theoretical_bound(10, 1, -1, 1, 1)


@pytest.mark.parametrize(
    ("sizes", "message"),
    [
        ((True, 1, 1, 1, 1), "^t must be an integer"),
        ((2.0, 1, 1, 1, 1), "^t must be an integer"),
        ((1, 1, 1, 1, np.float64(3.0)), "^k must be an integer"),
        ((10**400, 1, 1, 1, 1), "^t is too large for a float"),
        ((10**200, 10**200, 1, 1, 1), "the bound overflows a float"),
    ],
)
def test_theoretical_bound_sizes_follow_the_integer_rule(sizes, message):
    with pytest.raises(InputError, match=message):
        theoretical_bound(*sizes)


def test_run_experiment_caps_workers_at_cpu_count(tmp_path, monkeypatch):
    sizes = []

    class SerialPool:
        """A ProcessPoolExecutor stand-in: records its size, runs each task in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    reference = tmp_path / "serial"
    run_experiment(small_config(reference, runs=4))
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    for name, workers in (("many", 5000), ("default", None), ("two", 2)):
        run_experiment(small_config(tmp_path / name, runs=4, workers=workers))
        for path in sorted(reference.iterdir()):
            assert (tmp_path / name / path.name).read_bytes() == path.read_bytes()
    run_experiment(small_config(tmp_path / "one-run", runs=1, workers=5000))
    assert sizes == [2, 2, 2]  # the one-run batch needs no pool


def test_pool_keeps_at_most_two_runs_a_worker_in_flight(tmp_path, monkeypatch):
    unread, peaks = [0], []

    class CountingPool(ThreadPoolExecutor):
        """A thread pool that counts the futures submitted and not yet read."""

        def submit(self, fn, *args):
            future = super().submit(fn, *args)
            unread[0] += 1
            peaks.append(unread[0])
            result = future.result

            def read(timeout=None):
                unread[0] -= 1
                return result(timeout)

            future.result = read
            return future

    reference = tmp_path / "serial"
    run_experiment(small_config(reference, T=5, runs=50))
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 4)
    for workers in (2, 3):
        run_dir = tmp_path / f"workers-{workers}"
        unread[0], peaks[:] = 0, []
        run_experiment(small_config(run_dir, T=5, runs=50, workers=workers))
        assert len(peaks) == 50 and unread[0] == 0
        assert max(peaks) == 2 * workers
        for path in sorted(reference.iterdir()):
            assert (run_dir / path.name).read_bytes() == path.read_bytes()


def test_single_run_trace_matches_direct_episode(tmp_path):
    config = small_config(tmp_path, runs=1)
    trace = run_experiment(config)
    instance = generate_instance(2, 2, 2, 2, seed=100)
    records = run_episode(instance, Policy.SELF_PLAY, 30, seed=100)
    rows = read_trace_file(run_trace_path(tmp_path, 0))
    assert len(rows) == 30
    for row, record in zip(rows, records):
        assert row["mi"] == record.mi
        assert row["matching"] == record.matching
        assert row["event_ok"] == record.event_ok
    assert trace.cumulative.shape == (1, 30)
    assert (trace.mean == trace.cumulative[0]).all()
    assert (trace.std == 0.0).all()


def test_trace_files_are_byte_identical_across_reruns(tmp_path):
    first_dir, second_dir = tmp_path / "one", tmp_path / "two"
    run_experiment(small_config(first_dir))
    run_experiment(small_config(second_dir))
    for name in ["run_000.csv", "run_001.csv", "run_002.csv", AGGREGATE_FILENAME, CONFIG_FILENAME]:
        assert (first_dir / name).read_bytes() == (second_dir / name).read_bytes(), name


def test_worker_count_does_not_change_output(tmp_path):
    serial_dir, pool_dir = tmp_path / "serial", tmp_path / "pool"
    run_experiment(small_config(serial_dir, workers=1))
    run_experiment(small_config(pool_dir, workers=2))
    for name in ["run_000.csv", "run_001.csv", "run_002.csv", AGGREGATE_FILENAME]:
        assert (serial_dir / name).read_bytes() == (pool_dir / name).read_bytes(), name


def test_aggregate_recomputes_from_traces(tmp_path):
    config = small_config(tmp_path)
    trace = run_experiment(config)
    cumulative = np.array(
        [
            [row["cumulative_mi"] for row in read_trace_file(run_trace_path(tmp_path, r))]
            for r in range(config.runs)
        ]
    )
    aggregate = read_aggregate_file(tmp_path / AGGREGATE_FILENAME)
    assert len(aggregate) == config.T
    for idx, row in enumerate(aggregate):
        assert row["t"] == idx + 1
        assert row["mean_cum_mi"] == pytest.approx(cumulative[:, idx].mean(), abs=1e-9)
        assert row["std_cum_mi"] == pytest.approx(cumulative[:, idx].std(), abs=1e-9)
        assert row["bound"] == theoretical_bound(idx + 1, 2, 2, 2, 2)
    # instability is nonnegative, so cumulative traces never decrease
    assert (np.diff(cumulative, axis=1) >= -1e-15).all()


def test_config_echo_contains_scientific_settings_only(tmp_path):
    config = small_config(tmp_path)
    run_experiment(config)
    echoed = json.loads((tmp_path / CONFIG_FILENAME).read_text())
    assert echoed == config.record()
    assert "output_dir" not in echoed
    assert "workers" not in echoed
    assert echoed["policy"] == "self-play"
    assert echoed["seeds_base"] == 100


def test_different_seed_bases_change_traces(tmp_path):
    first_dir, second_dir = tmp_path / "one", tmp_path / "two"
    run_experiment(small_config(first_dir, runs=1))
    run_experiment(small_config(second_dir, runs=1, seeds_base=101))
    assert (
        (first_dir / "run_000.csv").read_bytes()
        != (second_dir / "run_000.csv").read_bytes()
    )


def test_output_dir_from_environment(tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("MATCHGAMES_OUTPUT_DIR", str(target))
    assert resolve_output_dir(None) == target
    config = dataclasses.replace(small_config(tmp_path, runs=1), output_dir=None)
    run_experiment(config)
    assert (target / "run_000.csv").exists()
    monkeypatch.delenv("MATCHGAMES_OUTPUT_DIR")
    with pytest.raises(InputError):
        resolve_output_dir(None)


def test_matching_field_round_trip():
    assert parse_matching_field("") == Matching(())
    assert parse_matching_field("0-1;2-0") == Matching(((0, 1), (2, 0)))


def test_trace_reader_rejects_foreign_headers(tmp_path):
    path = tmp_path / "bogus.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(FormatError):
        read_trace_file(path)
    with pytest.raises(FormatError):
        read_aggregate_file(path)


@pytest.mark.parametrize(
    ("reader", "header", "row"),
    [
        (read_aggregate_file, AGGREGATE_HEADER, "1,0.5"),
        (read_aggregate_file, AGGREGATE_HEADER, "1,x,0.0,1.0"),
        (read_trace_file, TRACE_HEADER, "0,x,0-0,0.5,0.5,1"),
        (read_trace_file, TRACE_HEADER, "0,1,0-x,0.5,0.5,1"),
        # event_ok is written as 0 or 1; any other integer is not read as true
        (read_trace_file, TRACE_HEADER, "0,1,0-0,0.5,0.5,7"),
        (read_trace_file, TRACE_HEADER, "0,1,0-0,0.5,0.5,01"),
    ],
    ids=["aggregate-short", "aggregate-float", "trace-int", "trace-matching", "trace-event-7", "trace-event-01"],
)
def test_trace_readers_name_the_path_and_row_of_a_malformed_row(tmp_path, reader, header, row):
    path = tmp_path / "trace.csv"
    path.write_text(",".join(header) + "\n" + row + "\n")
    with pytest.raises(FormatError, match=re.escape(f"{path}: malformed row {row.split(',')!r}")):
        reader(path)


def test_config_validation():
    with pytest.raises(InputError):
        ExperimentConfig(p=0, a=1, m=1, k=1, T=10)
    with pytest.raises(InputError):
        ExperimentConfig(p=1, a=1, m=1, k=1, T=10, runs=0)
    with pytest.raises(InputError):
        ExperimentConfig(p=1, a=1, m=1, k=1, T=10, delta=2.0)
    with pytest.raises(InputError):
        ExperimentConfig(p=1, a=1, m=1, k=1, T=10, workers=0)
    with pytest.raises(InputError, match=r"^noise_scale must be nonnegative, got -0\.5$"):
        ExperimentConfig(p=1, a=1, m=1, k=1, T=10, noise_scale=-0.5)
    with pytest.raises(InputError, match="^unknown policy 'self-play'$"):
        ExperimentConfig(p=1, a=1, m=1, k=1, T=10, policy="self-play")
    with pytest.raises(InputError, match="^unknown generator 'gaussian-unit'$"):
        ExperimentConfig(p=1, a=1, m=1, k=1, T=10, generator="gaussian-unit")


@pytest.mark.parametrize(
    ("field", "bad"),
    [("T", 2.5), ("runs", 2.5), ("p", 2.0), ("T", True), ("k", "2"), ("seeds_base", -1),
     ("seeds_base", 0.5), ("workers", 1.5)],
)
def test_config_refuses_non_integral_sizes_and_negative_seeds(field, bad):
    settings = dict(p=1, a=1, m=1, k=1, T=2)
    settings[field] = bad
    message = f"^{field} must be (an integer|at least 0), got {re.escape(repr(bad))}$"
    with pytest.raises(InputError, match=message):
        ExperimentConfig(**settings)


def test_config_takes_numpy_integers_as_ints():
    config = ExperimentConfig(p=np.int64(2), a=np.int32(1), m=2, k=2, T=np.int64(3), seeds_base=np.uint8(4))
    assert [type(getattr(config, name)) for name in ("p", "a", "T", "seeds_base")] == [int] * 4
    assert json.loads(json.dumps(config.record()))["seeds_base"] == 4


@pytest.mark.parametrize(
    ("field", "bad", "rule"),
    [("noise_scale", True, "a real number"), ("outside_option", False, "a real number"),
     ("noise_scale", "1", "a real number"), ("delta", "0.1", "a real number"),
     ("outside_option", [1.0], "a real number"), ("outside_option", float("inf"), "finite"),
     ("noise_scale", float("nan"), "finite"), ("outside_option", 10**400, "finite")],
)
def test_config_refuses_non_real_values(field, bad, rule):
    with pytest.raises(InputError, match=f"^{field} must be {rule}, got "):
        ExperimentConfig(p=1, a=1, m=1, k=1, T=2, **{field: bad})


# sizes numpy refuses before it allocates anything: too many entries for its
# index type, or too many bytes
OVERSIZED = {"one-huge": (10**30, 1, 1, 1), "four-large": (2**16,) * 4}


@pytest.mark.parametrize("sizes", OVERSIZED.values(), ids=OVERSIZED)
@pytest.mark.parametrize(
    "build",
    [lambda p, a, m, k: generate_instance(p, a, m, k), lambda p, a, m, k: ExperimentConfig(p=p, a=a, m=m, k=k, T=1)],
    ids=["generate_instance", "ExperimentConfig"],
)
def test_a_market_too_large_for_numpy_is_an_input_error_naming_its_sizes(build, sizes):
    with pytest.raises(InputError, match="^p, a, m and k are too large"):
        build(*sizes)


def test_config_stores_real_fields_as_floats():
    config = ExperimentConfig(p=1, a=1, m=1, k=1, T=2, outside_option=-2, noise_scale=np.float32(0.5),
                              delta=np.float64(0.25))
    record = json.loads(json.dumps(config.record()))
    assert [type(getattr(config, name)) for name in ("outside_option", "noise_scale", "delta")] == [float] * 3
    assert (record["outside_option"], record["noise_scale"], record["delta"]) == (-2.0, 0.5, 0.25)


def test_baseline_policies_run_through_harness(tmp_path):
    for policy in (Policy.NASH_RESPONSE, Policy.BEST_RESPONSE):
        directory = tmp_path / policy.value
        config = small_config(directory, T=15, runs=1, policy=policy)
        trace = run_experiment(config)
        assert trace.cumulative.shape == (1, 15)
        assert (trace.mean >= 0.0).all()
