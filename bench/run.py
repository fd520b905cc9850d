"""Benchmark for matchgames: four closed-loop workloads, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --smoke

Workloads: selfplay-batch, selfplay-wide, audit-dense, game-solve (see
bench/workloads.py for what each runs and why). The package is imported
from the checkout's `src/`; the benchmark exits with code 2 if it is not
there. Inputs come from --seed alone.

With --trace 0 the last stdout line carries the end-to-end metrics:
setup_s, the median of several set-ups (import, inputs, input files,
warm-up); peak_rss_mb, peak resident memory of this process plus its
largest child; and op_ms_p50, the median wall time of one closed-loop
operation (a batch, an episode, an audit or a solve). Both times are
restated at the reference machine speed that the Calibration class below
measures; a shift of the machine's speed between two sets of runs moved
raw set-up medians by 17%, restated ones by 2% at most. Only medians are
bounded: a single cover-search blow-up moves a run's mean by a fifth.
With --trace 1 the same operations run alternately without and with span
tracing, and the last line carries the per-layer metrics of
bench/tracing.py.

The line before the last is a report: the machine, and the workload's
own figures with their sample counts: setup_s, peak_rss_mb, fail_share,
op_ms_p50, the raw values setup_s_raw and op_ms_p50_raw, and
calibration_ms_p50 on every workload; then rounds_per_s (selfplay-batch,
selfplay-wide); batch_s_p50; episode_s_p50; audits_per_s, audit_s_p50,
audit_s_p90; solves_per_s, solve_us_p50, solve_us_p99, which are raw
wall times. A tail percentile with fewer than ten samples beyond it
reads null. The report also lists failure reasons and absent layers. On
game-solve it also carries the scale probe: every base game solved once,
untimed, at each payoff scale from 1e-9 to 1e9, with the failures per
scale. Those are the known scale defect of the game kernel; they are
reported there and not in `failed`, which counts the timed operations
only.

Every operation's result is checked after its timer stops. `failed` counts
the operations that raised or returned a wrong answer. `correct` is false
when the benchmark could not establish what a right answer is (a reference
computation failed or a pinned value is missing), so the run cannot vouch
for its outputs.

--smoke runs every workload at tiny sizes, with and without tracing, and
exits non-zero if any result is malformed or not correct.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE = "matchgames"
SETUP_REPEATS = 7

sys.path.insert(0, str(BENCH_DIR))

from tracing import Tracer, layer_metrics, metric_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("op_ms_p50", "ms"))


class SetupError(Exception):
    pass


def import_package():
    """Import matchgames afresh from the checkout's src/ and return it."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise SetupError(f"no {PACKAGE} package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for key in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[key]
    package = importlib.import_module(PACKAGE)
    if Path(package.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        raise SetupError(f"{PACKAGE} imported from {package.__file__}, not from {SRC}")
    for module in ("experiments", "formats"):  # the workloads reach these as package attributes
        importlib.import_module(f"{PACKAGE}.{module}")
    return package


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_info() -> dict:
    model = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "source_sha256": source.hexdigest(),
    }


def peak_rss_mb() -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


class Calibration:
    """Tracks the machine's speed with fixed work the benchmark owns.

    On the 2-CPU Xeon the benchmark was defined on, the speed of all code
    drifts by up to 1.6x over minutes, so one operation's median moved by a
    third between runs. A sample times a small Bland's-rule simplex and a
    small depth-first cover search, the package's two hot loops, written
    here and run on fresh random inputs. Samples are taken between
    operations, one per EVERY_S of measurement, and after each set-up. Each
    operation's duration is restated at the reference speed: seconds *
    (REFERENCE_S / the median of the WINDOW samples on either side of it)
    ** the workload's speed_exponent; each set-up's, with exponent 1.
    Nothing here calls the package, so a change to the package moves
    restated durations exactly as it moves raw ones.
    """

    EVERY_S = 0.1
    WINDOW = 5
    # About the median sample on the 2-CPU Xeon the benchmark was defined on.
    REFERENCE_S = 0.0006

    def __init__(self):
        self.rng = np.random.default_rng(0)
        self.samples: list[float] = []
        self._last = time.perf_counter()

    @staticmethod
    def _simplex(A: np.ndarray) -> float:
        """max 1'y subject to A y <= 1, y >= 0, on a dense tableau."""
        m, k = A.shape
        T = np.zeros((m + 1, k + m + 1))
        T[:m, :k] = A
        T[:m, k:k + m] = np.eye(m)
        T[:m, -1] = 1.0
        T[m, :k] = -1.0
        while True:
            entering = np.nonzero(T[m, :-1] < -1e-12)[0]
            if len(entering) == 0:
                return T[m, -1]
            col = int(entering[0])
            rows = np.nonzero(T[:m, col] > 1e-12)[0]
            row = int(rows[np.argmin(T[rows, -1] / T[rows, col])])
            T[row] /= T[row, col]
            for r in range(m + 1):
                if r != row and T[r, col] != 0.0:
                    T[r] -= T[r, col] * T[row]

    @staticmethod
    def _cover(pairs: list) -> float:
        """Least total raise so that every pair has one member raised to its gap."""
        best = [np.inf]

        def search(index: int, raised: dict, total: float) -> None:
            if total >= best[0]:
                return
            if index == len(pairs):
                best[0] = total
                return
            left, right, gap_left, gap_right = pairs[index]
            if raised.get(left, 0.0) >= gap_left or raised.get(right, 0.0) >= gap_right:
                search(index + 1, raised, total)
                return
            for agent, gap in ((left, gap_left), (right, gap_right)):
                previous = raised.get(agent, 0.0)
                raised[agent] = gap
                search(index + 1, raised, total + gap - previous)
                raised[agent] = previous

        search(0, {}, 0.0)
        return best[0]

    def _once(self) -> float:
        game = self.rng.uniform(1.0, 2.0, size=(4, 4))
        ends = self.rng.integers(0, 5, size=(14, 2))
        gaps = self.rng.uniform(0.0, 1.0, size=(14, 2))
        pairs = [(("L", int(i)), ("R", int(j)), float(a), float(b)) for (i, j), (a, b) in zip(ends, gaps)]
        start = time.perf_counter()
        for _ in range(4):
            self._simplex(game)
        self._cover(pairs)
        return time.perf_counter() - start

    def sample(self) -> None:
        self.samples.append(sorted(self._once() for _ in range(3))[1])
        self._last = time.perf_counter()

    def due(self) -> None:
        """One sample per EVERY_S passed since the last, so long operations get as many."""
        for _ in range(int(min(time.perf_counter() - self._last, 2.0) / self.EVERY_S)):
            self.sample()

    def factor(self, mark: int) -> float:
        """Reference speed over the speed the WINDOW samples on either side of mark measured."""
        window = self.samples[max(0, mark - self.WINDOW):mark + self.WINDOW]
        return self.REFERENCE_S / float(np.median(window))

    def restate(self, durations: list[float], marks: list[int], exponent: float) -> list[float]:
        """Durations at the reference speed; marks[i] is the sample count when operation i began."""
        return [d * self.factor(mark) ** exponent for d, mark in zip(durations, marks)]


class Tally:
    """Durations, work units and failures of one side (untraced or traced)."""

    def __init__(self, workload):
        self.workload = workload
        self.durations: list[float] = []
        self.marks: list[int] = []
        self.units = 0
        self.rounds = 0
        self.busy_s = 0.0
        self.failures: Counter = Counter()
        self.output_bytes: list[int] = []

    def run(self, ops, tracer: Tracer | None = None, meter: Calibration | None = None) -> None:
        """Run ops in order, timing each call and checking its result after the timer stops.

        With a tracer, spans are recorded during the calls only, not the
        checks; with a meter, the machine's speed is sampled between calls.
        """
        if tracer is not None:
            tracer.enabled = False
            tracer.install()
        try:
            for op in ops:
                if meter is not None:
                    meter.due()
                    self.marks.append(len(meter.samples))
                if tracer is not None:
                    tracer.enabled = True
                start = time.perf_counter()
                try:
                    result = op.call()
                    error = None
                except Exception as exc:  # counted as a failed operation, never fatal
                    result, error = None, f"raised {type(exc).__name__}"
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.enabled = False
                self._record(op, elapsed, result, error)
        finally:
            if tracer is not None:
                tracer.uninstall()

    def _record(self, op, elapsed: float, result, error: str | None) -> None:
        try:
            reason = error or self.workload.check(op.key, result)
        except Exception as exc:  # a malformed result fails its check
            reason = f"check raised {type(exc).__name__}"
        if reason is None:
            size = self.workload.output_bytes(op.key)
            if size is not None:
                self.output_bytes.append(size)
        self.durations.append(elapsed)
        self.busy_s += elapsed
        self.units += op.units
        self.rounds += op.rounds
        if reason is not None:
            self.failures[reason] += 1


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> tuple[dict, dict]:
    """Set up, measure and check one workload; return (report, result line)."""
    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    try:
        meter = Calibration()
        setup_times, setup_marks = [], []
        for repeat in range(SETUP_REPEATS):
            setup_marks.append(len(meter.samples))
            start = time.perf_counter()
            mg = import_package()
            workload = WORKLOADS[name](mg, seed, workdir / f"setup-{repeat}", smoke, trace)
            workload.setup()
            workload.warm_up()
            setup_times.append(time.perf_counter() - start)
            meter.sample()

        plain, traced = Tally(workload), Tally(workload)
        tracer = Tracer() if trace else None
        while plain.busy_s + traced.busy_s < seconds:
            ops = workload.group()
            plain.run(ops, meter=meter)
            if tracer is not None:
                traced.run([workload.twin(op) for op in ops], tracer=tracer)
        meter.sample()
        probed = workload.probe()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    attempted = len(plain.durations) + len(traced.durations)
    failures = plain.failures + traced.failures
    failed = sum(failures.values())
    figures = {
        "setup_s": (float(np.median(meter.restate(setup_times, setup_marks, 1.0))), "s", len(setup_times)),
        "setup_s_raw": (float(np.median(setup_times)), "s", len(setup_times)),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
        "fail_share": (failed / attempted, "ratio", attempted),
        "op_ms_p50": (float(np.median(meter.restate(plain.durations, plain.marks,
                                                    workload.speed_exponent))) * 1e3, "ms", len(plain.durations)),
        "op_ms_p50_raw": (float(np.median(plain.durations)) * 1e3, "ms", len(plain.durations)),
        "calibration_ms_p50": (float(np.median(meter.samples)) * 1e3, "ms", len(meter.samples)),
    }
    figures.update(workload.report(plain.durations, plain.units, plain.busy_s))
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "machine": machine_info(),
        "figures": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in figures.items()},
        "failures": dict(failures),
        "reference_errors": workload.reference_errors,
    }
    report.update(workload.notes())
    report.update(probed)
    if trace:
        spans = tracer.summary()
        metrics = layer_metrics(spans, traced.busy_s, plain.busy_s, traced.rounds, traced.output_bytes)
        report["absent_layers"] = spans["absent"]
        report["traced_ops"] = len(traced.durations)
    else:
        metrics = {metric: figures[metric][:2] for metric, _ in END_TO_END}
    line = {
        "correct": not workload.reference_errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return report, line


def expected_metrics(trace: bool) -> list[tuple[str, str]]:
    return metric_names() if trace else list(END_TO_END)


def smoke() -> int:
    """Every workload at tiny sizes, untraced and traced; 0 when all results are well formed."""
    problems = []
    for name in WORKLOADS:
        for trace in (False, True):
            report, line = run_workload(name, seed=1, seconds=0.01, trace=trace, smoke=True)
            print(json.dumps(report))
            print(json.dumps(line))
            got = [(k, v["unit"]) for k, v in line["metrics"].items()]
            if got != expected_metrics(trace):
                problems.append(f"{name} trace={int(trace)}: metrics {got}")
            if not line["correct"] or line["attempted"] < 1:
                problems.append(f"{name} trace={int(trace)}: {line} {report['reference_errors']}")
            if line["failed"]:
                problems.append(f"{name} trace={int(trace)}: failures {report['failures']}")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="run every workload at tiny sizes")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if None in (args.workload, args.seed, args.seconds, args.trace):
            parser.error("--workload, --seed, --seconds and --trace are required without --smoke")
        if args.seconds <= 0 or args.seed < 0:
            parser.error("--seconds must be positive and --seed nonnegative")
        report, line = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
