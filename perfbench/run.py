"""Benchmark of swarmdescent's seeded batches and sweeps, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` beside this
directory.  The workload runs through ``swarmdescent.cli.main`` in this
process, once to warm up and then in whole rounds until ``S`` seconds have
passed; every round's output is checked.  With ``--trace 0`` the last line
of stdout is a JSON object with the end-to-end metrics (medians over the
rounds); with ``--trace 1`` it has the per-layer metrics of traced rounds
that alternate with untraced ones.  End-to-end times are scaled to a
reference machine speed measured by a probe around each timed interval.
A copy of the result, with the raw times, and the spans of a traced run go
to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
COLD_STARTS = 9
COLD_START_TIMEOUT_S = 60.0
# Median durations of `probe_s` and `cold_probe_s` on the machine the bounds
# were set on: a 2-vCPU Intel Xeon VM with Python 3.11.7 and numpy 2.4.6.
PROBE_REF_S = 0.043
COLD_PROBE_REF_S = 0.149
PROBE_LOOPS = 3000


def probe_s() -> float:
    """Wall time of a fixed computation that does not involve swarmdescent.

    It is the same kind of work as the package's inner loops: numpy calls on
    tiny arrays driven from a Python loop.  On a shared machine whose speed
    swings by tens of percent within a minute, both slow down by one factor.
    """
    x = np.linspace(-1.0, 1.0, 16).reshape(8, 2)
    start = perf_counter()
    for _ in range(PROBE_LOOPS):
        r = np.sqrt(np.sum(x * x, axis=1))
        np.exp(-0.2 * r) + np.cos(x).mean(axis=1)
    return perf_counter() - start


def cold_probe_s() -> float:
    """Seconds to start a fresh interpreter and import numpy.

    That is most of a cold start, and none of it is swarmdescent's, so it
    follows the machine's process-start and import speed.
    """
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, cwd=ROOT,
                   timeout=COLD_START_TIMEOUT_S)
    return perf_counter() - start


def cold_start(mode: str, argv: list[str]) -> float:
    """Seconds from launching a fresh interpreter to the ``coldstart.py`` mark.

    ``setup`` times launch to the CLI's first run; ``import`` returns the
    child's own timing of ``import swarmdescent``.
    """
    cmd = [sys.executable, str(HERE / "coldstart.py"), str(SRC), mode, *argv]
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=ROOT) as proc:
        watchdog = threading.Timer(COLD_START_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            ready = perf_counter()
            _, err = proc.communicate()
        finally:
            watchdog.cancel()
    if proc.returncode != 0:
        raise RuntimeError(f"cold start {mode} exited with {proc.returncode}: {err.strip()}")
    return ready - start if mode == "setup" else float(line)


def speed_scale(reference: float, probe_before: float, probe_after: float) -> float:
    """Factor that scales a time measured between two probes to the reference machine speed."""
    return 2.0 * reference / (probe_before + probe_after)


def scaled_cold_starts(mode: str, argv: list[str]) -> float:
    """Median of ``COLD_STARTS`` cold starts, each scaled by the cold probes on either side of it."""
    probe = cold_probe_s()
    times = []
    for _ in range(COLD_STARTS):
        seconds = cold_start(mode, argv)
        before, probe = probe, cold_probe_s()
        times.append(seconds * speed_scale(COLD_PROBE_REF_S, before, probe))
    return statistics.median(times)


def cpu_seconds() -> float:
    """CPU time of this process and of its children that have been waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """High-water resident set of this process plus the largest one among its children, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def cli_caller(main):
    """Call the CLI's ``main`` in-process; returns ``(exit code, stdout, stderr)``."""

    def call(argv: list[str]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        return rc, out.getvalue(), err.getvalue()

    return call


class Rounds:
    """Runs rounds step by step, with a probe between steps, and tallies their operations.

    A round's times are the sums over its steps of each step's time scaled
    by the probes on either side of it.
    """

    def __init__(self):
        self.wall: dict[str, list[float]] = {}
        self.cpu: dict[str, list[float]] = {}
        self.raw: dict[str, list[tuple[float, float]]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._probe = probe_s()

    def run(self, kind: str | None, steps) -> None:
        wall = cpu = raw_wall = raw_cpu = 0.0
        for step in steps:
            cpu0 = cpu_seconds()
            t0 = perf_counter()
            outcome = step()
            step_wall = perf_counter() - t0
            step_cpu = cpu_seconds() - cpu0
            before, self._probe = self._probe, probe_s()
            scale = speed_scale(PROBE_REF_S, before, self._probe)
            wall += step_wall * scale
            cpu += step_cpu * scale
            raw_wall += step_wall
            raw_cpu += step_cpu
            self.attempted += outcome.ops
            self.failed += outcome.failed
            self.problems += outcome.problems
        if kind is not None:
            self.wall.setdefault(kind, []).append(wall)
            self.cpu.setdefault(kind, []).append(cpu)
            self.raw.setdefault(kind, []).append((raw_wall, raw_cpu))

    def median_wall(self, kind: str) -> float:
        return statistics.median(self.wall[kind])


def import_package():
    """Import swarmdescent from this checkout's ``src/`` and refuse any other copy."""
    if not (SRC / "swarmdescent" / "__init__.py").is_file():
        raise SystemExit(f"error: no swarmdescent sources under {SRC}")
    sys.path.insert(0, str(SRC))
    importlib.import_module("swarmdescent.cli")
    sd = sys.modules["swarmdescent"]
    if not Path(sd.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported swarmdescent from {sd.__file__}, not from {SRC}")
    return sd


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    sd = import_package()
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS

    args = parse_args(argv, sorted(WORKLOADS))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    workload = WORKLOADS[args.workload]()
    seed = args.seed
    plain = cli_caller(sd.cli.main)
    tracer = Tracer() if args.trace else None
    rounds = Rounds()
    first_round_spans = 0

    rounds.run(None, workload.first_round(plain, seed))
    deadline = perf_counter() + args.seconds
    while True:
        rounds.run("plain", workload.round(plain, seed))
        if tracer is not None:
            if workload.jobs > 1:
                rounds.run("sequential", workload.round(plain, seed, jobs=1))
            with tracer.patched(sd) as traced_main:
                traced = cli_caller(traced_main)
                rounds.run("traced", workload.round(traced, seed, jobs=1))
            first_round_spans = first_round_spans or len(tracer.spans)
        if perf_counter() >= deadline:
            break

    if tracer is None:
        metrics = {
            "wall_s": rounds.median_wall("plain"),
            "cpu_s": statistics.median(rounds.cpu["plain"]),
            # Read before the cold starts below, which are children too.
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": scaled_cold_starts("setup", workload.setup_argv(seed)),
        }
    else:
        sequential = "sequential" if workload.jobs > 1 else "plain"
        metrics = layer_metrics(tracer, len(rounds.wall["traced"]))
        metrics["harness.pool_efficiency"] = rounds.median_wall(sequential) / (
            workload.jobs * rounds.median_wall("plain"))
        metrics["cli.import_s"] = scaled_cold_starts("import", [])
        metrics["trace.overhead_s"] = rounds.median_wall("traced") - rounds.median_wall(sequential)

    result = {
        "correct": not rounds.problems,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{seed}-trace{args.trace}"
    detail = dict(result, rounds_wall_s=rounds.wall, rounds_cpu_s=rounds.cpu,
                  rounds_raw_wall_cpu_s=rounds.raw, problems=rounds.problems)
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=2) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.jsonl", first_round_spans)
    for problem in rounds.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
