"""The benchmark's workloads: their inputs, the CLI calls that run them, and their checks.

Every workload goes through ``swarmdescent.cli.main``, so argument parsing,
preset loading, config build, the harness and serialization stay on the path
a user runs.  An operation is one seeded run of a batch or one grid point of
a sweep.  A round is one whole pass over a workload's operations, given as
a list of steps; the benchmark probes the machine's speed between steps,
so no step is much longer than the swings it has to follow.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from reference import (
    FORMULAS,
    SUCCESS_HALF_WIDTH,
    binomial_band,
    close,
    initial_positions,
    loads_strict,
    not_above,
)


@dataclass
class Outcome:
    """Operations attempted in one step, how many failed, successes, and what the checks found wrong."""

    ops: int
    failed: int = 0
    successes: int = 0
    problems: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Batch:
    """`swarmdescent bench` batches of a shipped preset, and what the benchmark knows of their inputs.

    A round makes ``calls`` batches of ``runs`` runs each; batch ``i`` of the
    round for seed ``N`` has the seed ``calls * N + i``.  The preset's
    objective, swarm size and box are restated here rather than read from the
    package, and checked against the config each report echoes.
    """

    preset: str
    method: str
    objective: str
    dim: int
    shift_b: float
    n_agents: int
    box: tuple[float, float]
    runs: int
    calls: int
    paper_rate: float
    lower_bounded: bool

    def seeds(self, seed: int) -> list[int]:
        return [self.calls * seed + i for i in range(self.calls)]

    def argv(self, seed: int, jobs: int) -> list[str]:
        return ["bench", "--preset", self.preset, "--m", str(self.runs),
                "--seed", str(seed), "--jobs", str(jobs)]

    def band_problems(self, successes: int) -> list[str]:
        """Check a round's success count against the binomial band around the paper's rate."""
        total = self.runs * self.calls
        lo, hi = binomial_band(total, self.paper_rate)
        lo = lo if self.lower_bounded else 0
        if lo <= successes <= hi:
            return []
        return [f"{self.preset}: {successes}/{total} successes outside the band [{lo}, {hi}]"
                f" around the paper's {self.paper_rate:.1%}"]

    def check(self, seed: int, rc: int, text: str) -> Outcome:
        """Check one report; runs with non-finite output count as failed operations."""
        out = Outcome(self.runs)
        if rc != 0:
            out.failed = self.runs
            out.problems.append(f"{self.preset}: exit code {rc}")
            return out
        try:
            report = loads_strict(text)
        except ValueError as exc:
            out.failed = self.runs
            out.problems.append(f"{self.preset}: report is not strict JSON: {exc}")
            return out
        try:
            self._check_report(seed, report, out)
        except (KeyError, TypeError, ValueError) as exc:
            out.problems.append(f"{self.preset}: malformed report: {exc!r}")
        return out

    def _check_report(self, seed: int, report: dict, out: Outcome) -> None:
        cfg = report["config"]
        expected = {
            "objective": (self.objective, self.dim, self.shift_b),
            "method": self.method,
            "n": self.n_agents,
            "m": self.runs,
            "seed": seed,
            "init_box": [[self.box[0]] * self.dim, [self.box[1]] * self.dim],
        }
        echoed = {
            "objective": (cfg["objective"]["name"], cfg["objective"]["d"], cfg["objective"]["b"]),
            "method": cfg["method"]["name"],
            "n": cfg["n"],
            "m": cfg["m"],
            "seed": cfg["seed"],
            "init_box": cfg["init_box"],
        }
        if echoed != expected:
            out.problems.append(f"{self.preset}: config {echoed} is not {expected}")
        runs = report["per_run"]
        if len(runs) != self.runs:
            out.problems.append(f"{self.preset}: {len(runs)} runs reported, {self.runs} asked")
        formula = FORMULAS[self.objective]
        successes = 0
        for k, run in enumerate(runs):
            x, f = run["x_sol"], run["f_sol"]
            if len(x) != self.dim or not all(math.isfinite(v) for v in [*x, f]):
                out.failed += 1
                continue
            if not close(f, formula(x, self.shift_b)):
                out.problems.append(f"{self.preset} run {k}: f_sol {f!r} is not F(x_sol)")
            starts = initial_positions(seed, k, self.n_agents, self.dim, *self.box)
            best_start = min(formula(p, self.shift_b) for p in starts)
            if not not_above(f, best_start):
                out.problems.append(
                    f"{self.preset} run {k}: f_sol {f!r} above the best start {best_start!r}")
            success = all(abs(v - self.shift_b) <= SUCCESS_HALF_WIDTH for v in x)
            if run["success"] is not success:
                out.problems.append(f"{self.preset} run {k}: success flag is not {success}")
            successes += success
        if report["success_rate"] != successes / self.runs:
            out.problems.append(
                f"{self.preset}: success_rate {report['success_rate']!r} is not {successes}/{self.runs}")
        out.successes = successes


SBGD_ACKLEY2D = Batch("ackley2d-b10-sbgd11-n100", "sbgd", "ackley", 2, 10.0, 100,
                      (-3.0, 3.0), runs=10, calls=6, paper_rate=0.984, lower_bounded=True)
GDBT_ACKLEY2D = Batch("ackley2d-b10-gdbt-n100", "gdbt", "ackley", 2, 10.0, 100,
                      (-3.0, 3.0), runs=40, calls=1, paper_rate=0.006, lower_bounded=False)


class BatchWorkload:
    """Rounds of batches, one step per batch.

    The warm-up round runs sequentially; every later report, pooled or not,
    must equal its batch's warm-up report byte for byte.
    """

    def __init__(self, batch: Batch, jobs: int = 1):
        self.batch = batch
        self.jobs = jobs
        self.ops = batch.runs * batch.calls
        self.reference: dict[int, str] = {}

    def setup_argv(self, seed: int) -> list[str]:
        return self.batch.argv(self.batch.seeds(seed)[0], self.jobs)

    def first_round(self, call, seed: int) -> list:
        return self.round(call, seed, jobs=1)

    def round(self, call, seed: int, jobs: int | None = None) -> list:
        successes: list[int] = []
        return [functools.partial(self._step, call, batch_seed, jobs or self.jobs, successes)
                for batch_seed in self.batch.seeds(seed)]

    def _step(self, call, seed: int, jobs: int, successes: list[int]) -> Outcome:
        rc, text, err = call(self.batch.argv(seed, jobs))
        out = self.batch.check(seed, rc, text)
        if err:
            out.problems.append(f"{self.batch.preset}: stderr: {err.strip()[:200]}")
        if text != self.reference.setdefault(seed, text):
            out.problems.append(f"{self.batch.preset} seed {seed}: the jobs={jobs} report differs"
                                " from the sequential one")
        successes.append(out.successes)
        if len(successes) == self.batch.calls:
            out.problems += self.batch.band_problems(sum(successes))
        return out


SWEEP_OBJECTIVES = ("ackley1d", "rastrigin1d", "flatbasin1d")
SWEEP_METHODS = ("sbgd", "gdbt")
SWEEP_BOX = (-3.0, 3.0)
SWEEP_STEPS = 20


def sweep_grid(seed: int, objective_index: int) -> tuple[float, float]:
    """Ends of one objective's grid: [-3, 3] moved by under half a grid step, drawn from the seed."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(objective_index,)))
    step = (SWEEP_BOX[1] - SWEEP_BOX[0]) / (SWEEP_STEPS - 1)
    shift = float(rng.uniform(-0.5, 0.5)) * step
    return SWEEP_BOX[0] + shift, SWEEP_BOX[1] + shift


def sweep_argv(objective: str, method: str, lo: float, hi: float) -> list[str]:
    return ["sweep", "--objective", objective, "--method", method,
            f"--from={lo!r}", f"--to={hi!r}", "--steps", str(SWEEP_STEPS)]


def _sweep_rows(rc: int, text: str) -> list[tuple[float, float] | None]:
    """Parsed ``x0,final`` rows, ``None`` for a row that is missing or not finite."""
    rows: list[tuple[float, float] | None] = [None] * SWEEP_STEPS
    if rc != 0:
        return rows
    lines = text.splitlines()
    if len(lines) != SWEEP_STEPS:
        raise ValueError(f"{len(lines)} rows for {SWEEP_STEPS} grid points")
    for i, line in enumerate(lines):
        try:
            x0, final = (float(v) for v in line.split(","))
        except ValueError:
            continue
        if math.isfinite(x0) and math.isfinite(final):
            rows[i] = (x0, final)
    return rows


def check_sweep_pair(objective: str, lo: float, hi: float, outputs: dict) -> Outcome:
    """Check the SBGD and GD(BT) sweeps of one objective.

    ``outputs`` maps each method to ``(rc, stdout)``.  One SBGD agent is
    GD(BT), so the two maps must agree bit for bit; every terminal point must
    also be no higher than its start.
    """
    out = Outcome(SWEEP_STEPS * len(SWEEP_METHODS))
    formula = FORMULAS[objective]
    grid = np.linspace(lo, hi, SWEEP_STEPS)
    texts = {}
    for method, (rc, text) in outputs.items():
        texts[method] = text
        try:
            rows = _sweep_rows(rc, text)
        except ValueError as exc:
            out.problems.append(f"{objective}/{method}: {exc}")
            continue
        for i, row in enumerate(rows):
            if row is None:
                out.failed += 1
                continue
            x0, final = row
            if x0 != grid[i]:
                out.problems.append(f"{objective}/{method} row {i}: start {x0!r} is not {grid[i]!r}")
            if not not_above(formula([final]), formula([x0])):
                out.problems.append(f"{objective}/{method}: F({final!r}) > F({x0!r})")
    if len(set(texts.values())) != 1:
        out.problems.append(f"{objective}: the SBGD and GD(BT) maps differ")
    return out


class SweepWorkload:
    """Single-agent basin sweeps, SBGD and GD(BT) over the same seeded grids."""

    ops = SWEEP_STEPS * len(SWEEP_METHODS) * len(SWEEP_OBJECTIVES)
    jobs = 1

    def setup_argv(self, seed: int) -> list[str]:
        return sweep_argv(SWEEP_OBJECTIVES[0], SWEEP_METHODS[0], *sweep_grid(seed, 0))

    def first_round(self, call, seed: int) -> list:
        return self.round(call, seed)

    def round(self, call, seed: int, jobs: int | None = None) -> list:
        """Steps of one round: one per sweep; each objective's second sweep also checks the pair."""
        outputs: dict = {}
        return [functools.partial(self._step, call, seed, j, method, outputs)
                for j in range(len(SWEEP_OBJECTIVES)) for method in SWEEP_METHODS]

    def _step(self, call, seed: int, j: int, method: str, outputs: dict) -> Outcome:
        objective = SWEEP_OBJECTIVES[j]
        lo, hi = sweep_grid(seed, j)
        rc, text, err = call(sweep_argv(objective, method, lo, hi))
        outputs[objective, method] = (rc, text)
        stderr = [f"{objective}/{method}: stderr: {err.strip()[:200]}"] if err else []
        if method != SWEEP_METHODS[-1]:
            return Outcome(0, problems=stderr)
        out = check_sweep_pair(objective, lo, hi, {m: outputs[objective, m] for m in SWEEP_METHODS})
        out.problems += stderr
        return out


WORKLOADS = {
    "sbgd-ackley2d": lambda: BatchWorkload(SBGD_ACKLEY2D),
    "gdbt-ackley2d": lambda: BatchWorkload(GDBT_ACKLEY2D),
    "sweep-1d": SweepWorkload,
    "sbgd-ackley2d-pool": lambda: BatchWorkload(SBGD_ACKLEY2D, jobs=2),
}
