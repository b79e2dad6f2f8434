"""Seeded experiment harness: batches of independent runs and their statistics.

A batch of ``m`` runs draws the initial agent positions of run ``k`` from the
generator seeded with ``SeedSequence(base_seed, spawn_key=(k,))``, so run
streams are independent, reproducible, and order-insensitive under
parallelism.  Sampling draws one uniform per coordinate per agent, agent
index moving slowest, so the stream layout is fixed.

The runs of a batch advance in lockstep, as one array of agents (see
:mod:`~swarmdescent.swarm`); each run's result does not depend on
which runs share its batch.  With ``jobs`` > 1 the batch is split into
``jobs`` contiguous blocks of runs, one process-pool task per block, so the
report is the same for any ``jobs``.

A run succeeds when its solution lies in the closed box
``[x* - half_width, x* + half_width]^d``.  Error metrics follow the
conventions of the benchmark tables: ``mean_sq_error`` carries a ``1/d``
normalization, ``avg_loss`` averages the objective at the solutions.
"""

from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .baselines import BaselineMethod, BaselineParams, run_baseline_batch
from .linesearch import BacktrackParams, backtrack
from .objectives import Objective
from .swarm import RunResult, SBGDParams, run_sbgd_batch

__all__ = [
    "CorrectionResult",
    "ExperimentConfig",
    "ExperimentReport",
    "basin_sweep",
    "is_success",
    "precondition_and_correct",
    "report_to_dict",
    "report_to_json",
    "run_experiment",
    "solution_histogram",
    "write_histogram_csv",
    "write_report_csv",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce a batch of runs.

    ``init_lo``/``init_hi`` are the per-coordinate bounds of the uniform
    initialization box; scalars are broadcast to the objective's dimension.
    """

    objective: Objective
    method: SBGDParams | BaselineParams
    n_agents: int
    n_runs: int
    seed: int
    init_lo: tuple[float, ...] = (-3.0,)
    init_hi: tuple[float, ...] = (3.0,)
    success_half_width: float = 0.25

    def __post_init__(self) -> None:
        if not isinstance(self.method, (SBGDParams, BaselineParams)):
            raise ValueError(f"method must be SBGDParams or BaselineParams, got {self.method!r}")
        if self.n_agents < 1:
            raise ValueError(f"n_agents must be at least 1, got {self.n_agents}")
        if self.n_runs < 1:
            raise ValueError(f"n_runs must be at least 1, got {self.n_runs}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        d = self.objective.dimension
        lo = self._as_bound(self.init_lo, d)
        hi = self._as_bound(self.init_hi, d)
        if not all(a < b for a, b in zip(lo, hi)):
            raise ValueError(f"init box must satisfy lo < hi componentwise, got {lo} and {hi}")
        object.__setattr__(self, "init_lo", lo)
        object.__setattr__(self, "init_hi", hi)
        if not self.success_half_width > 0.0:
            raise ValueError(f"success_half_width must be positive, got {self.success_half_width}")

    @staticmethod
    def _as_bound(value, d: int) -> tuple[float, ...]:
        arr = np.atleast_1d(np.asarray(value, dtype=float))
        if arr.size == 1:
            arr = np.full(d, arr[0])
        if arr.shape != (d,):
            raise ValueError(f"init box bound must be a scalar or length-{d}, got shape {arr.shape}")
        return tuple(float(v) for v in arr)


@dataclass
class ExperimentReport:
    """Aggregates over a batch of runs; every field is recomputable from ``per_run``."""

    config: ExperimentConfig
    success_rate: float
    mean_sq_error: float
    mean_abs_error: float
    avg_loss: float
    mean_solution: np.ndarray
    per_run: list[RunResult]


@dataclass
class CorrectionResult:
    """Outcome of the mean-solution correction descent."""

    x_corrected: np.ndarray
    f_corrected: float
    err_inf: float
    converged: bool
    iterations: int


def is_success(x_sol, x_star, half_width: float = 0.25) -> bool:
    """True iff ``x_sol`` lies in the closed box ``[x* - hw, x* + hw]^d``."""
    a = np.atleast_1d(np.asarray(x_sol, dtype=float))
    b = np.atleast_1d(np.asarray(x_star, dtype=float))
    if a.shape != b.shape:
        raise ValueError(f"x_sol and x_star must have equal shapes, got {a.shape} and {b.shape}")
    return bool(np.all(np.abs(a - b) <= half_width))


def sample_initial_positions(cfg: ExperimentConfig, run_index: int) -> np.ndarray:
    """Initial (N, d) positions for run ``run_index`` of the batch."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(run_index,)))
    lo = np.array(cfg.init_lo)
    hi = np.array(cfg.init_hi)
    return rng.uniform(lo, hi, size=(cfg.n_agents, cfg.objective.dimension))


def _run_batch(obj: Objective, method: SBGDParams | BaselineParams, starts) -> list[RunResult]:
    if isinstance(method, SBGDParams):
        return run_sbgd_batch(obj, starts, method)
    return run_baseline_batch(obj, starts, method)


def _run_block(cfg: ExperimentConfig, first: int, stop: int) -> list[RunResult]:
    """Execute runs ``first`` to ``stop - 1`` of the batch together."""
    starts = np.stack([sample_initial_positions(cfg, k) for k in range(first, stop)])
    return _run_batch(cfg.objective, cfg.method, starts)


def run_single(cfg: ExperimentConfig, run_index: int) -> RunResult:
    """Execute run ``run_index`` of the batch."""
    return _run_block(cfg, run_index, run_index + 1)[0]


def run_experiment(cfg: ExperimentConfig, jobs: int | None = 1) -> ExperimentReport:
    """Run the whole batch and aggregate.

    ``jobs`` > 1 (or ``None`` for all available cores) splits the runs into
    that many contiguous blocks and runs each block in a process pool;
    results are always ordered by run index, so the report is identical
    either way.
    """
    m = cfg.n_runs
    if jobs is None or jobs < 1:
        jobs = os.cpu_count() or 1
    jobs = min(jobs, m)
    if jobs == 1:
        results = _run_block(cfg, 0, m)
    else:
        edges = [m * j // jobs for j in range(jobs + 1)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            blocks = pool.map(_run_block, repeat(cfg), edges[:-1], edges[1:])
            results = [r for block in blocks for r in block]
    solutions = np.stack([r.x_sol for r in results])
    diffs = solutions - cfg.objective.minimizer
    successes = np.all(np.abs(diffs) <= cfg.success_half_width, axis=1)
    d = cfg.objective.dimension
    return ExperimentReport(
        config=cfg,
        success_rate=float(np.count_nonzero(successes) / m),
        mean_sq_error=float(np.mean(np.sum(diffs * diffs, axis=1)) / d),
        mean_abs_error=float(np.mean(np.sqrt(np.sum(diffs * diffs, axis=1)))),
        avg_loss=float(np.mean([r.f_sol for r in results])),
        mean_solution=solutions.mean(axis=0),
        per_run=results,
    )


def precondition_and_correct(
    report: ExperimentReport,
    obj: Objective | None = None,
    grad_tol: float = 1e-3,
    params: BacktrackParams | None = None,
    max_iters: int = 10000,
) -> CorrectionResult:
    """Refine the batch's mean solution by full-weight backtracking descent.

    Averaging the per-run solutions cancels symmetric scatter; the descent
    then pulls the average onto the nearby critical point, stopping once
    ``|grad F| < grad_tol``.  A stalled line search (step 0: the Armijo
    condition fails at floating-point resolution) also ends the descent,
    which near conical minima is as converged as double precision allows.
    ``converged`` reports whether the gradient test itself was met.
    """
    if obj is None:
        obj = report.config.objective
    if params is None:
        params = getattr(report.config.method, "backtrack", None) or BacktrackParams()
    x = np.array(report.mean_solution, dtype=float)
    f = obj.evaluate(x)
    converged = False
    iterations = 0
    while iterations < max_iters:
        g = obj.gradient(x)
        if float(np.sqrt(np.sum(g * g))) < grad_tol:
            converged = True
            break
        h, f_new, _ = backtrack(obj, x, g, params.lam, params, f_x=f)
        if h == 0.0:
            break
        iterations += 1
        x = x - h * g
        f = f_new
    err_inf = float(np.max(np.abs(x - obj.minimizer)))
    return CorrectionResult(
        x_corrected=x, f_corrected=float(f), err_inf=err_inf, converged=converged,
        iterations=iterations,
    )


def solution_histogram(
    per_run: list[RunResult], bin_width: float = 1e-4, coord: int | None = None
) -> list[tuple[float, int]]:
    """Histogram of one solution coordinate with fixed-width bins.

    Bins partition the real line as ``[i*w, (i+1)*w)``; only non-empty bins
    are returned, as ``(bin_center, count)`` sorted by center.  ``coord``
    may be omitted only for 1-D solutions.
    """
    if not per_run:
        raise ValueError("per_run must be non-empty")
    if not bin_width > 0.0:
        raise ValueError(f"bin_width must be positive, got {bin_width}")
    d = per_run[0].x_sol.shape[0]
    if coord is None:
        if d != 1:
            raise ValueError(f"solutions are {d}-dimensional; pass an explicit coord")
        coord = 0
    if not 0 <= coord < d:
        raise ValueError(f"coord {coord} out of range for dimension {d}")
    values = np.array([r.x_sol[coord] for r in per_run])
    bins = np.floor(values / bin_width).astype(np.int64)
    uniq, counts = np.unique(bins, return_counts=True)
    return [(float((i + 0.5) * bin_width), int(c)) for i, c in zip(uniq, counts)]


def basin_sweep(
    obj: Objective, method: SBGDParams | BaselineParams, starts
) -> list[tuple[float, float]]:
    """Map 1-D starting points to the terminal point of a single-agent run.

    The runs from all starting points advance together, as one batch.
    """
    if obj.dimension != 1:
        raise ValueError(f"basin sweeps are 1-D only; objective has dimension {obj.dimension}")
    grid = np.atleast_1d(np.asarray(starts, dtype=float)).ravel()
    if grid.size < 1:
        raise ValueError("starts must be non-empty")
    results = _run_batch(obj, method, grid.reshape(-1, 1, 1))
    return [(float(x0), float(r.x_sol[0])) for x0, r in zip(grid, results)]


def _objective_to_dict(obj: Objective) -> dict:
    out = {
        "name": obj.kind.value,
        "d": obj.dimension,
        "b": obj.shift_b,
        "c": obj.shift_c,
    }
    if obj.kind.value == "quadratic":
        out["mu"] = obj.mu
    return out


def _method_to_dict(method: SBGDParams | BaselineParams) -> dict:
    if isinstance(method, SBGDParams):
        bt = method.backtrack
        return {
            "name": "sbgd",
            "p": method.p,
            "q": method.q,
            "lambda": bt.lam,
            "gamma": bt.gamma,
            "h0": bt.h0,
            "h_floor": bt.h_floor,
            "tolm": method.tolm,
            "tolmerge": method.tolmerge,
            "tolres": method.tolres,
            "eps_eta": method.eps_eta,
            "max_iters": method.max_iters,
        }
    out: dict = {"name": method.method.value}
    if method.method is BaselineMethod.GD_BACKTRACK:
        bt = method.backtrack
        out.update({"lambda": bt.lam, "gamma": bt.gamma, "h0": bt.h0, "h_floor": bt.h_floor})
    else:
        out["h"] = method.h
    if method.method is BaselineMethod.ADAM:
        out.update({
            "adam_beta1": method.adam_beta1,
            "adam_beta2": method.adam_beta2,
            "adam_eps": method.adam_eps,
        })
    out.update({"tolres": method.tolres, "max_iters": method.max_iters})
    return out


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return {
        "objective": _objective_to_dict(cfg.objective),
        "method": _method_to_dict(cfg.method),
        "n": cfg.n_agents,
        "m": cfg.n_runs,
        "seed": cfg.seed,
        "init_box": [list(cfg.init_lo), list(cfg.init_hi)],
        "success_half_width": cfg.success_half_width,
    }


def run_result_to_dict(result: RunResult, cfg: ExperimentConfig | None = None) -> dict:
    out = {
        "x_sol": [float(v) for v in result.x_sol],
        "f_sol": result.f_sol,
        "iterations": result.iterations,
        "objective_evals": result.objective_evals,
        "gradient_evals": result.gradient_evals,
        "stop_reason": result.stop_reason.value,
    }
    if cfg is not None:
        out["success"] = is_success(result.x_sol, cfg.objective.minimizer, cfg.success_half_width)
    return out


def report_to_dict(report: ExperimentReport) -> dict:
    cfg = report.config
    return {
        "config": config_to_dict(cfg),
        "success_rate": report.success_rate,
        "mean_sq_error": report.mean_sq_error,
        "mean_abs_error": report.mean_abs_error,
        "avg_loss": report.avg_loss,
        "mean_solution": [float(v) for v in report.mean_solution],
        "per_run": [run_result_to_dict(r, cfg) for r in report.per_run],
    }


def report_to_json(report: ExperimentReport) -> str:
    """Serialize a report; floats keep their shortest exact decimal form."""
    return json.dumps(report_to_dict(report), indent=2)


def write_report_csv(report: ExperimentReport, path) -> None:
    """One row per run: index, seed spawn key, success, metrics, solution coords."""
    cfg = report.config
    x_star = cfg.objective.minimizer
    d = cfg.objective.dimension
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["run", "seed", "success", "f_sol", "iterations", "objective_evals",
             "gradient_evals", "stop_reason"] + [f"x{i}" for i in range(d)]
        )
        for k, r in enumerate(report.per_run):
            writer.writerow(
                [k, f"{cfg.seed}.{k}", int(is_success(r.x_sol, x_star, cfg.success_half_width)),
                 repr(r.f_sol), r.iterations, r.objective_evals, r.gradient_evals,
                 r.stop_reason.value] + [repr(float(v)) for v in r.x_sol]
            )


def write_histogram_csv(histogram: list[tuple[float, int]], path) -> None:
    """Two columns: bin center, count."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_center", "count"])
        for center, count in histogram:
            writer.writerow([repr(center), count])
