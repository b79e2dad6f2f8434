"""Seeded experiment harness: batches of independent runs and their statistics.

A batch of ``m`` runs draws the initial agent positions of run ``k`` from the
generator seeded with ``SeedSequence(base_seed, spawn_key=(k,))``, so run
streams are independent, reproducible, and order-insensitive under
parallelism.  Sampling draws one uniform per coordinate per agent, agent
index moving slowest, so the stream layout is fixed.

The runs of a batch advance in lockstep, as one array of agents (see
:mod:`~swarmdescent.swarm`); each run's result does not depend on
which runs share its batch.  ``jobs`` bounds the worker processes: the
batch is split into at most ``jobs`` contiguous blocks of at least
``_MIN_BLOCK_RUNS`` runs, one process-pool task per block, and a batch too
small for two such blocks runs in this process.  The report is the same for
any ``jobs``.

A run succeeds when its solution lies in the closed box
``[x* - half_width, x* + half_width]^d``.  Error metrics follow the
conventions of the benchmark tables: ``mean_sq_error`` carries a ``1/d``
normalization, ``avg_loss`` averages the objective at the solutions.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter

import numpy as np

from .baselines import BaselineMethod, BaselineParams, run_baseline_batch
from .linesearch import BacktrackParams, backtrack_batch
from .objectives import OBJECTIVE_NAMES, Objective, make_objective
from .swarm import RunResult, SBGDParams, run_sbgd_batch

__all__ = [
    "CorrectionResult",
    "ExperimentConfig",
    "ExperimentReport",
    "basin_sweep",
    "is_success",
    "precondition_and_correct",
    "report_to_dict",
    "run_experiment",
    "solution_histogram",
    "write_histogram_csv",
    "write_report_csv",
]

SEED_ENV_VAR = "SWARM_DESCENT_SEED"
METHOD_NAMES = ("sbgd", *(method.value for method in BaselineMethod))


@dataclass(frozen=True)
class ConfigKey:
    """One key of the flat config document that presets, config files and flags share.

    ``help`` is the flag's help, ``None`` for a fixed parameter the report
    echoes but no source sets; ``choices`` limits the flag's values.  A run
    reads the key when its command, method and objective are all among the
    key's.  ``field`` is its attribute path in an :class:`ExperimentConfig`;
    only keys no parameter class owns have a ``default``.
    """

    kind: type
    help: str | None
    field: str | None = None
    default: object = None
    commands: tuple[str, ...] = ("run", "bench", "sweep")
    methods: tuple[str, ...] = METHOD_NAMES
    objectives: tuple[str, ...] = OBJECTIVE_NAMES
    choices: tuple[str, ...] | None = None


_BATCH, _LADDER, _SBGD = ("run", "bench"), ("sbgd", "gdbt"), ("sbgd",)

# Every config key, in the order of the flags and of each report echo.
CONFIG_KEYS = {
    "objective": ConfigKey(str, f"one of: {', '.join(OBJECTIVE_NAMES)}"),
    "d": ConfigKey(int, "ambient dimension (fixed-dimension objectives infer it)", "objective.dimension"),
    "b": ConfigKey(float, "minimizer shift applied along the all-ones direction", "objective.shift_b"),
    "c": ConfigKey(float, "additive offset of the minimum value", "objective.shift_c"),
    "mu": ConfigKey(float, "curvature of the quadratic objective", "objective.mu", objectives=("quadratic",)),
    "method": ConfigKey(str, "optimizer to run", default="sbgd", choices=METHOD_NAMES),
    "n": ConfigKey(int, "number of agents", "n_agents", 1, _BATCH),
    "m": ConfigKey(int, "number of independent runs", "n_runs", 1, ("bench",)),
    "seed": ConfigKey(int, f"base seed (overrides ${SEED_ENV_VAR})", "seed", 0, _BATCH),
    "init_box": ConfigKey(list, "uniform initialization box, e.g. --init-box=-3,-1", commands=_BATCH),
    "h": ConfigKey(float, "step size for gd/adam", "method.h", methods=("gd", "adam")),
    "p": ConfigKey(float, "mass-transition exponent", "method.p", methods=_SBGD),
    "q": ConfigKey(float, "relative-mass exponent in the step rule", "method.backtrack.q", methods=_SBGD),
    "lambda": ConfigKey(float, "descent parameter", "method.backtrack.lam", methods=_LADDER),
    "gamma": ConfigKey(float, "backtracking shrinkage factor", "method.backtrack.gamma", methods=_LADDER),
    "h0": ConfigKey(float, "initial backtracking step", "method.backtrack.h0", methods=_LADDER),
    "h_floor": ConfigKey(float, None, "method.backtrack.h_floor", methods=_LADDER),
    "tolm": ConfigKey(float, "mass elimination threshold", "method.tolm", methods=_SBGD),
    "tolmerge": ConfigKey(float, "agent merge distance", "method.tolmerge", methods=_SBGD),
    "adam_beta1": ConfigKey(float, None, "method.adam_beta1", methods=("adam",)),
    "adam_beta2": ConfigKey(float, None, "method.adam_beta2", methods=("adam",)),
    "adam_eps": ConfigKey(float, None, "method.adam_eps", methods=("adam",)),
    "tolres": ConfigKey(float, "residual stopping threshold", "method.tolres"),
    "eps_eta": ConfigKey(float, None, "method.eps_eta", methods=_SBGD),
    "max_iters": ConfigKey(int, "iteration cap", "method.max_iters"),
}

# Fewest runs per pool task.  Starting a pool costs tens of milliseconds, so
# small batches run faster in this process.  On a 2-vCPU machine (break-even
# table in CHANGES.md) the 2-D and 20-D preset shapes gain from 16 runs per
# task on, and the cheapest 1-D shapes only from about 64; at 20, every
# preset's own batch keeps its pool.
_MIN_BLOCK_RUNS = 20


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
        # A NaN or infinite bound makes its width NaN or infinite too.
        if not all(math.isfinite(b - a) for a, b in zip(lo, hi)):
            raise ValueError(f"init box must have finite bounds and a finite width hi - lo, got {lo} and {hi}")
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
    """Aggregates over a batch of runs; every field is recomputable from ``per_run``.

    ``successes`` holds :func:`is_success` of each run, in run order.
    """

    config: ExperimentConfig
    success_rate: float
    mean_sq_error: float
    mean_abs_error: float
    avg_loss: float
    mean_solution: np.ndarray
    per_run: list[RunResult]
    successes: list[bool]


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


def _block_count(n_runs: int, jobs: int | None) -> int:
    """Pool tasks for a batch of ``n_runs`` runs; 1 means no pool.

    At most ``jobs`` (all cores for ``None``), each task of at least
    ``_MIN_BLOCK_RUNS`` runs.
    """
    if jobs is None:
        jobs = os.cpu_count() or 1
    elif jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    return max(1, min(jobs, n_runs // _MIN_BLOCK_RUNS))


def _process_pool(workers: int):
    """A process pool of ``workers`` worker processes.

    Its module pulls in ``multiprocessing``, tens of milliseconds of start-up,
    so it is imported here, by the batches that start a pool, and not by every
    CLI call.
    """
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def run_experiment(cfg: ExperimentConfig, jobs: int | None = 1) -> ExperimentReport:
    """Run the whole batch and aggregate.

    ``jobs`` is an upper bound on the worker processes, ``None`` meaning all
    available cores.  The runs are split into at most ``jobs`` contiguous
    blocks of at least ``_MIN_BLOCK_RUNS`` runs each, run in a process pool
    that ends with this call; a batch too small for two such blocks runs in
    this process.  Results are always ordered by run index, so the report is
    the same for any ``jobs``.  ``jobs`` < 1 raises :class:`ValueError`.
    """
    m = cfg.n_runs
    n_blocks = _block_count(m, jobs)
    if n_blocks == 1:
        results = _run_block(cfg, 0, m)
    else:
        edges = [m * j // n_blocks for j in range(n_blocks + 1)]
        with _process_pool(n_blocks) as pool:
            blocks = pool.map(_run_block, repeat(cfg), edges[:-1], edges[1:])
            results = [r for block in blocks for r in block]
    x_star = cfg.objective.minimizer
    successes = [is_success(r.x_sol, x_star, cfg.success_half_width) for r in results]
    solutions = np.stack([r.x_sol for r in results])
    diffs = solutions - x_star
    d = cfg.objective.dimension
    return ExperimentReport(
        config=cfg,
        success_rate=sum(successes) / m,
        mean_sq_error=float(np.mean(np.sum(diffs * diffs, axis=1)) / d),
        mean_abs_error=float(np.mean(np.sqrt(np.sum(diffs * diffs, axis=1)))),
        avg_loss=float(np.mean([r.f_sol for r in results])),
        mean_solution=solutions.mean(axis=0),
        per_run=results,
        successes=successes,
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
        params = report.config.method.backtrack
    # One agent, as a one-row batch.
    x = np.array(report.mean_solution, dtype=float, ndmin=2)
    f = obj.evaluate_many(x)
    converged = False
    iterations = 0
    while iterations < max_iters:
        g = obj.gradient_many(x)
        if float(np.sqrt(np.sum(g * g))) < grad_tol:
            converged = True
            break
        h, f_new, _ = backtrack_batch(obj, x, g, params.lam, params, f)
        if h[0] == 0.0:
            break
        iterations += 1
        x = x - h[:, None] * g
        f = f_new
    err_inf = float(np.max(np.abs(x[0] - obj.minimizer)))
    return CorrectionResult(
        x_corrected=x[0], f_corrected=float(f[0]), err_inf=err_inf, converged=converged,
        iterations=iterations,
    )


def histogram_coord(d: int, bin_width: float, coord: int | None) -> int:
    """The coordinate :func:`solution_histogram` bins for ``d``-dimensional solutions.

    Raises ``ValueError`` for a ``bin_width`` that is not positive and
    finite, an omitted ``coord`` with ``d != 1``, or a ``coord`` outside
    ``[0, d)``, so the options can be checked before any run.
    """
    if not bin_width > 0.0:
        raise ValueError(f"bin_width must be positive, got {bin_width}")
    if bin_width == np.inf:
        raise ValueError(f"bin_width must be finite, got {bin_width}")
    if coord is None:
        if d != 1:
            raise ValueError(f"solutions are {d}-dimensional; pass an explicit coord")
        coord = 0
    if not 0 <= coord < d:
        raise ValueError(f"coord {coord} out of range for dimension {d}")
    return coord


def solution_histogram(
    per_run: list[RunResult], bin_width: float = 1e-4, coord: int | None = None
) -> list[tuple[float, int]]:
    """Histogram of one solution coordinate with fixed-width bins.

    Bins partition the real line as ``[i*w, (i+1)*w)``; only non-empty bins
    are returned, as ``(bin_center, count)`` sorted by center.  A coordinate
    whose bin index ``floor(x / w)`` is not finite -- a NaN or infinite
    coordinate from a diverged run, or one too large for ``w`` -- falls in
    no bin, so the counts may sum to fewer than the runs.  ``coord`` may be
    omitted only for 1-D solutions.
    """
    if not per_run:
        raise ValueError("per_run must be non-empty")
    coord = histogram_coord(per_run[0].x_sol.shape[0], bin_width, coord)
    values = np.array([r.x_sol[coord] for r in per_run])
    with np.errstate(over="ignore", invalid="ignore"):
        bins = np.floor(values / bin_width)
    uniq, counts = np.unique(bins[np.isfinite(bins)], return_counts=True)
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


def _held(owner: str, reader: str | None = None) -> dict[str, str]:
    """The keys ``owner`` ("objective" or "method") holds and ``reader`` reads, with their paths in it."""
    return {key: spec.field.partition(".")[2] for key, spec in CONFIG_KEYS.items()
            if (spec.field or "").startswith(owner + ".")
            and (reader is None or reader in getattr(spec, owner + "s"))}


def objective_from_dict(doc: dict) -> Objective:
    """The objective a flat config document names; unset keys take the defaults."""
    held = _held("objective")
    return make_objective(doc["objective"], **{path: doc[key] for key, path in held.items() if key in doc})


def method_name(method: SBGDParams | BaselineParams) -> str:
    """The config name of the method that ``method`` parameterizes."""
    return "sbgd" if isinstance(method, SBGDParams) else method.method.value


def method_from_dict(doc: dict) -> SBGDParams | BaselineParams:
    """The method parameters of a flat config document.

    Only the keys of the named method are read; the parameter classes'
    defaults fill the keys the document leaves unset.
    """
    name = doc["method"].strip().lower()
    if name not in METHOD_NAMES:
        raise ValueError(f"unknown method {name!r}; expected one of: {', '.join(METHOD_NAMES)}")
    own, backtrack = {}, {}
    for key, path in _held("method", name).items():
        if key in doc:
            parent, _, field = path.rpartition(".")
            (backtrack if parent else own)[field] = doc[key]
    if name == "sbgd":
        return SBGDParams(backtrack=BacktrackParams(**backtrack), **own)
    return BaselineParams(method=BaselineMethod(name), backtrack=BacktrackParams(**backtrack), **own)


# The keys that fill an ExperimentConfig field of their own: n, m and seed.
_TOP_LEVEL = {key: spec.field for key, spec in CONFIG_KEYS.items() if spec.field and "." not in spec.field}


def config_from_dict(doc: dict) -> ExperimentConfig:
    """The experiment a flat config document describes.

    ``n``, ``m`` and ``seed`` are required; the other keys the document
    leaves unset take the defaults of the classes they configure.
    """
    box = {}
    if "init_box" in doc:
        if len(doc["init_box"]) != 2:
            raise ValueError(f"init_box must be [lo, hi], got {doc['init_box']!r}")
        box = {"init_lo": doc["init_box"][0], "init_hi": doc["init_box"][1]}
    return ExperimentConfig(objective=objective_from_dict(doc), method=method_from_dict(doc),
                            **{field: doc[key] for key, field in _TOP_LEVEL.items()}, **box)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """The config echo: the objective's and the method's names and the keys each reads."""
    echo = {}
    for owner, name in (("objective", cfg.objective.kind.value), ("method", method_name(cfg.method))):
        echo[owner] = {"name": name, **{key: attrgetter(f"{owner}.{path}")(cfg)
                                        for key, path in _held(owner, name).items()}}
    return {**echo, **{key: getattr(cfg, field) for key, field in _TOP_LEVEL.items()},
            "init_box": [list(cfg.init_lo), list(cfg.init_hi)], "success_half_width": cfg.success_half_width}


def run_result_to_dict(result: RunResult, success: bool) -> dict:
    return {
        "x_sol": [float(v) for v in result.x_sol],
        "f_sol": result.f_sol,
        "iterations": result.iterations,
        "objective_evals": result.objective_evals,
        "gradient_evals": result.gradient_evals,
        "stop_reason": result.stop_reason.value,
        "success": success,
    }


def report_to_dict(report: ExperimentReport) -> dict:
    return {
        "config": config_to_dict(report.config),
        "success_rate": report.success_rate,
        "mean_sq_error": report.mean_sq_error,
        "mean_abs_error": report.mean_abs_error,
        "avg_loss": report.avg_loss,
        "mean_solution": [float(v) for v in report.mean_solution],
        "per_run": [
            run_result_to_dict(r, success)
            for r, success in zip(report.per_run, report.successes, strict=True)
        ],
    }


def write_report_csv(report: ExperimentReport, path) -> None:
    """One row per run: index, seed spawn key, success, metrics, solution coords."""
    cfg = report.config
    d = cfg.objective.dimension
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["run", "seed", "success", "f_sol", "iterations", "objective_evals",
             "gradient_evals", "stop_reason"] + [f"x{i}" for i in range(d)]
        )
        for k, (r, success) in enumerate(zip(report.per_run, report.successes, strict=True)):
            writer.writerow(
                [k, f"{cfg.seed}.{k}", int(success),
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
