"""Non-communicating baselines: fixed-step GD, backtracking GD, and Adam.

Each baseline runs ``n`` independent agents in lockstep sweeps.  An agent
retires once its own residual ``|x_next - x|`` falls below ``tolres``;
retired agents stop consuming evaluations.  The best final agent (lowest
objective value, ties by lowest index) provides the run's solution.

Independent runs advance together through the swarm's run loop
(``swarm._lockstep``): their agents sweep as one array, and
each run's sweep count, evaluation counts, stop reason and best agent are
its own, so a run's result does not depend on its batch-mates.

The backtracking variant uses the full descent coefficient ``lam`` for every
agent, which makes a single-agent run identical, bit for bit, to the swarm
dynamics with one agent.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linesearch import BacktrackParams, backtrack_batch
from .objectives import Objective
from .swarm import RunResult, StopReason, _as_starts, _lockstep, _row_norms

__all__ = ["BaselineMethod", "BaselineParams", "run_baseline", "run_baseline_batch"]


class BaselineMethod(Enum):
    """Baseline optimizers; values double as the CLI names."""

    GD_FIXED = "gd"
    GD_BACKTRACK = "gdbt"
    ADAM = "adam"


@dataclass(frozen=True)
class BaselineParams:
    """Parameters for one baseline run.

    ``h`` is the fixed step of GD and the step scale of Adam; the
    backtracking variant takes its ladder from ``backtrack`` instead.
    """

    method: BaselineMethod
    h: float = 0.1
    backtrack: BacktrackParams = BacktrackParams()
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    tolres: float = 1e-4
    max_iters: int = 10000

    def __post_init__(self) -> None:
        if not isinstance(self.method, BaselineMethod):
            raise ValueError(f"method must be a BaselineMethod, got {self.method!r}")
        if not self.h > 0.0:
            raise ValueError(f"h must be positive, got {self.h}")
        if not 0.0 <= self.adam_beta1 < 1.0 or not 0.0 <= self.adam_beta2 < 1.0:
            raise ValueError("adam betas must lie in [0, 1)")
        if not self.adam_eps > 0.0:
            raise ValueError(f"adam_eps must be positive, got {self.adam_eps}")
        if self.tolres < 0.0:
            raise ValueError(f"tolres must be non-negative, got {self.tolres}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")


class _Sweeps:
    """The baselines' run-loop engine: the agents of all runs in one array.

    A run stops in the sweep that retires its last active agent; its agents
    stay in the arrays, inactive, and cost no further evaluations.
    """

    def __init__(self, obj: Objective, params: BaselineParams, init_positions):
        starts = _as_starts(obj, init_positions)
        n_runs, n, d = starts.shape
        self.obj = obj
        self.params = params
        self.n_runs = n_runs
        self.X = starts.reshape(n_runs * n, d)
        self.runs = np.repeat(np.arange(n_runs), n)
        self.active = np.ones(n_runs * n, dtype=bool)
        self.f: np.ndarray | None = None
        self.objective_evals = np.zeros(n_runs, dtype=int)
        if params.method is BaselineMethod.GD_BACKTRACK:
            self.f = obj.evaluate_many(self.X)
            self.objective_evals += n
        if params.method is BaselineMethod.ADAM:
            self.mom1 = np.zeros_like(self.X)
            self.mom2 = np.zeros_like(self.X)
            self.t_step = np.zeros(self.X.shape[0], dtype=int)

    @property
    def record(self) -> np.ndarray:
        return self.X.copy()

    def advance(self):
        params = self.params
        bt = params.backtrack
        idx = np.nonzero(self.active)[0]
        x_act = self.X.take(idx, axis=0)
        grads = self.obj.gradient_many(x_act)
        runs = self.runs[idx]
        objective = np.zeros(self.n_runs, dtype=int)
        if params.method is BaselineMethod.GD_FIXED:
            x_next = x_act - params.h * grads
        elif params.method is BaselineMethod.GD_BACKTRACK:
            tried = np.zeros(idx.size, dtype=int)
            h, f_new, _ = backtrack_batch(self.obj, x_act, grads, bt.lam, bt, self.f[idx], counts=tried)
            objective = np.bincount(runs, weights=tried, minlength=self.n_runs).astype(int)
            x_next = x_act - h[:, None] * grads
            self.f[idx] = f_new
        else:
            self.t_step[idx] += 1
            self.mom1[idx] = params.adam_beta1 * self.mom1[idx] + (1.0 - params.adam_beta1) * grads
            self.mom2[idx] = params.adam_beta2 * self.mom2[idx] + (1.0 - params.adam_beta2) * grads * grads
            m_hat = self.mom1[idx] / (1.0 - params.adam_beta1 ** self.t_step[idx][:, None])
            v_hat = self.mom2[idx] / (1.0 - params.adam_beta2 ** self.t_step[idx][:, None])
            x_next = x_act - params.h * m_hat / (np.sqrt(v_hat) + params.adam_eps)
        residual = _row_norms(x_next - x_act)
        self.X[idx] = x_next
        still = residual >= params.tolres
        self.active[idx] = still
        gradient = np.bincount(runs, minlength=self.n_runs)
        stops = {}
        if not still.all():
            # The runs that stepped this sweep and have no active agent left.
            left = np.bincount(self.runs[self.active], minlength=self.n_runs)
            stops = dict.fromkeys(np.flatnonzero((gradient > 0) & (left == 0)).tolist(), StopReason.RESIDUAL)
        return objective, gradient, stops

    def solution(self, run: int):
        lo, hi = np.searchsorted(self.runs, [run, run + 1])
        X = self.X[lo:hi]
        if self.f is None:
            f, evals = self.obj.evaluate_many(X), hi - lo
        else:
            f, evals = self.f[lo:hi], 0
        # Diverged agents (nan height) must never be picked as the best one.
        i_best = int(np.argmin(np.where(np.isnan(f), np.inf, f)))
        return X[i_best].copy(), float(f[i_best]), evals


def _run(obj: Objective, starts, params: BaselineParams, history: list | None) -> list[RunResult]:
    # Fixed-step GD may genuinely diverge on steep landscapes; overflow then
    # floods an agent with inf/nan.  Such an agent retires (its residual
    # comparison is false) and simply never counts as a success.
    with np.errstate(over="ignore", invalid="ignore"):
        engine = _Sweeps(obj, params, starts)
        return _lockstep(engine, engine.n_runs, params.max_iters, history)


def run_baseline_batch(obj: Objective, init_positions, params: BaselineParams) -> list[RunResult]:
    """Run independent baseline runs from an ``(R, N, d)`` array of starts, in lockstep.

    Result ``k`` equals ``run_baseline(obj, init_positions[k], params)`` bit
    for bit, whatever the other runs are.
    """
    return _run(obj, init_positions, params, None)


def run_baseline(
    obj: Objective,
    init_positions,
    params: BaselineParams,
    keep_history: bool = False,
) -> RunResult:
    """Run independent agents of the chosen baseline until all retire.

    ``history``, when requested, holds a position-array snapshot after each
    sweep.  ``iterations`` counts sweeps, i.e. the longest agent's count.
    """
    starts = np.array(init_positions, dtype=float, ndmin=2)[None]
    return _run(obj, starts, params, [] if keep_history else None)[0]
