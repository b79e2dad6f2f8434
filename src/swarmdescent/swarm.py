"""Swarm-based gradient descent with communicating agents.

A swarm is a set of agents, each carrying a position and a positive mass that
encodes how credible the agent currently is as the global minimizer.  One
iteration of the dynamics:

1. eliminate agents whose mass fell below ``tolm / N0`` (``N0`` = initial
   swarm size), folding their mass into the current minimizer;
2. every surviving agent sheds the fraction ``eta^p`` of its mass to the
   current minimizer, where ``eta`` is its relative height between the
   swarm's best and worst objective values;
3. each agent takes a backtracking gradient step whose Armijo coefficient is
   ``lam * m~^q``, with ``m~`` its mass relative to the current maximum —
   heavy agents demand careful descent, light agents roam with long steps;
4. agents that land within ``tolmerge`` of each other merge, summing masses;
5. the run stops once the distance between consecutive minimizer positions
   drops below ``tolres``.

Total mass is conserved at its initial value (1 for the standard uniform
start) throughout.

Independent runs advance in lockstep: one set of parallel arrays (positions,
masses, heights and run labels) holds the agents of every run still going,
a lone run included, and each iteration steps all of them with one gradient
call and one ladder call.  A run leaves the arrays as soon as it stops.
Every per-run quantity (minimizer, extremes, mass sums, merging, residual)
is computed over that run's agents alone with the same floating-point
operations as for a lone run, so each run's result does not depend on
which runs share its batch.  The baselines step their runs
through the same run loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .linesearch import BacktrackParams, backtrack_batch
from .objectives import Objective

__all__ = [
    "IterationStats",
    "RunResult",
    "SBGDParams",
    "StopReason",
    "run_sbgd",
    "run_sbgd_batch",
]


def _row_norms(diffs: np.ndarray) -> np.ndarray:
    """Euclidean norm per row of an (n, d) array.

    Both the swarm residual and the baseline residuals go through this one
    expression so that single-agent trajectories of the two code paths agree
    bit for bit.
    """
    return np.sqrt(np.sum(diffs * diffs, axis=1))


def _as_starts(obj: Objective, init_positions) -> np.ndarray:
    """The ``(R, N, d)`` starting positions of a batch of runs, as a new float array."""
    starts = np.array(init_positions, dtype=float)
    if starts.ndim != 3 or starts.shape[1] < 1 or starts.shape[2] != obj.dimension:
        raise ValueError(f"init_positions must be (n, {obj.dimension}) per run, "
                         f"got shape {starts.shape[1:]}")
    if not np.isfinite(starts).all():
        raise ValueError("init_positions must be finite, got a NaN or infinite coordinate")
    return starts


def _layout(runs: np.ndarray) -> np.ndarray:
    """Run boundaries of a non-decreasing run-label array: run ``k`` is ``bounds[k]:bounds[k+1]``."""
    return np.concatenate(([True], runs[1:] != runs[:-1], [True])).nonzero()[0]


def _kept_layout(keep: np.ndarray, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run boundaries after dropping the agents ``keep`` rejects, and the kept-agent prefix counts.

    Every run must keep at least one agent.
    """
    seen = keep.cumsum()
    return np.concatenate(([0], seen[bounds[1:] - 1])), seen


def _run_argmin(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Per run, the index ``np.argmin`` picks: the first minimum, or the first NaN if any."""
    starts = bounds[:-1]
    lo = np.minimum.reduceat(values, starts).repeat(bounds[1:] - starts)
    # A run holding a NaN has a NaN minimum, which equals nothing.
    hits = ((values == lo) | np.isnan(values)).nonzero()[0]
    return hits[hits.searchsorted(starts)]


def _run_sums(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Per-run ``.sum()`` between consecutive ``bounds``.

    ``np.add.reduceat`` would add in another order than a lone run's sum and
    differ in the last bits, so each run is summed on its own.
    """
    edges = bounds.tolist()
    return np.array([values[a:b].sum() for a, b in zip(edges[:-1], edges[1:])])


class _Swarm(NamedTuple):
    """The agents of every live run as parallel arrays.

    ``heights`` caches the objective values at ``positions``; ``runs``
    labels each agent's run, the agents of a run contiguous and the labels
    non-decreasing.
    """

    positions: np.ndarray
    masses: np.ndarray
    heights: np.ndarray
    runs: np.ndarray


@dataclass(frozen=True)
class SBGDParams:
    """Parameters of the swarm dynamics.

    ``p`` is the mass-transition exponent (shed fraction ``eta^p``); the
    step-weight exponent ``q`` lives on ``backtrack`` and is exposed here as
    a property so there is a single source of truth.
    """

    p: float = 1.0
    backtrack: BacktrackParams = BacktrackParams()
    tolm: float = 1e-4
    tolmerge: float = 1e-3
    tolres: float = 1e-4
    eps_eta: float = 1e-10
    max_iters: int = 10000

    def __post_init__(self) -> None:
        if not self.p > 0.0:
            raise ValueError(f"p must be positive, got {self.p}")
        for name in ("tolm", "tolmerge", "tolres"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        if not self.eps_eta > 0.0:
            raise ValueError(f"eps_eta must be positive, got {self.eps_eta}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")

    @property
    def q(self) -> float:
        return self.backtrack.q


class StopReason(Enum):
    RESIDUAL = "residual"
    MAX_ITERS = "max_iters"
    SINGLE_STALLED_AGENT = "single_stalled_agent"


@dataclass
class RunResult:
    """Outcome of one optimizer run (swarm or baseline).

    ``x_sol`` is the best final agent position (lowest objective value, ties
    broken by lowest agent index) and ``f_sol`` the objective there.
    ``history`` is populated only on request: per-iteration
    :class:`IterationStats` for the swarm, per-sweep position snapshots for
    the baselines.
    """

    x_sol: np.ndarray
    f_sol: float
    iterations: int
    objective_evals: int
    gradient_evals: int
    stop_reason: StopReason
    history: list | None = None


@dataclass
class IterationStats:
    """Everything observable about one swarm iteration.

    The ``*_before``/``*_after_step`` arrays cover the agents that survived
    elimination, in order, with ``runs`` their run labels and
    ``ladder_evals`` each one's trial evaluations; ``positions``/``masses``/
    ``heights`` describe the post-merge swarm and alias the new swarm's
    arrays.  The counts are totals over the runs the swarm holds.
    ``residual`` holds one entry per run, in label order; in the history of
    a lone run (every ``run_sbgd`` history) it is that run's float.
    """

    eliminated: int
    merged: int
    objective_evals: int
    gradient_evals: int
    heights_before: np.ndarray
    grad_sq_norms: np.ndarray
    effective_descent: np.ndarray
    step_sizes: np.ndarray
    heights_after_step: np.ndarray
    positions: np.ndarray
    masses: np.ndarray
    heights: np.ndarray
    residual: np.ndarray | float
    runs: np.ndarray
    ladder_evals: np.ndarray


def relative_heights(heights: np.ndarray, eps: float, bounds: np.ndarray) -> np.ndarray:
    """Normalized heights ``(F_i - F_min) / (F_max - F_min + eps)``, each run over its own extremes.

    ``bounds`` gives the run boundaries: run ``k`` is ``bounds[k]:bounds[k+1]``.
    Every run's minimizer maps to exactly 0; the regularizer ``eps`` keeps
    the ratio defined when all heights coincide.  Values lie in [0, 1] (the
    upper end is reached only when the spread is so large that ``eps``
    vanishes in rounding).
    """
    starts, counts = bounds[:-1], bounds[1:] - bounds[:-1]
    f_min = np.minimum.reduceat(heights, starts)
    f_max = np.maximum.reduceat(heights, starts)
    return (heights - f_min.repeat(counts)) / (f_max - f_min + eps).repeat(counts)


def transfer_mass(masses: np.ndarray, eta: np.ndarray, p: float, i_min: np.ndarray, total: np.ndarray,
                  bounds: np.ndarray) -> np.ndarray:
    """Shed the fraction ``eta_i^p`` of each agent's mass to its run's minimizer.

    ``i_min`` and ``total`` hold one entry per run, whose boundaries
    ``bounds`` gives as for :func:`relative_heights`.  A minimizer's new
    mass is its run's ``total`` minus the sum of the run's other new masses,
    so each run's total is preserved to rounding no matter how many
    iterations accumulate; ``total`` also folds in the mass of eliminated
    agents.
    """
    if (eta[i_min] != 0.0).any():
        raise ValueError(f"the minimizer must have relative height 0, got {eta[i_min][eta[i_min] != 0.0][0]}")
    out = masses * (1.0 - eta**p)
    others = np.ones(masses.size, dtype=bool)
    others[i_min] = False
    # Run k's other agents sit between its bounds, shifted by the k minimizers before it.
    out[i_min] = total - _run_sums(out[others], bounds - np.arange(bounds.size))
    return out


# Differences below this square to less than the smallest normal double.
_UNDERFLOW_GAP = float(np.sqrt(np.finfo(float).tiny))


def _close_agents(positions: np.ndarray, runs: np.ndarray, tol: float) -> np.ndarray:
    """Indices of agents closer than ``tol`` to another agent of their run, one per close pair.

    Agents are sorted by run and then by first coordinate, and each is
    compared with the following agents of its run while the first-coordinate
    gap stays below ``tol``: two agents closer than ``tol`` are never
    further apart than that in one coordinate.  The gap window does not
    shrink below the scale at which squared differences underflow, where a
    norm can read smaller than one of its coordinates.
    """
    window = max(tol, _UNDERFLOW_GAP)
    x0 = positions[:, 0]
    order = np.lexsort((x0, runs))
    x0, runs, pos = x0[order], runs[order], positions.take(order, axis=0)
    close = [np.zeros(0, dtype=int)]
    lead = np.arange(x0.size - 1)
    gap = 1
    while lead.size:
        near = (runs[lead + gap] == runs[lead]) & (x0[lead + gap] - x0[lead] < window)
        lead = lead[near]
        if not lead.size:
            break
        dist = _row_norms(pos.take(lead + gap, axis=0) - pos.take(lead, axis=0))
        close.append(order[lead[dist < tol]])
        gap += 1
        lead = lead[lead + gap < x0.size]
    return np.concatenate(close)


def _greedy_clusters(positions, masses, heights, tol):
    """Leaders and summed masses of the greedy clusters of one run; ``None`` if nothing merges."""
    n = masses.size
    cluster = np.full(n, -1, dtype=int)
    n_clusters = 0
    for i in range(n):
        if cluster[i] >= 0:
            continue
        cluster[i] = n_clusters
        free = cluster < 0
        if free.any():
            dist = np.linalg.norm(positions[free] - positions[i], axis=1)
            members = np.nonzero(free)[0][dist < tol]
            cluster[members] = n_clusters
        n_clusters += 1
    if n_clusters == n:
        return None
    keep_idx = np.empty(n_clusters, dtype=int)
    merged_mass = np.empty(n_clusters)
    for k in range(n_clusters):
        idx = np.nonzero(cluster == k)[0]
        keep_idx[k] = idx[np.argmin(heights[idx])]
        merged_mass[k] = masses[idx].sum()
    order = np.argsort(keep_idx)
    return keep_idx[order], merged_mass[order]


def _merge_agents(
    positions: np.ndarray, masses: np.ndarray, heights: np.ndarray, tol: float, runs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, np.ndarray | None]:
    """Greedily cluster agents within ``tol`` of a leader and merge each cluster, run by run.

    Clusters grow around leaders in agent order; each cluster keeps the
    position and height of its lowest member (ties: lowest index) and sums
    the masses.  Surviving agents keep their original relative order.
    Returns the merged positions, masses and heights, the number of agents
    merged away, and the mask of agents kept (``None`` when none merged).
    """
    n = masses.size
    keep = None
    # Merges are rare: the greedy loop runs only for the runs a vectorised
    # check flags.  The margin keeps that check conservative against
    # rounding in the loop's distances.
    close = _close_agents(positions, runs, tol * (1.0 + 1e-9))
    for run in np.unique(runs[close]).tolist() if close.size else ():
        lo, hi = np.searchsorted(runs, [run, run + 1]).tolist()
        clusters = _greedy_clusters(positions[lo:hi], masses[lo:hi], heights[lo:hi], tol)
        if clusters is None:
            continue
        if keep is None:
            keep = np.ones(n, dtype=bool)
            masses = masses.copy()
        leaders, cluster_mass = clusters
        keep[lo:hi] = False
        keep[lo + leaders] = True
        masses[lo + leaders] = cluster_mass
    if keep is None:
        return positions, masses, heights, 0, None
    positions, masses, heights = (a.compress(keep, axis=0) for a in (positions, masses, heights))
    return positions, masses, heights, n - int(np.count_nonzero(keep)), keep


def sbgd_iteration(
    swarm: _Swarm, obj: Objective, params: SBGDParams, initial_count: int
) -> tuple[_Swarm, np.ndarray, IterationStats]:
    """Advance every run of the swarm by one full iteration.

    ``initial_count`` is the agent count each run started with.  Returns the
    new swarm, the residual (per run, in label order, the Euclidean distance
    between the new and previous minimizer positions), and an
    :class:`IterationStats` record.
    """
    pos, m, f, runs = swarm
    bounds = _layout(runs)
    total = _run_sums(m, bounds)
    i_min = _run_argmin(f, bounds)
    x_min_prev = pos.take(i_min, axis=0)

    # (1) drop agents whose mass fell below tolm/N0; their mass rejoins the
    # pool via `total` and lands on the minimizer in the transition below.
    keep = m >= params.tolm / initial_count
    keep[i_min] = True
    eliminated = int(keep.size - np.count_nonzero(keep))
    if eliminated:
        bounds, seen = _kept_layout(keep, bounds)
        i_min = seen[i_min] - 1
        pos, m, f, runs = (a.compress(keep, axis=0) for a in (pos, m, f, runs))

    # (2) mass transition driven by relative heights, run by run.
    eta = relative_heights(f, params.eps_eta, bounds)
    m_new = transfer_mass(m, eta, params.p, i_min, total, bounds)

    # (3) mass-weighted backtracking step for every agent of every run.
    starts = bounds[:-1]
    m_rel = m_new / np.maximum.reduceat(m_new, starts).repeat(bounds[1:] - starts)
    coeff = params.backtrack.lam * m_rel**params.backtrack.q
    grads = obj.gradient_many(pos)
    g_sq = np.sum(grads * grads, axis=1)
    ladder = np.zeros(pos.shape[0], dtype=int)
    h, f_step, evals = backtrack_batch(obj, pos, grads, coeff, params.backtrack, f, counts=ladder)
    new_pos = pos - h[:, None] * grads

    # (4) merge agents of one run that landed on top of each other; only a
    # run with two agents or more can have any.
    merged_pos, merged_m, merged_f, merged_away, kept = new_pos, m_new, f_step, 0, None
    if runs.size > bounds.size - 1:
        merged_pos, merged_m, merged_f, merged_away, kept = _merge_agents(
            new_pos, m_new, f_step, params.tolmerge, runs
        )
    merged_runs = runs
    if merged_away:
        bounds = _kept_layout(kept, bounds)[0]
        merged_runs = runs[kept]

    j_min = _run_argmin(merged_f, bounds)
    residual = _row_norms(merged_pos.take(j_min, axis=0) - x_min_prev)
    stats = IterationStats(
        eliminated=eliminated,
        merged=merged_away,
        objective_evals=evals,
        gradient_evals=pos.shape[0],
        heights_before=f,
        grad_sq_norms=g_sq,
        effective_descent=coeff,
        step_sizes=h,
        heights_after_step=f_step,
        positions=merged_pos,
        masses=merged_m,
        heights=merged_f,
        residual=residual,
        runs=runs,
        ladder_evals=ladder,
    )
    return _Swarm(merged_pos, merged_m, merged_f, merged_runs), residual, stats


def _lockstep(engine, n_runs: int, max_iters: int, history: list | None = None) -> list[RunResult]:
    """Advance ``n_runs`` runs together, one step at a time, until each stops.

    This is the one run loop of the package: the swarm and the baselines
    supply engines that hold the agents of the runs still going.  An engine
    provides ``objective_evals``, each run's evaluations before the first
    step; ``advance()``, which steps every live run once and returns each
    run's objective and gradient evaluations in that step (arrays of length
    ``n_runs``) and a dict mapping each run that stopped in that step to its
    :class:`StopReason`; ``solution(run)``, the ``(x_sol, f_sol, evaluations
    spent finding them)`` of a run that is live or stopped in the last step;
    and ``record``, what ``history`` keeps of the last step (it is shared by
    the results, so keep one only for a single run).  A run still going
    after ``max_iters`` steps stops with ``MAX_ITERS``.  Results come back
    in run order.
    """
    iterations = np.zeros(n_runs, dtype=int)
    objective_evals = np.array(engine.objective_evals, dtype=int)
    gradient_evals = np.zeros(n_runs, dtype=int)
    live = np.ones(n_runs, dtype=bool)
    results: list = [None] * n_runs

    def retire(stops):
        for run, reason in stops.items():
            x_sol, f_sol, evals = engine.solution(run)
            results[run] = RunResult(
                x_sol=x_sol,
                f_sol=f_sol,
                iterations=int(iterations[run]),
                objective_evals=int(objective_evals[run] + evals),
                gradient_evals=int(gradient_evals[run]),
                stop_reason=reason,
                history=history,
            )
            live[run] = False

    for _ in range(max_iters):
        iterations += live
        objective, gradient, stops = engine.advance()
        objective_evals += objective
        gradient_evals += gradient
        if history is not None:
            history.append(engine.record)
        retire(stops)
        if not live.any():
            return results
    retire(dict.fromkeys(np.flatnonzero(live).tolist(), StopReason.MAX_ITERS))
    return results


class _SwarmRuns:
    """The swarm's :func:`_lockstep` engine: one :class:`_Swarm` for all runs.

    The agents of the runs that stop in a step leave the swarm at the start
    of the next one.
    """

    def __init__(self, obj: Objective, params: SBGDParams, init_positions):
        starts = _as_starts(obj, init_positions)
        n_runs, n, d = starts.shape
        pos = starts.reshape(n_runs * n, d)
        self.obj = obj
        self.params = params
        self.n_runs = n_runs
        self.initial_count = n
        self.swarm = _Swarm(pos, np.full(pos.shape[0], 1.0 / n), obj.evaluate_many(pos),
                            np.repeat(np.arange(n_runs), n))
        self.objective_evals = np.full(n_runs, n)
        self.stopped: list[int] = []
        self.record = None

    def advance(self):
        s = self.swarm
        if self.stopped:
            keep = ~np.isin(s.runs, self.stopped)
            s = _Swarm(*(a.compress(keep, axis=0) for a in s))
        self.swarm, residual, stats = sbgd_iteration(s, self.obj, self.params, self.initial_count)
        if self.n_runs == 1:
            # A lone run's history records its residual as a float.
            stats.residual = float(residual[0])
        self.record = stats
        runs = stats.runs
        gradient = np.bincount(runs, minlength=self.n_runs)
        objective = np.bincount(runs, weights=stats.ladder_evals, minlength=self.n_runs)
        stops = dict.fromkeys(gradient.nonzero()[0][residual < self.params.tolres].tolist(),
                              StopReason.RESIDUAL)
        # A run down to one agent that could not step has stalled, whatever its residual.
        stalled = runs[(gradient == 1)[runs] & (stats.step_sizes == 0.0)]
        stops.update(dict.fromkeys(stalled.tolist(), StopReason.SINGLE_STALLED_AGENT))
        self.stopped = list(stops)
        return objective.astype(int), gradient, stops

    def solution(self, run: int):
        s = self.swarm
        lo, hi = np.searchsorted(s.runs, [run, run + 1]).tolist()
        i = lo + int(np.argmin(s.heights[lo:hi]))
        return s.positions[i].copy(), float(s.heights[i]), 0


def run_sbgd_batch(obj: Objective, init_positions, params: SBGDParams = SBGDParams()) -> list[RunResult]:
    """Run independent swarms from an ``(R, N, d)`` array of starts, in lockstep.

    Result ``k`` equals ``run_sbgd(obj, init_positions[k], params)`` bit for
    bit, whatever the other runs are.
    """
    engine = _SwarmRuns(obj, params, init_positions)
    return _lockstep(engine, engine.n_runs, params.max_iters)


def run_sbgd(
    obj: Objective,
    init_positions,
    params: SBGDParams = SBGDParams(),
    keep_history: bool = False,
) -> RunResult:
    """Run the swarm from the given initial positions until it stops.

    Stopping: residual below ``tolres``, a lone stalled agent (accepted step
    0), or ``max_iters``.  The best final agent provides ``x_sol``/``f_sol``.
    """
    engine = _SwarmRuns(obj, params, np.array(init_positions, dtype=float, ndmin=2)[None])
    return _lockstep(engine, 1, params.max_iters, [] if keep_history else None)[0]
