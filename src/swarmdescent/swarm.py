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

A step in which every run holds one agent skips the communication phases
1, 2 and 4; :func:`sbgd_iteration` says why that changes no result.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import ClassVar, NamedTuple

import numpy as np

from .linesearch import BacktrackParams, backtrack_batch
from .objectives import _SEQUENTIAL_SUM, Objective, _row_sum

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
    return np.sqrt(_row_sum(diffs * diffs))


def _as_starts(obj: Objective, init_positions) -> np.ndarray:
    """The ``(R, N, d)`` starting positions of a batch of runs, as a new float array."""
    starts = np.array(init_positions, dtype=float)
    if starts.ndim != 3 or starts.shape[1] < 1 or starts.shape[2] != obj.dimension:
        raise ValueError(f"init_positions must be (n, {obj.dimension}) per run, "
                         f"got shape {starts.shape[1:]}")
    if not np.isfinite(starts).all():
        raise ValueError("init_positions must be finite, got a NaN or infinite coordinate")
    return starts


def _layout(breaks: np.ndarray) -> np.ndarray:
    """Run boundaries from ``runs[1:] != runs[:-1]`` of a non-decreasing run-label array.

    Run ``k`` is ``bounds[k]:bounds[k+1]``.
    """
    return np.concatenate(([True], breaks, [True])).nonzero()[0]


def _run_argmin(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Per run, the index ``np.argmin`` picks: the first minimum, or the first NaN if any."""
    starts = bounds[:-1]
    lo = np.minimum.reduceat(values, starts).repeat(bounds[1:] - starts)
    # A run holding a NaN has a NaN minimum, which equals nothing.
    hits = ((values == lo) | np.isnan(values)).nonzero()[0]
    return hits[hits.searchsorted(starts)]


_LANES = np.arange(_SEQUENTIAL_SUM - 1)[:, None]
# Short runs from which one gathered sum beats an ``np.add.reduce`` call per
# run.  On a 2-vCPU VM (numpy 2.4) the loop costs about 2.7 us plus 1.1 us
# per run and the gather 11-13 us whatever the run count, so the two cross
# at about 8 runs.  A lone run keeps its single call.
_GATHERED_RUNS = 8


def _run_sums(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Per-run ``values[a:b].sum()`` between consecutive ``bounds``, bit for bit.

    ``np.add.reduceat`` would add in another order than a lone run's sum and
    differ in the last bits.  With ``_GATHERED_RUNS`` runs or more shorter
    than ``_SEQUENTIAL_SUM``, those runs are summed together in numpy's
    order: row by row over a gather padded with +0.0, which leaves any
    partial sum as it is, since a sum begun on +0.0 is never -0.0.  Longer
    runs, runs whose sum is NaN (which of two NaNs an elementwise add keeps
    varies along the array) and the runs of a batch with fewer short runs
    are summed one by one, by the ``np.add.reduce`` that ``.sum()`` calls.
    """
    edges = bounds.tolist()
    starts = bounds[:-1]
    counts = bounds[1:] - starts
    redo = counts >= _SEQUENTIAL_SUM
    if redo.size - np.count_nonzero(redo) < _GATHERED_RUNS:
        return np.array([np.add.reduce(values[a:b]) for a, b in zip(edges[:-1], edges[1:])])
    counts[redo] = 0
    lanes = _LANES[:np.maximum.reduce(counts)]
    sums = np.zeros(starts.size)
    for row in np.where(lanes < counts, values.take(starts + lanes, mode="clip"), 0.0):
        sums += row
    redo |= np.isnan(sums)
    for k in redo.nonzero()[0].tolist():
        sums[k] = np.add.reduce(values[edges[k]:edges[k + 1]])
    return sums


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

    ``p`` is the mass-transition exponent (shed fraction ``eta^p``) and ``q``
    the step-weight exponent: an agent of relative mass ``m~`` takes the
    Armijo coefficient ``backtrack.lam * m~^q``, so heavier agents demand
    more decrease.  ``q`` is checked first, so that a document with a bad
    ``q`` and another bad key reports ``q``.  ``eps_eta``, the regularizer
    of the relative heights, is a class constant rather than an argument.
    """

    p: float = 1.0
    q: float = 1.0
    backtrack: BacktrackParams = BacktrackParams()
    tolm: float = 1e-4
    tolmerge: float = 1e-3
    tolres: float = 1e-4
    eps_eta: ClassVar[float] = 1e-10
    max_iters: int = 10000

    def __post_init__(self) -> None:
        if not self.q > 0.0:
            raise ValueError(f"q must be positive, got {self.q}")
        if not self.p > 0.0:
            raise ValueError(f"p must be positive, got {self.p}")
        for name in ("tolm", "tolmerge", "tolres"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")


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
    arrays.  ``eliminated`` and ``merged`` count over all the runs the
    swarm holds, whose step took ``ladder_evals.sum()`` objective and
    ``runs.size`` gradient evaluations.  ``residual`` holds one entry per
    run, in label order; in the history of a lone run (every ``run_sbgd``
    history) it is that run's float.
    """

    eliminated: int
    merged: int
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
    if np.count_nonzero(eta.take(i_min)):
        raise RuntimeError(f"the minimizer must have relative height 0, got {eta[i_min][eta[i_min] != 0.0][0]}")
    out = masses * (1.0 - eta**p)
    others = np.ones(masses.size, dtype=bool)
    others[i_min] = False
    # Run k's other agents sit between its bounds, shifted by the k minimizers before it.
    out[i_min] = total - _run_sums(out[others], bounds - np.arange(bounds.size))
    return out


# Differences below this square to less than the smallest normal double.
_UNDERFLOW_GAP = float(np.sqrt(np.finfo(float).tiny))


def _close_pairs(positions: np.ndarray, runs: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The pairs ``i < j`` of agents of one run closer than ``tol``, as an array of ``i`` and one of ``j``.

    The pairs come in ``(i, j)`` order.  Agents are sorted by run and then
    by first coordinate: one ``argsort`` of the first coordinates, then a
    stable sort of the run labels cast to the narrowest unsigned type that
    holds them (labels are non-negative and non-decreasing, so the last is
    the largest), which numpy does by radix.  Each agent is compared with
    the following agents of its run while the first-coordinate gap stays
    below ``tol``: two agents closer than ``tol`` are never further apart
    than that in one coordinate.  The gap window keeps a margin against
    rounding in the distances, and it does not shrink below the scale at
    which squared differences underflow, where a norm can read smaller than
    one of its coordinates.

    Agents that share a first coordinate may come out of the sort in any
    order, and the pair set does not depend on it.  A distance is the same
    bit for bit whichever of its two agents is subtracted, since ``(a -
    b)**2`` equals ``(b - a)**2``.  And the window test is monotone in the
    sorted order: rounding keeps ``x0[s] - x0[p]`` and ``x0[t] - x0[s]`` at
    most ``x0[t] - x0[p]`` for ``p <= s <= t``, so the agents between two
    agents within the window are within it of both and of each other.  So
    however ties are ordered, every pair of one run within the window is
    compared once, from whichever of the two comes first.  For the same
    reason an agent goes on from gap ``g`` to ``g + 1`` only where the
    sorted agents ``g`` and ``g + 1`` places after it are within the window
    of each other, which the gap-1 test has already decided.
    """
    window = max(tol * (1.0 + 1e-9), _UNDERFLOW_GAP)
    x0 = positions[:, 0]
    n = x0.size
    order = x0.argsort()
    order = order.take(runs.take(order).astype(np.min_scalar_type(runs[-1])).argsort(kind="stable"))
    x0 = x0.take(order)
    # near[p]: sorted agents p and p + 1 share a run and lie within the window; the last is False.
    near = np.zeros(n, dtype=bool)
    np.less(x0[1:] - x0[:-1], window, out=near[:-1])
    # The run labels come out of the sort as they went in.
    near[:-1] &= runs[1:] == runs[:-1]
    lead = near.nonzero()[0]
    # Each pair as the number i n + j, so that one sort puts them in (i, j) order.
    keys = []
    gap = 1
    while lead.size:
        a, b = order.take(lead), order.take(lead + gap)
        hit = _row_norms(positions.take(b, axis=0) - positions.take(a, axis=0)) < tol
        if np.count_nonzero(hit):
            a, b = a[hit], b[hit]
            keys.append(np.minimum(a, b) * n + np.maximum(a, b))
        lead = lead[near.take(lead + gap)]
        gap += 1
        if lead.size:
            lead = lead[x0.take(lead + gap) - x0.take(lead) < window]
    if not keys:
        none = np.zeros(0, dtype=np.intp)
        return none, none
    return np.divmod(np.sort(np.concatenate(keys)), n)


def _merge_agents(
    positions: np.ndarray, masses: np.ndarray, heights: np.ndarray, tol: float, runs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, np.ndarray | None]:
    """Greedily cluster agents within ``tol`` of a leader and merge each cluster, run by run.

    Clusters grow around leaders in agent order: an agent no cluster holds
    leads one and takes every free agent of its run within ``tol``.  Each
    cluster keeps the position and height of its lowest member (ties:
    lowest index) and sums the masses.  Surviving agents keep their
    original relative order.  Returns the merged positions, masses and
    heights, the number of agents merged away, and the mask of agents kept
    (``None`` when none merged).
    """
    n = masses.size
    first, second = _close_pairs(positions, runs, tol)
    if not first.size:
        return positions, masses, heights, 0, None
    # Agent i's partners are second[starts[i]:ends[i]], in index order.
    counts = np.bincount(first, minlength=n)
    ends = counts.cumsum()
    starts, ends = (ends - counts).tolist(), ends.tolist()
    taken = np.zeros(n, dtype=bool)
    keep = np.ones(n, dtype=bool)
    masses = masses.copy()
    # The lowest leader is free, so at least one cluster merges.
    for i in np.flatnonzero(counts).tolist():
        if taken[i]:
            continue
        partners = second[starts[i]:ends[i]]
        free = partners[~taken[partners]]
        if not free.size:
            continue
        taken[free] = True
        members = np.concatenate(([i], free))
        keep[members] = False
        lowest = members[np.argmin(heights[members])]
        keep[lowest] = True
        masses[lowest] = masses[members].sum()
    positions, masses, heights = (a.compress(keep, axis=0) for a in (positions, masses, heights))
    return positions, masses, heights, n - int(np.count_nonzero(keep)), keep


def sbgd_iteration(
    swarm: _Swarm, obj: Objective, params: SBGDParams, initial_count: int
) -> tuple[_Swarm, np.ndarray, IterationStats]:
    """Advance every run of the swarm by one iteration.

    ``initial_count`` is the agent count each run started with.  Returns the
    new swarm, the residual (per run, in label order, the Euclidean distance
    between the new and previous minimizer positions), and an
    :class:`IterationStats` record.

    A run of one agent has no one to communicate with, so when every run
    holds one agent and every height is finite (a basin sweep, or swarms
    that have collapsed) the step is GD(BT)'s and phases 1, 2 and 4 are
    skipped: each would return its input bit for bit.  A lone agent is its
    run's minimizer, so it is never eliminated; its relative height is
    ``0 / eps_eta = 0``, so it sheds no mass and its new mass is ``total -
    0.0``, its own; its relative mass is 1, so its coefficient is ``lam *
    1.0**q``; and it has no one to merge with.  The record holds the values
    the full step computes.  A non-finite height takes the full step, whose
    relative heights turn NaN.
    """
    pos, m, f, runs = swarm
    # A run never gains agents, so runs that start with one agent stay lone.
    breaks = None if initial_count == 1 else runs[1:] != runs[:-1]
    lone = breaks is None or np.count_nonzero(breaks) == breaks.size
    lone = lone and np.count_nonzero(np.isfinite(f)) == f.size
    eliminated = merged_away = 0
    if lone:
        m_new, x_min_prev = m, pos
        coeff = params.backtrack.lam * 1.0**params.q
    else:
        if breaks is None:  # lone runs, but a height that is not finite
            breaks = runs[1:] != runs[:-1]
        bounds = _layout(breaks)
        total = _run_sums(m, bounds)
        i_min = _run_argmin(f, bounds)
        x_min_prev = pos.take(i_min, axis=0)

        # (1) drop agents whose mass fell below tolm/N0; their mass rejoins the
        # pool via `total` and lands on the minimizer in the transition below.
        keep = m >= params.tolm / initial_count
        keep[i_min] = True
        eliminated = int(keep.size - np.count_nonzero(keep))
        if eliminated:
            # A kept agent's new index is the number of kept agents before it.
            kept = keep.nonzero()[0]
            bounds, i_min = kept.searchsorted(bounds), kept.searchsorted(i_min)
            pos, m, f, runs = pos.take(kept, axis=0), m.take(kept), f.take(kept), runs.take(kept)

        # (2) mass transition driven by relative heights, run by run, and
        # the step coefficients it leaves.
        eta = relative_heights(f, params.eps_eta, bounds)
        m_new = transfer_mass(m, eta, params.p, i_min, total, bounds)
        starts = bounds[:-1]
        m_rel = m_new / np.maximum.reduceat(m_new, starts).repeat(bounds[1:] - starts)
        coeff = params.backtrack.lam * m_rel**params.q

    # (3) mass-weighted backtracking step for every agent of every run.
    grads = obj.gradient_many(pos)
    g_sq = _row_sum(grads * grads)
    ladder = np.empty(pos.shape[0], dtype=int)
    h, f_step, _ = backtrack_batch(obj, pos, grads, coeff, params.backtrack, f, g_sq=g_sq, counts=ladder)
    new_pos = pos - h[:, None] * grads

    merged_pos, merged_m, merged_f, merged_runs = new_pos, m_new, f_step, runs
    if lone:
        x_min = new_pos
        # The ladder took one coefficient for all; the record holds one per agent.
        coeff = np.full(pos.shape[0], coeff)
    else:
        # (4) merge agents of one run that landed on top of each other; only a
        # run with two agents or more can have any.
        if runs.size > bounds.size - 1:
            merged_pos, merged_m, merged_f, merged_away, kept = _merge_agents(
                new_pos, m_new, f_step, params.tolmerge, runs
            )
        if merged_away:
            bounds = kept.nonzero()[0].searchsorted(bounds)
            merged_runs = runs[kept]
        x_min = merged_pos.take(_run_argmin(merged_f, bounds), axis=0)
    residual = _row_norms(x_min - x_min_prev)
    stats = IterationStats(
        eliminated=eliminated,
        merged=merged_away,
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


def _lockstep(engine, history: list | None = None) -> list[RunResult]:
    """Advance the engine's runs together, one step at a time, until each stops.

    This is the one run loop of the package: the swarm and the baselines
    supply engines that hold the agents of the runs still going.  An engine
    provides ``n_runs``; ``params``, whose ``max_iters`` caps the steps;
    ``objective_evals``, each run's evaluations before the first step;
    ``advance()``, which steps every live run once and returns each
    run's objective and gradient evaluations in that step (arrays of length
    ``n_runs``) and a dict mapping each run that stopped in that step to its
    :class:`StopReason`; ``solutions(runs)``, for a list of runs that are
    live or stopped in the last step, their ``x_sol`` rows, ``f_sol``
    values and the evaluations spent finding them (per run, or one number
    for all); and ``record``, what ``history`` keeps of the last step (it is
    shared by the results, so keep one only for a single run).  A run still
    going after ``max_iters`` steps stops with ``MAX_ITERS``.  Results come
    back in run order.
    """
    n_runs, max_iters = engine.n_runs, engine.params.max_iters
    objective_evals = np.array(engine.objective_evals, dtype=int)
    gradient_evals = np.zeros(n_runs, dtype=int)
    results: list = [None] * n_runs
    live = n_runs

    def retire(stops, iterations):
        # Every run steps from the first step on, so it took ``iterations`` steps.
        runs = list(stops)
        x_sol, f_sol, evals = engine.solutions(runs)
        for run, x, f, objective, gradient in zip(
            runs, x_sol, f_sol.tolist(), (objective_evals[runs] + evals).tolist(),
            gradient_evals[runs].tolist(),
        ):
            results[run] = RunResult(x_sol=x, f_sol=f, iterations=iterations, objective_evals=objective,
                                     gradient_evals=gradient, stop_reason=stops[run], history=history)
        return len(runs)

    for step in range(1, max_iters + 1):
        objective, gradient, stops = engine.advance()
        objective_evals += objective
        gradient_evals += gradient
        if history is not None:
            history.append(engine.record)
        if stops:
            live -= retire(stops, step)
            if not live:
                return results
    retire(dict.fromkeys([run for run, r in enumerate(results) if r is None], StopReason.MAX_ITERS), max_iters)
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
        self.live = np.ones(n_runs, dtype=bool)
        self.stopped: list[int] = []
        self.record = None

    def advance(self):
        s = self.swarm
        if self.stopped:
            self.live[self.stopped] = False
            rows = self.live.take(s.runs).nonzero()[0]
            s = _Swarm(*(a.take(rows, axis=0) for a in s))
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
        stalled = runs[stats.step_sizes == 0.0]
        if stalled.size:
            stalled = stalled[gradient.take(stalled) == 1]
            stops.update(dict.fromkeys(stalled.tolist(), StopReason.SINGLE_STALLED_AGENT))
        self.stopped = list(stops)
        return objective.astype(int), gradient, stops

    def solutions(self, runs: list[int]):
        s = self.swarm
        # In each run's rows, the one np.argmin picks: the first lowest height, or the first NaN.
        starts = s.runs.searchsorted(runs).tolist()
        ends = s.runs.searchsorted(runs, side="right").tolist()
        best = [a + int(s.heights[a:b].argmin()) for a, b in zip(starts, ends)]
        return s.positions.take(best, axis=0), s.heights.take(best), 0


def run_sbgd_batch(obj: Objective, init_positions, params: SBGDParams = SBGDParams()) -> list[RunResult]:
    """Run independent swarms from an ``(R, N, d)`` array of starts, in lockstep.

    Result ``k`` equals ``run_sbgd(obj, init_positions[k], params)`` bit for
    bit, whatever the other runs are.
    """
    return _lockstep(_SwarmRuns(obj, params, init_positions))


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
    return _lockstep(engine, [] if keep_history else None)[0]
