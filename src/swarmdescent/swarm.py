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

Independent runs advance in lockstep: one :class:`Swarm` holds the agents of
every run still going, labelled by run, and each iteration steps all of them
with one gradient call and one ladder call.  A run leaves the arrays as soon
as it stops.  Every per-run quantity (minimizer, extremes, mass sums,
merging, residual) is computed over that run's agents alone with the same
floating-point operations as for a lone run, so each run's result does not
depend on which runs share its batch.  The baselines step their runs
through the same run loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linesearch import BacktrackParams, backtrack_batch
from .objectives import Objective

__all__ = [
    "IterationStats",
    "RunResult",
    "SBGDParams",
    "StopReason",
    "Swarm",
    "relative_heights",
    "run_sbgd",
    "run_sbgd_batch",
    "sbgd_iteration",
    "transfer_mass",
]


def _row_norms(diffs: np.ndarray) -> np.ndarray:
    """Euclidean norm per row of an (n, d) array.

    Both the swarm residual and the baseline residuals go through this one
    expression so that single-agent trajectories of the two code paths agree
    bit for bit.
    """
    return np.sqrt(np.sum(diffs * diffs, axis=1))


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


@dataclass
class Swarm:
    """Active agents as parallel arrays, plus the initial agent count.

    ``heights`` caches the objective values at ``positions``; it may be
    ``None`` for a freshly built swarm and is then filled on the first
    iteration.  ``initial_count`` stays fixed over the run because the
    elimination threshold ``tolm / N0`` refers to the *initial* size; it
    defaults to the number of agents, as ``masses`` defaults to equal masses
    ``1/n``.  ``runs`` labels the run of every agent for a swarm that holds
    several independent runs of the same initial size, each run's agents
    contiguous and labels non-decreasing; ``None`` means one run.
    """

    positions: np.ndarray
    masses: np.ndarray | None = None
    heights: np.ndarray | None = None
    initial_count: int | None = None
    runs: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.ndim != 2:
            raise ValueError(f"positions must be (n, d), got shape {self.positions.shape}")
        n = self.positions.shape[0]
        if n < 1:
            raise ValueError("a swarm needs at least one agent")
        self.masses = np.full(n, 1.0 / n) if self.masses is None else np.asarray(self.masses, dtype=float)
        if self.masses.shape != (n,):
            raise ValueError(f"masses must have shape ({n},), got {self.masses.shape}")
        if np.any(self.masses < 0.0):
            raise ValueError("masses must be non-negative")
        if self.heights is not None:
            self.heights = np.asarray(self.heights, dtype=float)
            if self.heights.shape != (n,):
                raise ValueError(f"heights must have shape ({n},), got {self.heights.shape}")
        if self.initial_count is None:
            self.initial_count = n
        if self.initial_count < 1:
            raise ValueError("initial_count must be at least 1")
        if self.runs is not None:
            self.runs = np.asarray(self.runs)
            if self.runs.shape != (n,) or self.runs.dtype.kind not in "iu":
                raise ValueError(f"runs must be ({n},) integer labels, got {self.runs.shape}")
            if np.any(self.runs[1:] < self.runs[:-1]):
                raise ValueError("run labels must be non-decreasing")

    @classmethod
    def from_positions(cls, positions, masses=None, initial_count: int | None = None) -> "Swarm":
        """Build a one-run swarm from copies of the inputs, defaulting to equal masses 1/n."""
        return cls(np.array(positions, dtype=float), None if masses is None else np.array(masses, dtype=float),
                   None, initial_count)

    @classmethod
    def _unchecked(cls, positions, masses, heights, initial_count, runs) -> "Swarm":
        """A swarm from arrays an iteration derived from a checked swarm, skipping the checks."""
        swarm = cls.__new__(cls)
        swarm.positions, swarm.masses, swarm.heights = positions, masses, heights
        swarm.initial_count, swarm.runs = initial_count, runs
        return swarm

    @property
    def size(self) -> int:
        return self.positions.shape[0]

    @property
    def dimension(self) -> int:
        return self.positions.shape[1]

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())


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
    ``residual`` is what :func:`sbgd_iteration` returns: a float for an
    unlabelled swarm (every ``run_sbgd`` history), one entry per run for a
    labelled one.
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
    residual: float | np.ndarray
    runs: np.ndarray
    ladder_evals: np.ndarray


def relative_heights(heights, eps: float = 1e-10, *, bounds=None) -> np.ndarray:
    """Normalized heights ``(F_i - F_min) / (F_max - F_min + eps)``.

    The current minimizer maps to exactly 0; the regularizer ``eps`` keeps
    the ratio defined when all heights coincide.  Values lie in [0, 1] (the
    upper end is reached only when the spread is so large that ``eps``
    vanishes in rounding).  For a several-run swarm, ``bounds`` gives the
    run boundaries (run ``k`` is ``bounds[k]:bounds[k+1]``), and every run
    uses its own extremes.
    """
    f = np.asarray(heights, dtype=float)
    if f.ndim != 1 or f.size < 1:
        raise ValueError(f"heights must be a non-empty 1-D array, got shape {f.shape}")
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    bounds = np.array([0, f.size]) if bounds is None else bounds
    starts, counts = bounds[:-1], bounds[1:] - bounds[:-1]
    f_min = np.minimum.reduceat(f, starts)
    f_max = np.maximum.reduceat(f, starts)
    return (f - f_min.repeat(counts)) / (f_max - f_min + eps).repeat(counts)


def transfer_mass(masses, eta, p: float, i_min, total=None, *, bounds=None) -> np.ndarray:
    """Shed the fraction ``eta_i^p`` of each agent's mass to the minimizer.

    The minimizer's new mass is computed as ``total`` minus the sum of the
    other new masses, so the swarm total is preserved to rounding no matter
    how many iterations accumulate.  ``total`` defaults to the sum of
    ``masses`` and lets callers fold in mass from eliminated agents.  For a
    several-run swarm, ``bounds`` gives the run boundaries as for
    :func:`relative_heights`, and ``i_min`` and ``total`` hold one entry
    per run.
    """
    m = np.asarray(masses, dtype=float)
    e = np.asarray(eta, dtype=float)
    if m.shape != e.shape or m.ndim != 1:
        raise ValueError(f"masses and eta must be matching 1-D arrays, got {m.shape} and {e.shape}")
    bounds = np.array([0, m.size]) if bounds is None else bounds
    mins = np.atleast_1d(i_min)
    if mins.shape != (bounds.size - 1,) or not ((bounds[:-1] <= mins) & (mins < bounds[1:])).all():
        raise ValueError(f"i_min {i_min} out of range for {m.size} agents")
    if (e[mins] != 0.0).any():
        raise ValueError(f"the minimizer must have relative height 0, got {e[mins][e[mins] != 0.0][0]}")
    if not p > 0.0:
        raise ValueError(f"p must be positive, got {p}")
    if total is None:
        total = _run_sums(m, bounds)
    out = m * (1.0 - e**p)
    others = np.ones(m.size, dtype=bool)
    others[mins] = False
    # Run k's other agents sit between its bounds, shifted by the k minimizers before it.
    out[mins] = total - _run_sums(out[others], bounds - np.arange(bounds.size))
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
    x0, runs, pos = x0[order], runs[order], positions[order]
    close = [np.zeros(0, dtype=int)]
    lead = np.arange(x0.size - 1)
    gap = 1
    while lead.size:
        near = (runs[lead + gap] == runs[lead]) & (x0[lead + gap] - x0[lead] < window)
        lead = lead[near]
        if not lead.size:
            break
        dist = _row_norms(pos[lead + gap] - pos[lead])
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
    positions: np.ndarray, masses: np.ndarray, heights: np.ndarray, tol: float, runs=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, np.ndarray | None]:
    """Greedily cluster agents within ``tol`` of a leader and merge each cluster, run by run.

    Clusters grow around leaders in agent order; each cluster keeps the
    position and height of its lowest member (ties: lowest index) and sums
    the masses.  Surviving agents keep their original relative order.
    Returns the merged positions, masses and heights, the number of agents
    merged away, and the mask of agents kept (``None`` when none merged).
    """
    n = masses.size
    runs = np.zeros(n, dtype=int) if runs is None else runs
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
    return positions[keep], masses[keep], heights[keep], n - int(np.count_nonzero(keep)), keep


def sbgd_iteration(
    swarm: Swarm, obj: Objective, params: SBGDParams
) -> tuple[Swarm, float | np.ndarray, IterationStats]:
    """Advance every run of the swarm by one full iteration.

    Returns the new swarm, the residual (Euclidean distance between the new
    and previous minimizer positions), and an :class:`IterationStats` record.
    For a swarm with run labels the residual holds one entry per run, in
    label order; otherwise it is a float.
    """
    pos = swarm.positions
    m = swarm.masses
    f = swarm.heights
    runs = np.zeros(m.size, dtype=int) if swarm.runs is None else swarm.runs
    n_evals = 0
    if f is None:
        f = obj.evaluate_many(pos)
        n_evals += pos.shape[0]
    bounds = _layout(runs)
    total = _run_sums(m, bounds)
    i_min = _run_argmin(f, bounds)
    x_min_prev = pos[i_min]

    # (1) drop agents whose mass fell below tolm/N0; their mass rejoins the
    # pool via `total` and lands on the minimizer in the transition below.
    keep = m >= params.tolm / swarm.initial_count
    keep[i_min] = True
    eliminated = int(keep.size - np.count_nonzero(keep))
    if eliminated:
        bounds, seen = _kept_layout(keep, bounds)
        i_min = seen[i_min] - 1
        pos = pos[keep]
        m = m[keep]
        f = f[keep]
        runs = runs[keep]

    # (2) mass transition driven by relative heights, run by run.
    eta = relative_heights(f, params.eps_eta, bounds=bounds)
    m_new = transfer_mass(m, eta, params.p, i_min, total=total, bounds=bounds)

    # (3) mass-weighted backtracking step for every agent of every run.
    starts = bounds[:-1]
    m_rel = m_new / np.maximum.reduceat(m_new, starts).repeat(bounds[1:] - starts)
    coeff = params.backtrack.lam * m_rel**params.backtrack.q
    grads = obj.gradient_many(pos)
    g_sq = np.sum(grads * grads, axis=1)
    ladder = np.zeros(pos.shape[0], dtype=int)
    h, f_step, evals = backtrack_batch(obj, pos, grads, coeff, params.backtrack, f, counts=ladder)
    n_evals += evals
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
    residual = _row_norms(merged_pos[j_min] - x_min_prev)
    if swarm.runs is None:
        residual = float(residual[0])
    out = Swarm._unchecked(merged_pos, merged_m, merged_f, swarm.initial_count,
                           None if swarm.runs is None else merged_runs)
    stats = IterationStats(
        eliminated=eliminated,
        merged=merged_away,
        objective_evals=n_evals,
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
    return out, residual, stats


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
    """The swarm's :func:`_lockstep` engine: one :class:`Swarm` for all runs.

    The swarm is labelled by run when it holds several; a lone run steps an
    unlabelled swarm, as a direct :func:`sbgd_iteration` caller does, so its
    history records a float residual.  The agents of the runs that stop in
    a step leave the swarm at the start of the next one.
    """

    def __init__(self, obj: Objective, params: SBGDParams, starts: np.ndarray):
        if starts.ndim != 3 or starts.shape[1] < 1 or starts.shape[2] != obj.dimension:
            raise ValueError(f"initial positions must be (n, {obj.dimension}) per run, "
                             f"got shape {starts.shape[1:]}")
        n_runs, n, d = starts.shape
        pos = starts.reshape(n_runs * n, d)
        self.obj = obj
        self.params = params
        self.n_runs = n_runs
        self.swarm = Swarm(pos, np.full(pos.shape[0], 1.0 / n), obj.evaluate_many(pos), n,
                           np.repeat(np.arange(n_runs), n) if n_runs > 1 else None)
        self.objective_evals = np.full(n_runs, n)
        self.stopped: list[int] = []
        self.record = None

    def advance(self):
        s = self.swarm
        if self.stopped:
            keep = ~np.isin(s.runs, self.stopped)
            s = Swarm._unchecked(s.positions[keep], s.masses[keep], s.heights[keep], s.initial_count,
                                 s.runs[keep])
        self.swarm, residual, stats = sbgd_iteration(s, self.obj, self.params)
        self.record = stats
        runs = stats.runs
        gradient = np.bincount(runs, minlength=self.n_runs)
        objective = np.bincount(runs, weights=stats.ladder_evals, minlength=self.n_runs)
        stops = dict.fromkeys(gradient.nonzero()[0][np.atleast_1d(residual) < self.params.tolres].tolist(),
                              StopReason.RESIDUAL)
        # A run down to one agent that could not step has stalled, whatever its residual.
        stalled = runs[(gradient == 1)[runs] & (stats.step_sizes == 0.0)]
        stops.update(dict.fromkeys(stalled.tolist(), StopReason.SINGLE_STALLED_AGENT))
        self.stopped = list(stops)
        return objective.astype(int), gradient, stops

    def solution(self, run: int):
        s = self.swarm
        lo, hi = (0, s.size) if s.runs is None else np.searchsorted(s.runs, [run, run + 1]).tolist()
        i = lo + int(np.argmin(s.heights[lo:hi]))
        return s.positions[i].copy(), float(s.heights[i]), 0


def run_sbgd_batch(obj: Objective, init_positions, params: SBGDParams = SBGDParams()) -> list[RunResult]:
    """Run independent swarms from an ``(R, N, d)`` array of starts, in lockstep.

    Result ``k`` equals ``run_sbgd(obj, init_positions[k], params)`` bit for
    bit, whatever the other runs are.
    """
    starts = np.array(init_positions, dtype=float)
    return _lockstep(_SwarmRuns(obj, params, starts), starts.shape[0], params.max_iters)


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
    pos = np.array(init_positions, dtype=float, ndmin=2)
    if pos.ndim != 2 or pos.shape[1] != obj.dimension:
        raise ValueError(f"init_positions must be (n, {obj.dimension}), got shape {pos.shape}")
    history: list | None = [] if keep_history else None
    return _lockstep(_SwarmRuns(obj, params, pos[None]), 1, params.max_iters, history)[0]
