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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .linesearch import BacktrackParams, backtrack_batch
from .objectives import Objective

__all__ = [
    "Agent",
    "IterationStats",
    "RunResult",
    "SBGDParams",
    "StopReason",
    "Swarm",
    "relative_heights",
    "run_sbgd",
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


@dataclass(frozen=True)
class Agent:
    """A single candidate solution: a position in R^d and its mass."""

    position: np.ndarray
    mass: float


@dataclass
class Swarm:
    """Active agents as parallel arrays, plus the initial agent count.

    ``heights`` caches the objective values at ``positions``; it may be
    ``None`` for a freshly built swarm and is then filled on the first
    iteration.  ``initial_count`` stays fixed over the run because the
    elimination threshold ``tolm / N0`` refers to the *initial* size.
    """

    positions: np.ndarray
    masses: np.ndarray
    heights: np.ndarray | None
    initial_count: int

    def __post_init__(self) -> None:
        self.positions = np.asarray(self.positions, dtype=float)
        self.masses = np.asarray(self.masses, dtype=float)
        if self.positions.ndim != 2:
            raise ValueError(f"positions must be (n, d), got shape {self.positions.shape}")
        n = self.positions.shape[0]
        if n < 1:
            raise ValueError("a swarm needs at least one agent")
        if self.masses.shape != (n,):
            raise ValueError(f"masses must have shape ({n},), got {self.masses.shape}")
        if np.any(self.masses < 0.0):
            raise ValueError("masses must be non-negative")
        if self.heights is not None:
            self.heights = np.asarray(self.heights, dtype=float)
            if self.heights.shape != (n,):
                raise ValueError(f"heights must have shape ({n},), got {self.heights.shape}")
        if self.initial_count < 1:
            raise ValueError("initial_count must be at least 1")

    @classmethod
    def from_positions(cls, positions, masses=None, initial_count: int | None = None) -> "Swarm":
        """Build a swarm from an (n, d) position array, defaulting to equal masses 1/n."""
        pos = np.asarray(positions, dtype=float)
        if pos.ndim != 2:
            raise ValueError(f"positions must be (n, d), got shape {pos.shape}")
        n = pos.shape[0]
        if n < 1:
            raise ValueError("a swarm needs at least one agent")
        if masses is None:
            masses = np.full(n, 1.0 / n)
        if initial_count is None:
            initial_count = n
        return cls(pos.copy(), np.asarray(masses, dtype=float).copy(), None, int(initial_count))

    @property
    def size(self) -> int:
        return self.positions.shape[0]

    @property
    def dimension(self) -> int:
        return self.positions.shape[1]

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    @property
    def agents(self) -> list[Agent]:
        return [Agent(self.positions[i].copy(), float(self.masses[i])) for i in range(self.size)]


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
    elimination, in order; ``positions``/``masses``/``heights`` describe the
    post-merge swarm and alias the new swarm's arrays.
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
    residual: float


def relative_heights(heights, eps: float = 1e-10) -> np.ndarray:
    """Normalized heights ``(F_i - F_min) / (F_max - F_min + eps)``.

    The current minimizer maps to exactly 0; the regularizer ``eps`` keeps
    the ratio defined when all heights coincide.  Values lie in [0, 1] (the
    upper end is reached only when the spread is so large that ``eps``
    vanishes in rounding).
    """
    f = np.asarray(heights, dtype=float)
    if f.ndim != 1 or f.size < 1:
        raise ValueError(f"heights must be a non-empty 1-D array, got shape {f.shape}")
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    f_min = f.min()
    f_max = f.max()
    return (f - f_min) / (f_max - f_min + eps)


def transfer_mass(masses, eta, p: float, i_min: int, total: float | None = None) -> np.ndarray:
    """Shed the fraction ``eta_i^p`` of each agent's mass to the minimizer.

    The minimizer's new mass is computed as ``total`` minus the sum of the
    other new masses, so the swarm total is preserved to rounding no matter
    how many iterations accumulate.  ``total`` defaults to the sum of
    ``masses`` and lets callers fold in mass from eliminated agents.
    """
    m = np.asarray(masses, dtype=float)
    e = np.asarray(eta, dtype=float)
    if m.shape != e.shape or m.ndim != 1:
        raise ValueError(f"masses and eta must be matching 1-D arrays, got {m.shape} and {e.shape}")
    if not 0 <= i_min < m.size:
        raise ValueError(f"i_min {i_min} out of range for {m.size} agents")
    if e[i_min] != 0.0:
        raise ValueError(f"the minimizer must have relative height 0, got {e[i_min]}")
    if not p > 0.0:
        raise ValueError(f"p must be positive, got {p}")
    if total is None:
        total = m.sum()
    out = m * (1.0 - e**p)
    others = np.ones(m.size, dtype=bool)
    others[i_min] = False
    out[i_min] = total - out[others].sum()
    return out


# Elements of one block of pairwise differences in `_has_close_pair`.
_PAIR_BLOCK = 1 << 16


def _has_close_pair(positions: np.ndarray, tol: float) -> bool:
    """Whether two distinct rows of ``positions`` lie closer than ``tol``."""
    n, d = positions.shape
    rows = max(1, _PAIR_BLOCK // (n * d))
    for lo in range(0, n, rows):
        dist = np.linalg.norm(positions[lo : lo + rows, None, :] - positions[None, :, :], axis=2)
        own = np.arange(dist.shape[0])
        dist[own, lo + own] = np.inf
        if np.any(dist < tol):
            return True
    return False


def _merge_agents(
    positions: np.ndarray, masses: np.ndarray, heights: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Greedily cluster agents within ``tol`` of a leader and merge each cluster.

    Clusters grow around leaders in agent order; each cluster keeps the
    position and height of its lowest member (ties: lowest index) and sums
    the masses.  Surviving agents keep their original relative order.
    """
    n = masses.size
    # Merges are rare: skip the loop unless some pair is close.  The margin
    # keeps this test conservative against rounding in the loop's distances.
    if n <= 1 or not _has_close_pair(positions, tol * (1.0 + 1e-9)):
        return positions, masses, heights, 0
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
        return positions, masses, heights, 0
    keep_idx = np.empty(n_clusters, dtype=int)
    merged_mass = np.empty(n_clusters)
    for k in range(n_clusters):
        idx = np.nonzero(cluster == k)[0]
        keep_idx[k] = idx[np.argmin(heights[idx])]
        merged_mass[k] = masses[idx].sum()
    order = np.argsort(keep_idx)
    keep_idx = keep_idx[order]
    merged_mass = merged_mass[order]
    return positions[keep_idx], merged_mass, heights[keep_idx], n - n_clusters


def sbgd_iteration(
    swarm: Swarm, obj: Objective, params: SBGDParams
) -> tuple[Swarm, float, IterationStats]:
    """Advance the swarm by one full iteration.

    Returns the new swarm, the residual (Euclidean distance between the new
    and previous minimizer positions), and an :class:`IterationStats` record.
    """
    pos = swarm.positions
    m = swarm.masses
    f = swarm.heights
    n_evals = 0
    if f is None:
        f = obj.evaluate_many(pos)
        n_evals += pos.shape[0]
    total = m.sum()
    i_min = int(np.argmin(f))
    x_min_prev = pos[i_min].copy()

    # (1) drop agents whose mass fell below tolm/N0; their mass rejoins the
    # pool via `total` and lands on the minimizer in the transition below.
    keep = m >= params.tolm / swarm.initial_count
    keep[i_min] = True
    eliminated = int(keep.size - np.count_nonzero(keep))
    if eliminated:
        pos = pos[keep]
        m = m[keep]
        f = f[keep]
        i_min = int(np.count_nonzero(keep[:i_min]))

    # (2) mass transition driven by relative heights.
    eta = relative_heights(f, params.eps_eta)
    m_new = transfer_mass(m, eta, params.p, i_min, total=total)

    # (3) mass-weighted backtracking step for every agent.
    m_rel = m_new / m_new.max()
    coeff = params.backtrack.lam * m_rel**params.backtrack.q
    grads = obj.gradient_many(pos)
    g_sq = np.sum(grads * grads, axis=1)
    h, f_step, evals = backtrack_batch(obj, pos, grads, coeff, params.backtrack, f)
    n_evals += evals
    new_pos = pos - h[:, None] * grads

    # (4) merge agents that landed on top of each other.
    merged_pos, merged_m, merged_f, merged_away = _merge_agents(
        new_pos, m_new, f_step, params.tolmerge
    )

    j_min = int(np.argmin(merged_f))
    residual = float(_row_norms(merged_pos[j_min][None, :] - x_min_prev[None, :])[0])
    out = Swarm(merged_pos, merged_m, merged_f, swarm.initial_count)
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
    )
    return out, residual, stats


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
    n = pos.shape[0]
    heights = obj.evaluate_many(pos)
    swarm = Swarm(pos, np.full(n, 1.0 / n), heights, initial_count=n)
    objective_evals = n
    gradient_evals = 0
    history: list | None = [] if keep_history else None
    stop = StopReason.MAX_ITERS
    iterations = 0
    for _ in range(params.max_iters):
        swarm, residual, stats = sbgd_iteration(swarm, obj, params)
        iterations += 1
        objective_evals += stats.objective_evals
        gradient_evals += stats.gradient_evals
        if history is not None:
            history.append(stats)
        if swarm.size == 1 and stats.step_sizes.size == 1 and stats.step_sizes[0] == 0.0:
            stop = StopReason.SINGLE_STALLED_AGENT
            break
        if residual < params.tolres:
            stop = StopReason.RESIDUAL
            break
    i_best = int(np.argmin(swarm.heights))
    return RunResult(
        x_sol=swarm.positions[i_best].copy(),
        f_sol=float(swarm.heights[i_best]),
        iterations=iterations,
        objective_evals=objective_evals,
        gradient_evals=gradient_evals,
        stop_reason=stop,
        history=history,
    )
