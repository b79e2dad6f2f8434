"""Armijo backtracking line search over a geometric step-size ladder.

The search tries the steps ``h0, gamma*h0, gamma^2*h0, ...`` and accepts the
first ``h`` satisfying the sufficient-decrease condition

    F(x - h g) <= F(x) - c * h * |g|^2

where ``g`` is the gradient at ``x`` and ``c`` is the effective descent
coefficient (the base ``lam``, optionally scaled down by a relative-mass
weight).  If the ladder reaches ``h_floor`` without an acceptable step, or
a rung no longer shrinks (``gamma * h`` rounds back to ``h`` among the
subnormal numbers, which a zero floor lets the ladder reach), the search
reports a stall: step 0 and the unchanged objective value.

The ladder restarts from ``h0`` on every call.  Every agent still searching
therefore sits on the same rung, so :func:`backtrack_batch` evaluates the
ladder in rung blocks: one objective call covers several consecutive rungs
for all searching agents, and each agent takes the first rung of the block
that it accepts.  Steps and heights are those of the rung-by-rung search.
The reported evaluation count is the paper's count, the sequential ladder's
evaluations up to and including the accepted rung (the whole ladder for a
stalled agent).  The rungs a block evaluates past an agent's accepted one are
not counted there, so more points are evaluated than that count shows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .objectives import Objective

__all__ = ["BacktrackParams", "backtrack", "backtrack_batch"]

# Points per objective call below which the per-call overhead dominates: a
# block holds at least this many points even when few agents are searching.
_MIN_POINTS = 128
# Bound on the points of one call, which keeps a long ladder (gamma near 1)
# from building one huge trial array.
_MAX_POINTS = 8192


@dataclass(frozen=True)
class BacktrackParams:
    """Step-ladder parameters shared by all backtracking callers.

    Attributes
    ----------
    lam : float
        Base descent coefficient in (0, 1); the fraction of ``h |g|^2``
        decrease demanded from an accepted step.
    gamma : float
        Ladder shrink factor in (0, 1).
    h0 : float
        Largest (first) trial step.
    h_floor : float
        Stall threshold: once trial steps drop to or below this the search
        gives up and returns step 0.
    q : float
        Exponent of the relative-mass weight ``m~^q`` that swarm callers
        compose into the coefficient ``c = lam * m~^q``.
    """

    lam: float = 0.2
    gamma: float = 0.9
    h0: float = 1.0
    h_floor: float = 1e-14
    q: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.lam < 1.0:
            raise ValueError(f"lam must lie in (0, 1), got {self.lam}")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        if not self.h0 > 0.0:
            raise ValueError(f"h0 must be positive, got {self.h0}")
        if not 0.0 <= self.h_floor < self.h0:
            raise ValueError(f"h_floor must lie in [0, h0), got {self.h_floor}")
        if not self.q > 0.0:
            raise ValueError(f"q must be positive, got {self.q}")


def backtrack_batch(
    obj: Objective,
    positions: np.ndarray,
    grads: np.ndarray,
    c,
    params: BacktrackParams,
    f_current: np.ndarray,
    *,
    counts: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Run the ladder for a batch of agents at once.

    Parameters
    ----------
    obj : Objective
        Landscape evaluated in batches.
    positions, grads : ndarray, shape (n, d)
        Current points and their gradients.
    c : scalar or ndarray, shape (n,)
        Effective descent coefficient per agent.
    f_current : ndarray, shape (n,)
        Objective values at ``positions``, already known to the caller.
    counts : ndarray, shape (n,), optional
        Integer output array; receives each agent's share of ``n_evals``.

    Returns
    -------
    h : ndarray, shape (n,)
        Accepted step per agent; 0 marks a stalled agent.
    f_new : ndarray, shape (n,)
        Objective at the accepted trial point, or ``f_current`` where stalled.
    n_evals : int
        Trial evaluations of the rung-by-rung search: each agent's rungs up
        to and including the accepted one, every rung tried for a stalled
        agent.  Rungs a block evaluates beyond that are not counted.
    """
    X = np.asarray(positions, dtype=float)
    G = np.asarray(grads, dtype=float)
    if X.ndim != 2 or G.shape != X.shape:
        raise ValueError(f"positions and grads must share a (n, d) shape, got {X.shape} and {G.shape}")
    n = X.shape[0]
    coeff = np.broadcast_to(np.asarray(c, dtype=float), (n,))
    f_base = np.asarray(f_current, dtype=float)
    if f_base.shape != (n,):
        raise ValueError(f"f_current must have shape ({n},), got {f_base.shape}")

    g_sq = np.sum(G * G, axis=1)
    h_out = np.zeros(n)
    f_out = f_base.copy()
    idx = np.arange(n)
    n_evals = 0
    if counts is not None:
        counts[:] = 0
    h_next = float(params.h0)
    block = 1
    while idx.size and h_next > params.h_floor:
        # The next rungs, by the same repeated shrink as a rung-by-rung search.
        size = min(max(block, -(-_MIN_POINTS // idx.size)), max(1, _MAX_POINTS // idx.size))
        rungs = []
        while len(rungs) < size and h_next > params.h_floor:
            rungs.append(h_next)
            shrunk = h_next * params.gamma
            h_next = shrunk if shrunk < h_next else 0.0
        h_block = np.array(rungs)
        k = h_block.size
        trial = X[idx] - h_block[:, None, None] * G[idx]
        f_trial = obj.evaluate_many(trial.reshape(-1, X.shape[1])).reshape(k, idx.size)
        accept = f_trial <= f_base[idx] - coeff[idx] * h_block[:, None] * g_sq[idx]
        hit = accept.any(axis=0)
        first = accept.argmax(axis=0)
        tried = np.where(hit, first + 1, k)
        n_evals += int(tried.sum())
        if counts is not None:
            counts[idx] += tried
        acc = idx[hit]
        h_out[acc] = h_block[first[hit]]
        f_out[acc] = f_trial[first[hit], hit]
        idx = idx[~hit]
        block *= 2
    return h_out, f_out, n_evals


def backtrack(
    obj: Objective,
    x,
    g,
    c: float,
    params: BacktrackParams,
    f_x: float | None = None,
) -> tuple[float, float, int]:
    """Single-point ladder; the batch routine with one row.

    When ``f_x`` is omitted it is evaluated here and counted in ``n_evals``.
    Returns ``(h, f_new, n_evals)`` with the same stall convention as
    :func:`backtrack_batch`.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    g = np.atleast_1d(np.asarray(g, dtype=float))
    extra = 0
    if f_x is None:
        f_x = obj.evaluate(x)
        extra = 1
    h, f_new, n_evals = backtrack_batch(
        obj, x[None, :], g[None, :], float(c), params, np.array([float(f_x)])
    )
    return float(h[0]), float(f_new[0]), n_evals + extra
