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

The ladder restarts from ``h0`` on every call, so its first rungs are made
once per ``(h0, gamma, h_floor)`` and cached.  Every agent still searching
sits on the same rung, so :func:`backtrack_batch` evaluates the ladder in
rung blocks: one objective call covers several consecutive rungs
for all searching agents, and each agent takes the first rung of the block
that it accepts.  Steps and heights are those of the rung-by-rung search.
The reported evaluation count is the paper's count, the sequential ladder's
evaluations up to and including the accepted rung (the whole ladder for a
stalled agent).  The rungs a block evaluates past an agent's accepted one are
not counted there, so more points are evaluated than that count shows.

Each block gathers the searching agents' rows of the inputs with ``take``,
which numpy does several times faster than fancy or boolean indexing of an
``(m, d)`` array.  The rows are gathered anew in every block and live only
while its trial points are formed.  Copies kept from block to block would
skip the gathers of blocks in which no agent accepts, but they stay alive
through every objective call and raise peak memory.  The set of searching
agents shrinks in the blocks where some agent accepts, and the search ends
as soon as it is empty.  Each agent's count is written once: when it
accepts, as the rungs walked before its block plus its rung within it, and
for an agent still searching when the ladder runs out, as the whole ladder.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .objectives import Objective

__all__ = ["BacktrackParams", "backtrack_batch"]

# Points per objective call below which the per-call overhead dominates: a
# block holds at least this many points even when few agents are searching.
_MIN_POINTS = 128
# Bound on the points of one call, which keeps a long ladder (gamma near 1)
# from building one huge trial array.
_MAX_POINTS = 8192
# Searching agents above which a block's first accepted rungs are found by a
# weighted max rather than a column-by-column argmax.  The weighted max wins
# on time from about 256 agents, but up to 1024 it saves little and its
# temporaries raised the peak memory of 1000-agent swarm batches.
_ARGMAX_COLUMNS = 1024


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


def _shrink(h: float, gamma: float) -> float:
    """The rung after ``h``: ``h * gamma``, or 0 once that no longer shrinks."""
    shrunk = h * gamma
    return shrunk if shrunk < h else 0.0


@lru_cache(maxsize=8)
def _ladder(h0: float, gamma: float, h_floor: float) -> np.ndarray:
    """The ladder's first rungs, at most ``_MAX_POINTS`` of them, as a read-only array.

    Every call with the same parameters walks the same rungs, so they are
    made once, by the repeated shrink a rung-by-rung search applies.
    """
    rungs = []
    h = h0
    while len(rungs) < _MAX_POINTS and h > h_floor:
        rungs.append(h)
        h = _shrink(h, gamma)
    out = np.array(rungs)
    out.flags.writeable = False
    return out


def _first_accepted(accept: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether each column of ``accept`` holds a true entry, and the row of its first one.

    ``argmax(axis=0)`` walks the columns one at a time, which is slow for
    many short columns.  There, row ``r`` of ``k`` scores ``k - r`` where it
    is true, and the best score of a column marks the same row.  The scores
    use the smallest unsigned type that holds ``k`` and ``accept`` is read as
    bytes, which keeps the block's temporaries small.
    """
    k, m = accept.shape
    if m <= _ARGMAX_COLUMNS:
        return accept.any(axis=0), accept.argmax(axis=0)
    ranks = np.arange(k, 0, -1, dtype=np.min_scalar_type(k))
    score = (accept.view(np.uint8) * ranks[:, None]).max(axis=0)
    return score > 0, k - score


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
    tried = np.empty(n, dtype=int) if counts is None else counts
    # The agents still searching.
    idx = np.arange(n)
    prefix = _ladder(params.h0, params.gamma, params.h_floor)
    # The rung after the cached prefix, 0 when the ladder ends within it.
    h_next = _shrink(float(prefix[-1]), params.gamma) if prefix.size == _MAX_POINTS else 0.0
    walked = 0
    block = 1
    while idx.size and (walked < prefix.size or h_next > params.h_floor):
        m = idx.size
        size = min(max(block, -(-_MIN_POINTS // m)), max(1, _MAX_POINTS // m))
        h_block = prefix[walked:walked + size]
        if h_block.size < size and h_next > params.h_floor:
            # Past the prefix, the next rungs by the same repeated shrink.
            rungs = []
            while h_block.size + len(rungs) < size and h_next > params.h_floor:
                rungs.append(h_next)
                h_next = _shrink(h_next, params.gamma)
            h_block = np.concatenate((h_block, rungs))
        k = h_block.size
        f_trial = obj.evaluate_many(
            (X.take(idx, axis=0) - h_block[:, None, None] * G.take(idx, axis=0)).reshape(-1, X.shape[1])
        )
        accept = f_trial.reshape(k, m) <= f_base.take(idx) - coeff.take(idx) * h_block[:, None] * g_sq.take(idx)
        hit, first = _first_accepted(accept)
        cols = hit.nonzero()[0]
        if cols.size:
            first = first.take(cols).astype(int)
            acc = idx.take(cols)
            h_out[acc] = h_block.take(first)
            f_out[acc] = f_trial.take(first * m + cols)
            tried[acc] = first + (walked + 1)
            idx = idx[~hit]
        walked += k
        block *= 2
    # The agents left searching walked the whole ladder and stalled.
    tried[idx] = walked
    return h_out, f_out, int(tried.sum())
