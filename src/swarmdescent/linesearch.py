"""Armijo backtracking line search over a geometric step-size ladder.

The search tries the steps ``h0, gamma*h0, gamma^2*h0, ...`` and accepts the
first ``h`` satisfying the sufficient-decrease condition

    F(x - h g) <= F(x) - c * h * |g|^2

where ``g`` is the gradient at ``x`` and ``c`` is the effective descent
coefficient (the base ``lam``, optionally scaled down by a relative-mass
weight).  If the ladder reaches ``h_floor`` without an acceptable step, the
search reports a stall: step 0 and the unchanged objective value.

The ladder restarts from ``h0`` on every call, so its rungs are made once and
cached, in runs of at most ``_MAX_POINTS``: the first run is keyed on
``(h0, gamma)`` and each later one on the rung after the last of the run
before, and a block ends where its run ends.  Every agent still searching
sits on the same rung, so :func:`backtrack_batch` evaluates the ladder in
rung blocks: one objective call covers several consecutive rungs
for all searching agents, and each agent takes the first rung of the block
that it accepts.  Steps and heights are those of the rung-by-rung search.
The reported evaluation count is the paper's count, the sequential ladder's
evaluations up to and including the accepted rung (the whole ladder for a
stalled agent).  The rungs a block evaluates past an agent's accepted one are
not counted there, so more points are evaluated than that count shows.

Blocks double in length from call to call, up to ``_MAX_POINTS`` points.  A
call has a fixed cost: on 2-D Ackley one ladder block of 10 points takes
about 23 us, 13 us of it in ``evaluate_many``, while each further point adds
30-55 ns.  So a block is at least long enough to hold ``_MIN_COORDS``
coordinates over the agents still searching, counted in coordinates because
a point's cost grows with its dimension; 20 one-dimensional agents get 103
rungs, enough for most of them to accept in one call.  The floor stops at
``_LONE_RUNGS`` rungs, the block a lone agent in up to 16 dimensions starts
with: few agents in low dimension accept well inside it, and longer blocks
would mostly evaluate rungs past their accepted ones.

Each block reads the searching agents' rows of the inputs (positions,
gradients, heights, ``|g|^2``, which the caller may pass in, and per-agent
coefficients) and computes in place, never writing into the inputs.  The
first block, where every agent is still searching, reads the caller's
arrays as they are.  A block in which some agents accept and others go on
copies the rows of those left with ``take``, which numpy does several
times faster than fancy or boolean indexing of an ``(m, d)`` array, and a
block in which none accepts copies nothing.  Calls of few agents are
mostly one block, which copies nothing: the 114 ladder calls of a seed-900
``sweep-1d`` round make 116 blocks.  The trial points ``x - h g`` are
formed in the one ``(k, m, d)`` array that holds ``h g``, and the Armijo
thresholds ``f - c h |g|^2`` in one ``(k, m)`` array; when every agent
shares ``c``, ``c h`` is one product per rung rather than one per agent
and rung.  The thresholds are formed before the block's evaluation and
passed to it, so a landscape may return ``+inf``, without computing the
value, for a trial point it can show the Armijo test rejects (the
``ackley`` landscape skips its cosines; see ``objectives``): the point is
rejected either way, and the value of a rejected rung is never used.
Each operation keeps its operands and order, so every bit is that of the
whole-array expressions.  In a wide batch each of these arrays is above
glibc's mmap threshold, so every one a block does not allocate is pages
not mapped afresh: a ``gdbt-ackley2d`` round (4000 agents) takes fewer
than half the minor page faults it took with a fresh array for each step
of those expressions.

The set of searching agents shrinks in the blocks where some agent
accepts, and the search ends as soon as it is empty.  Each agent's count
is written once: when it accepts, as the rungs walked before its block
plus its rung within it, and for an agent still searching when the ladder
runs out, as the whole ladder.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .objectives import Objective, _row_sum

__all__ = ["BacktrackParams", "backtrack_batch"]

# Coordinates per objective call below which the call's fixed cost (about
# 23 us for a 10-point block of 2-D Ackley, against 30-55 ns per further
# point) dominates.  Counted in coordinates, not points, because a point's
# cost grows with its dimension: a block holds at least enough rungs to reach
# this many coordinates over the searching agents, but at most _LONE_RUNGS.
_MIN_COORDS = 2048
# Rungs above which the floor stops growing: a lone agent's first block, the
# same as when the floor counted 128 points.  Agents in low dimension accept
# well inside it (the 1-D sweeps around rung 53 of a 306-rung ladder, 90% by
# rung 84), so longer blocks would mostly evaluate rungs past the accepted one.
_LONE_RUNGS = 128
# Bound on the points of one call and on the rungs of one cached run, which
# keeps a long ladder (gamma near 1) from building one huge array.
_MAX_POINTS = 8192
# Rungs up to which a block's first accepted rungs are found row by row, a
# few whole-row operations per rung; a longer block takes argmax, whose
# column-by-column walk is slow over many columns.  A block of more than
# 1024 agents holds at most _MAX_POINTS // 1025 = 7 rungs, so every wide
# block is read row by row.
_SHORT_BLOCK = 7


@dataclass(frozen=True)
class BacktrackParams:
    """Step-ladder parameters shared by all backtracking callers.

    The ladder reads ``lam`` only through the coefficient its caller passes:
    GD(BT) and the correction step pass ``lam`` itself, and the swarm passes
    ``lam * m~^q`` with its own exponent ``SBGDParams.q``.

    Attributes
    ----------
    lam : float
        Base descent coefficient in (0, 1); the fraction of ``h |g|^2``
        decrease demanded from an accepted step.
    gamma : float
        Ladder shrink factor in (0, 1).
    h0 : float
        Largest (first) trial step, finite and above ``h_floor``.
    h_floor : float
        Stall threshold, a class constant rather than an argument: once
        trial steps drop to or below it the search gives up and returns
        step 0.
    """

    lam: float = 0.2
    gamma: float = 0.9
    h0: float = 1.0
    h_floor: ClassVar[float] = 1e-14

    def __post_init__(self) -> None:
        if not 0.0 < self.lam < 1.0:
            raise ValueError(f"lam must lie in (0, 1), got {self.lam}")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        if not self.h_floor < self.h0 < np.inf:
            raise ValueError(f"h0 must be finite and above h_floor = {self.h_floor}, got {self.h0}")


@lru_cache(maxsize=8)
def _ladder(h: float, gamma: float) -> np.ndarray:
    """The run of rungs from ``h``, at most ``_MAX_POINTS`` of them, as a read-only array.

    ``h`` is any rung that starts a run: ``h0``, or the rung after the last
    of a full run.  Every call with the same parameters walks the same
    rungs, so they are made once, by the rung-by-rung search's repeated
    multiply in one ``np.multiply.accumulate``.  The run ends before the
    first rung at or below the floor, and is copied out of the full buffer.

    Every rung shrinks, so the ladder reaches the floor.  A rung above the
    floor is a normal double ``h = s 2^e`` with ``1 <= s < 2``, and ``gamma
    <= 1 - 2^-53``, so the exact ``h * gamma`` lies at least ``s 2^(e-53)``
    below ``h``.  For ``s > 1`` that is more than half of ``h``'s ulp
    ``2^(e-52)``, and for ``s = 1`` it is at least the spacing ``2^(e-53)``
    of the binade below; either way it rounds to nearest below ``h``.
    """
    rungs = np.full(_MAX_POINTS, gamma)
    rungs[0] = h
    np.multiply.accumulate(rungs, out=rungs)
    ended = rungs <= BacktrackParams.h_floor
    out = rungs[:ended.argmax() if ended.any() else _MAX_POINTS].copy()
    out.flags.writeable = False
    return out


def _first_accepted(accept: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether each column of ``accept`` holds a true entry, and the row of its first one.

    The row counts only where the column holds one.  A block of at most
    ``_SHORT_BLOCK`` rows is read row by row: ``miss`` marks the columns
    false in every row so far, and the first true row of a column is the
    number of rows that missed before it.  A longer block takes ``argmax``,
    which gives row 0 to a column with no true entry, so a column has one
    where its first row is true or its ``argmax`` is past it.
    """
    k = accept.shape[0]
    if k <= _SHORT_BLOCK:
        miss = ~accept[0]
        first = miss.astype(np.intp)
        for row in accept[1:-1]:
            miss &= ~row
            first += miss
        return accept[-1] | ~miss, first
    first = accept.argmax(axis=0)
    return accept[0] | (first != 0), first


def backtrack_batch(
    obj: Objective,
    positions: np.ndarray,
    grads: np.ndarray,
    c,
    params: BacktrackParams,
    f_current: np.ndarray,
    *,
    g_sq: np.ndarray | None = None,
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
    g_sq : ndarray, shape (n,), optional
        ``np.add.reduce(grads * grads, axis=1)``, computed here if not given.
    counts : integer ndarray, shape (n,), optional
        Output array; receives each agent's share of ``n_evals``.

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
    if X.ndim != 2 or G.shape != X.shape or X.shape[1] < 1:
        raise ValueError(
            f"positions and grads must share a (n, d) shape with d >= 1, got {X.shape} and {G.shape}"
        )
    n, d = X.shape
    coeff = np.asarray(c, dtype=float)
    if coeff.ndim and coeff.shape != (n,):
        raise ValueError(f"c must be a scalar or have shape ({n},), got {coeff.shape}")
    f_base = np.asarray(f_current, dtype=float)
    if f_base.shape != (n,):
        raise ValueError(f"f_current must have shape ({n},), got {f_base.shape}")
    g_sq = _row_sum(G * G) if g_sq is None else np.asarray(g_sq, dtype=float)
    if g_sq.shape != (n,):
        raise ValueError(f"g_sq must have shape ({n},), got {g_sq.shape}")
    tried = np.empty(n, dtype=int) if counts is None else counts
    if not (isinstance(tried, np.ndarray) and tried.shape == (n,) and tried.dtype.kind in "iu"):
        raise ValueError(f"counts must be an integer array of shape ({n},), got {type(tried).__name__} "
                         f"of {np.asarray(tried).dtype} and shape {np.shape(tried)}")
    h_out, f_out = np.zeros(n), f_base.copy()
    # The searching agents and their rows: the inputs themselves until some accept.
    idx, Xs, Gs, gs, fs, cs = np.arange(n), X, G, g_sq, f_base, coeff
    # The cached run of rungs being walked, the rungs walked in it and in all.
    run, start, walked = _ladder(params.h0, params.gamma), 0, 0
    block = 1
    while idx.size and start < run.size:
        m = idx.size
        floor = min(_LONE_RUNGS, -(-_MIN_COORDS // (m * d)))
        size = min(max(block, floor), max(1, _MAX_POINTS // m))
        h_block = run[start:start + size]
        k = h_block.size
        # The trial points x - h g, formed in the array that holds h g.
        trial = h_block[:, None, None] * Gs
        np.subtract(Xs, trial, out=trial)
        # The Armijo thresholds f - c h |g|^2, formed in one (k, m) array.
        if coeff.ndim:
            bound = cs * h_block[:, None]
            bound *= gs
        else:
            bound = (coeff * h_block)[:, None] * gs
        np.subtract(fs, bound, out=bound)
        f_trial = obj.evaluate_many(trial.reshape(-1, d), bound.reshape(-1)).reshape(k, m)
        hit, first = _first_accepted(f_trial <= bound)
        cols = hit.nonzero()[0]
        if cols.size:
            first = first.take(cols)
            acc = idx.take(cols)
            h_out[acc] = h_block.take(first)
            f_out[acc] = f_trial[first, cols]
            tried[acc] = first + (walked + 1)
            if cols.size == m:
                break
            rest = (~hit).nonzero()[0]
            idx, Xs, Gs, gs, fs = (a.take(rest, axis=0) for a in (idx, Xs, Gs, gs, fs))
            cs = cs.take(rest) if coeff.ndim else cs
        walked += k
        start += k
        block *= 2
        if start == _MAX_POINTS:
            # A full run walked: the next starts at the rung after its last, and is empty past the floor.
            run, start = _ladder(float(run[-1]) * params.gamma, params.gamma), 0
    else:
        # The ladder ran out: the agents left searching walked all of it and stalled.
        tried[idx] = walked
    return h_out, f_out, int(np.add.reduce(tried))
