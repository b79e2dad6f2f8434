"""Per-run reference loops: one swarm or baseline run at a time, as the package ran them before lockstep.

The lockstep run loop must reproduce these bit for bit.  The swarm step here
is the single-run one, written with whole-array reductions (``f.min()``,
``m.sum()``, ``np.argmin``) and the bare greedy merge, so it shares no
per-run bookkeeping with the package; only the objectives and the ladder
(``linesearch.backtrack_batch``, which has its own oracle) are the
package's.  ``oracle_correct`` is the mean-solution correction descent as
the package ran it on one point at a time, with its scalar ladder call
written as the one-row ``backtrack_batch`` call it made.
"""

import numpy as np

from swarmdescent.baselines import BaselineMethod
from swarmdescent.harness import CorrectionResult
from swarmdescent.linesearch import backtrack_batch
from swarmdescent.swarm import RunResult, SBGDParams, StopReason


def reference_merge(positions, masses, heights, tol):
    """The greedy leader-order merge with no pre-check: every agent leads or joins a cluster."""
    n = masses.size
    if n <= 1:
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
            cluster[np.nonzero(free)[0][dist < tol]] = n_clusters
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
    return positions[keep_idx[order]], merged_mass[order], heights[keep_idx[order]], n - n_clusters


def _row_norms(diffs):
    return np.sqrt(np.sum(diffs * diffs, axis=1))


def _sbgd_step(pos, m, f, n0, obj, params):
    """One single-run swarm iteration: new (pos, m, f), residual, the survivors' steps, evaluations, record.

    The record holds, by ``IterationStats`` field name, what the step did:
    among others each survivor's coefficient, ``|g|^2`` and ladder count,
    the new masses and the residual.
    """
    total = m.sum()
    i_min = int(np.argmin(f))
    x_min_prev = pos[i_min].copy()
    keep = m >= params.tolm / n0
    keep[i_min] = True
    if not keep.all():
        pos, m, f = pos[keep], m[keep], f[keep]
        i_min = int(np.count_nonzero(keep[:i_min]))
    eta = (f - f.min()) / (f.max() - f.min() + params.eps_eta)
    if eta[i_min] != 0.0:
        raise RuntimeError(f"the minimizer must have relative height 0, got {eta[i_min]}")
    m_new = m * (1.0 - eta**params.p)
    others = np.ones(m.size, dtype=bool)
    others[i_min] = False
    m_new[i_min] = total - m_new[others].sum()
    coeff = params.backtrack.lam * (m_new / m_new.max()) ** params.q
    grads = obj.gradient_many(pos)
    ladder = np.zeros(pos.shape[0], dtype=int)
    h, f_step, evals = backtrack_batch(obj, pos, grads, coeff, params.backtrack, f, counts=ladder)
    new_pos, new_m, new_f, merged = reference_merge(pos - h[:, None] * grads, m_new, f_step, params.tolmerge)
    j_min = int(np.argmin(new_f))
    residual = float(_row_norms(new_pos[j_min][None, :] - x_min_prev[None, :])[0])
    record = {
        "eliminated": int(keep.size - np.count_nonzero(keep)),
        "merged": merged,
        "heights_before": f,
        "grad_sq_norms": np.sum(grads * grads, axis=1),
        "effective_descent": coeff,
        "step_sizes": h,
        "heights_after_step": f_step,
        "positions": new_pos,
        "masses": new_m,
        "heights": new_f,
        "residual": residual,
        "ladder_evals": ladder,
    }
    return (new_pos, new_m, new_f), residual, h, evals, record


def oracle_sbgd(obj, x0, params: SBGDParams, history: list | None = None) -> RunResult:
    """The per-run swarm loop; ``history``, if given, receives each step's record."""
    pos = np.array(x0, dtype=float, ndmin=2)
    n = pos.shape[0]
    state = (pos, np.full(n, 1.0 / n), obj.evaluate_many(pos))
    objective_evals, gradient_evals = n, 0
    stop = StopReason.MAX_ITERS
    iterations = 0
    for _ in range(params.max_iters):
        state, residual, h, evals, record = _sbgd_step(*state, n, obj, params)
        if history is not None:
            history.append(record)
        iterations += 1
        objective_evals += evals
        gradient_evals += h.size
        if state[0].shape[0] == 1 and h.size == 1 and h[0] == 0.0:
            stop = StopReason.SINGLE_STALLED_AGENT
            break
        if residual < params.tolres:
            stop = StopReason.RESIDUAL
            break
    pos, _, f = state
    i_best = int(np.argmin(f))
    return RunResult(pos[i_best].copy(), float(f[i_best]), iterations, objective_evals,
                     gradient_evals, stop)


def oracle_baseline(obj, x0, params) -> RunResult:
    """The per-run baseline loop."""
    X = np.array(x0, dtype=float, ndmin=2)
    n = X.shape[0]
    method = params.method
    bt = params.backtrack
    active = np.ones(n, dtype=bool)
    objective_evals = gradient_evals = 0
    f_current = None
    if method is BaselineMethod.GD_BACKTRACK:
        f_current = obj.evaluate_many(X)
        objective_evals += n
    if method is BaselineMethod.ADAM:
        mom1 = np.zeros_like(X)
        mom2 = np.zeros_like(X)
        t_step = np.zeros(n, dtype=int)
    sweeps = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while active.any() and sweeps < params.max_iters:
            sweeps += 1
            idx = np.nonzero(active)[0]
            x_act = X[idx]
            grads = obj.gradient_many(x_act)
            gradient_evals += idx.size
            if method is BaselineMethod.GD_FIXED:
                x_next = x_act - params.h * grads
            elif method is BaselineMethod.GD_BACKTRACK:
                h, f_new, evals = backtrack_batch(obj, x_act, grads, bt.lam, bt, f_current[idx])
                objective_evals += evals
                x_next = x_act - h[:, None] * grads
                f_current[idx] = f_new
            else:
                t_step[idx] += 1
                mom1[idx] = params.adam_beta1 * mom1[idx] + (1.0 - params.adam_beta1) * grads
                mom2[idx] = params.adam_beta2 * mom2[idx] + (1.0 - params.adam_beta2) * grads * grads
                m_hat = mom1[idx] / (1.0 - params.adam_beta1 ** t_step[idx][:, None])
                v_hat = mom2[idx] / (1.0 - params.adam_beta2 ** t_step[idx][:, None])
                x_next = x_act - params.h * m_hat / (np.sqrt(v_hat) + params.adam_eps)
            residual = _row_norms(x_next - x_act)
            X[idx] = x_next
            active[idx] = residual >= params.tolres
        if f_current is None:
            f_current = obj.evaluate_many(X)
            objective_evals += n
    stop = StopReason.MAX_ITERS if active.any() else StopReason.RESIDUAL
    i_best = int(np.argmin(np.where(np.isnan(f_current), np.inf, f_current)))
    return RunResult(X[i_best].copy(), float(f_current[i_best]), sweeps, objective_evals,
                     gradient_evals, stop)


def oracle_batch(obj, method, starts) -> list[RunResult]:
    """Stand-in for ``harness._run_batch``: the runs one after another."""
    run = oracle_sbgd if isinstance(method, SBGDParams) else oracle_baseline
    return [run(obj, x0, method) for x0 in starts]


def one_row_value(obj, x):
    """The objective at one point ``x``, as a one-row ``evaluate_many`` call."""
    return float(obj.evaluate_many([x])[0])


def one_row_gradient(obj, x):
    """The gradient at one point ``x``, as a one-row ``gradient_many`` call."""
    return obj.gradient_many([x])[0]


def one_row_backtrack(obj, x, g, c, params, f_x):
    """The ladder for one point, as ``backtrack_batch`` on a one-row batch: ``(h, f_new, n_evals)``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    g = np.atleast_1d(np.asarray(g, dtype=float))
    h, f_new, n_evals = backtrack_batch(obj, x[None, :], g[None, :], float(c), params, np.array([float(f_x)]))
    return float(h[0]), float(f_new[0]), n_evals


def oracle_correct(obj, mean_solution, grad_tol, params, max_iters) -> CorrectionResult:
    """The correction descent on a single point, stopping at ``|grad F| < grad_tol`` or a stalled ladder."""
    x = np.array(mean_solution, dtype=float)
    f = one_row_value(obj, x)
    converged = False
    iterations = 0
    while iterations < max_iters:
        g = one_row_gradient(obj, x)
        if float(np.sqrt(np.sum(g * g))) < grad_tol:
            converged = True
            break
        h, f_new, _ = one_row_backtrack(obj, x, g, params.lam, params, f)
        if h == 0.0:
            break
        iterations += 1
        x = x - h * g
        f = f_new
    return CorrectionResult(x, float(f), float(np.max(np.abs(x - obj.minimizer))), converged, iterations)
