"""Tests for the backtracking step-size ladder."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from per_run_oracle import one_row_backtrack, oracle_batch

from swarmdescent import baselines, harness, objectives, swarm
from swarmdescent.cli import main as cli_main
from swarmdescent.cli import preset_names
from swarmdescent.linesearch import (
    _MAX_POINTS,
    _SHORT_BLOCK,
    BacktrackParams,
    _first_accepted,
    _ladder,
    backtrack_batch,
)
from swarmdescent.objectives import make_objective

QUAD1 = make_objective("quadratic", 1)


def reference_backtrack_batch(obj, positions, grads, c, params, f_current, *, g_sq=None, counts=None):
    """The rung-by-rung ladder: one objective call per rung for the agents still searching.

    A caller's ``g_sq`` must equal, bit for bit, the one computed here.
    """
    X = np.asarray(positions, dtype=float)
    G = np.asarray(grads, dtype=float)
    n = X.shape[0]
    coeff = np.broadcast_to(np.asarray(c, dtype=float), (n,))
    f_base = np.asarray(f_current, dtype=float)
    own = np.sum(G * G, axis=1)
    assert g_sq is None or np.array_equal(_bits(g_sq), _bits(own))
    g_sq = own
    h_try = np.full(n, float(params.h0))
    h_out = np.zeros(n)
    f_out = f_base.copy()
    active = np.ones(n, dtype=bool)
    n_evals = 0
    tried = np.zeros(n, dtype=int)
    while True:
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        trial = X[idx] - h_try[idx][:, None] * G[idx]
        f_trial = obj.evaluate_many(trial)
        n_evals += idx.size
        tried[idx] += 1
        accept = f_trial <= f_base[idx] - coeff[idx] * h_try[idx] * g_sq[idx]
        acc = idx[accept]
        h_out[acc] = h_try[acc]
        f_out[acc] = f_trial[accept]
        active[acc] = False
        rej = idx[~accept]
        h_prev = h_try[rej]
        h_try[rej] *= params.gamma
        stalled = rej[(h_try[rej] <= params.h_floor) | (h_try[rej] == h_prev)]
        active[stalled] = False
    if counts is not None:
        counts[:] = tried
    return h_out, f_out, n_evals


def test_quadratic_accepts_first_step():
    # On 1/2 x^2 the Armijo condition holds iff h <= 2(1 - c); with c = 0.2
    # the threshold is 1.6, so the ladder accepts h0 = 1 immediately.
    h, f_new, n_evals = one_row_backtrack(QUAD1, [1.0], [1.0], 0.2, BacktrackParams(), f_x=0.5)
    assert h == 1.0
    assert f_new == 0.0
    assert n_evals == 1


def test_quadratic_shrinks_oversized_step():
    # h0 = 2 exceeds the 1.6 threshold; 2*0.9^3 = 1.458 is the first rung below.
    params = BacktrackParams(h0=2.0)
    h, f_new, n_evals = one_row_backtrack(QUAD1, [1.0], [1.0], 0.2, params, f_x=0.5)
    assert h == 2.0 * 0.9**3
    assert f_new == QUAD1.evaluate([1.0 - h])
    assert n_evals == 4


def test_zero_gradient_accepts_h0_without_moving():
    h, f_new, n_evals = one_row_backtrack(QUAD1, [0.0], [0.0], 0.2, BacktrackParams(), f_x=0.0)
    assert h == BacktrackParams().h0
    assert f_new == 0.0
    assert n_evals == 1


def test_stall_at_a_conical_minimum():
    # Next to the Ackley cone tip the gradient magnitude stays ~4 while the
    # function value is ~1e-14; every ladder step overshoots the tip and
    # lands higher, so no step is acceptable and the agent stalls.
    obj = make_objective("ackley", 1)
    x = np.array([2e-15])
    g = obj.gradient(x)
    f_x = obj.evaluate(x)
    h, f_new, n_evals = one_row_backtrack(obj, x, g, 0.2, BacktrackParams(), f_x=f_x)
    assert h == 0.0
    assert f_new == f_x
    # The ladder was walked all the way down to the floor.
    assert n_evals > 200


def test_descent_condition_holds_as_evaluated():
    rng = np.random.default_rng(23)
    objs = [
        make_objective("flatbasin1d"),
        make_objective("rastrigin1d"),
        make_objective("dropwave", 2),
        make_objective("quadratic", 3),
    ]
    for _ in range(200):
        obj = objs[rng.integers(len(objs))]
        x = rng.uniform(-3.0, 3.0, obj.dimension)
        c = float(rng.uniform(0.05, 0.95))
        params = BacktrackParams(
            lam=c, gamma=float(rng.uniform(0.5, 0.95)), h0=float(rng.uniform(0.5, 2.0))
        )
        g = obj.gradient(x)
        f_x = obj.evaluate(x)
        h, f_new, _ = one_row_backtrack(obj, x, g, c, params, f_x=f_x)
        if h > 0.0:
            g_sq = np.sum(np.atleast_1d(g) * np.atleast_1d(g))
            assert f_new <= f_x - c * h * g_sq
            assert f_new == obj.evaluate(x - h * np.atleast_1d(g))


def test_step_lower_bound_on_quadratic():
    # Lemma-style bound: whenever the ladder shrinks below h0, the accepted
    # step still satisfies h >= (2 gamma / L)(1 - c) on the quadratic.
    rng = np.random.default_rng(31)
    for _ in range(200):
        mu = float(rng.uniform(0.5, 4.0))
        obj = make_objective("quadratic", 1, mu=mu)
        x = np.array([float(rng.uniform(0.5, 3.0))])
        c = float(rng.uniform(0.05, 0.95))
        gamma = float(rng.uniform(0.5, 0.95))
        params = BacktrackParams(lam=c, gamma=gamma, h0=float(rng.uniform(0.5, 3.0)))
        h, _, _ = one_row_backtrack(obj, x, obj.gradient(x), c, params, f_x=obj.evaluate(x))
        assert h > 0.0
        if h < params.h0:
            assert h >= (2.0 * gamma / mu) * (1.0 - c)


def test_step_monotone_in_descent_coefficient():
    obj = make_objective("flatbasin1d")
    x = np.array([-2.2])
    g = obj.gradient(x)
    f_x = obj.evaluate(x)
    steps = [
        one_row_backtrack(obj, x, g, c, BacktrackParams(lam=c), f_x=f_x)[0]
        for c in np.arange(0.1, 1.0, 0.1)
    ]
    assert all(a >= b for a, b in zip(steps, steps[1:]))


def test_batch_matches_scalar_calls_bitwise():
    obj = make_objective("rastrigin1d")
    rng = np.random.default_rng(41)
    X = rng.uniform(-3.0, 3.0, (6, 1))
    G = obj.gradient_many(X)
    F = obj.evaluate_many(X)
    c = rng.uniform(0.05, 0.95, 6)
    params = BacktrackParams()
    h_b, f_b, _ = backtrack_batch(obj, X, G, c, params, F)
    for i in range(6):
        h_s, f_s, _ = one_row_backtrack(obj, X[i], G[i], float(c[i]), params, f_x=float(F[i]))
        assert h_s == h_b[i]
        assert f_s == f_b[i]


def test_batch_evaluation_budget():
    # Two agents from the same point: c = 0.2 accepts the first rung, c = 0.9
    # needs h <= 0.2, first reached at 0.9^16.  Rung 0 evaluates both agents,
    # rungs 1..16 only the demanding one: 2 + 16 evaluations in total.
    X = np.array([[1.0], [1.0]])
    G = np.array([[1.0], [1.0]])
    F = np.array([0.5, 0.5])
    h, _, n_evals = backtrack_batch(QUAD1, X, G, [0.2, 0.9], BacktrackParams(), F)
    assert h[0] == 1.0
    rung = 1.0
    for _ in range(16):
        rung *= 0.9
    assert h[1] == rung
    assert n_evals == 18


def test_params_validation():
    with pytest.raises(ValueError, match="lam"):
        BacktrackParams(lam=1.0)
    with pytest.raises(ValueError, match="lam"):
        BacktrackParams(lam=0.0)
    with pytest.raises(ValueError, match="gamma"):
        BacktrackParams(gamma=1.2)
    with pytest.raises(ValueError, match="h0"):
        BacktrackParams(h0=0.0)
    with pytest.raises(ValueError, match="h_floor"):
        BacktrackParams(h0=1e-15)
    with pytest.raises(ValueError, match="h_floor"):
        BacktrackParams(h0=BacktrackParams.h_floor)


@pytest.mark.parametrize("h0", [math.inf, math.nan])
def test_h0_must_be_finite(h0):
    # An infinite h0 would make a ladder of inf rungs that never reach the floor.
    with pytest.raises(ValueError, match="h0"):
        BacktrackParams(h0=h0)


def test_every_rung_above_the_floor_shrinks():
    # The premise of _ladder's proof that the ladder reaches the floor: with
    # the largest gamma below 1, h * gamma < h for the smallest, next to
    # smallest, middle and largest mantissas of every binade from the
    # floor's up to the largest double.
    gamma = np.nextafter(1.0, 0.0)
    assert gamma == 1.0 - 2.0**-53
    exponents = np.arange(np.frexp(BacktrackParams.h_floor)[1] - 1, 1024)
    mantissas = np.array([1.0, 1.0 + 2.0**-52, 1.5, 2.0 - 2.0**-52])
    h = np.ldexp(mantissas[:, None], exponents[None, :])
    assert np.isfinite(h).all() and h.max() == np.finfo(float).max
    assert h.min() <= BacktrackParams.h_floor and h.min() >= np.finfo(float).tiny
    assert np.all(h * gamma < h)


def test_batch_shape_validation():
    with pytest.raises(ValueError):
        backtrack_batch(QUAD1, np.zeros((3, 1)), np.zeros((2, 1)), 0.2, BacktrackParams(), np.zeros(3))
    with pytest.raises(ValueError):
        backtrack_batch(QUAD1, np.zeros((3, 1)), np.zeros((3, 1)), 0.2, BacktrackParams(), np.zeros(2))
    with pytest.raises(ValueError, match="d >= 1"):
        backtrack_batch(QUAD1, np.zeros((3, 0)), np.zeros((3, 0)), 0.2, BacktrackParams(), np.zeros(3))
    with pytest.raises(ValueError, match=r"c must be a scalar or have shape \(3,\), got \(4,\)"):
        backtrack_batch(QUAD1, np.zeros((3, 1)), np.zeros((3, 1)), np.full(4, 0.2), BacktrackParams(),
                        np.zeros(3))


_OBJECTIVES_BY_DIM = {
    1: ("flatbasin1d", "rastrigin1d", "ackley1d", "quadratic"),
    2: ("ackley", "dropwave", "rastrigin", "rosenbrock2d"),
    20: ("ackley", "rastrigin", "quadratic"),
}

# (gamma, h0).  Each kind keeps a stalled agent's ladder short enough for
# the rung-by-rung oracle: the usual steps; steps near the floor, which the
# ladder reaches in a few rungs; gamma close to 1, from steps within a
# factor of 10 of the floor.
_FLOOR = BacktrackParams.h_floor
_LADDERS = st.one_of(
    st.tuples(st.floats(0.05, 0.95), st.floats(0.01, 4.0)),
    st.tuples(st.floats(0.05, 0.95), st.floats(_FLOOR, 1e3 * _FLOOR, exclude_min=True)),
    st.tuples(st.floats(0.99, 0.999), st.floats(_FLOOR, 10 * _FLOOR, exclude_min=True)),
)

# Ladders longer than the cached prefix of _MAX_POINTS rungs: gamma near 1,
# from h0 of at least 0.1, above which every such ladder has 8500 rungs or more.
_LONG_LADDERS = st.tuples(st.floats(0.9965, 0.997), st.floats(0.1, 4.0))


@st.composite
def _ladder_cases(draw, ladders=_LADDERS, max_agents=200):
    d = draw(st.sampled_from(sorted(_OBJECTIVES_BY_DIM)))
    obj = make_objective(draw(st.sampled_from(_OBJECTIVES_BY_DIM[d])), d)
    n = draw(st.integers(1, max_agents))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.uniform(-3.0, 3.0, (n, d))
    G = obj.gradient_many(X)
    F = obj.evaluate_many(X)
    # Zero gradients accept at rung 0; a base far below every trial value
    # stalls the agent after the whole ladder; a NaN base stalls it too.
    G[rng.random(n) < draw(st.sampled_from([0.0, 0.2, 1.0]))] = 0.0
    F[rng.random(n) < draw(st.sampled_from([0.0, 0.1, 1.0]))] -= 1e6
    F[rng.random(n) < draw(st.sampled_from([0.0, 0.1]))] = np.nan
    gamma, h0 = draw(ladders)
    params = BacktrackParams(gamma=gamma, h0=h0)
    if draw(st.booleans()):
        c = draw(st.floats(0.01, 0.99))
    else:
        c = rng.uniform(0.01, 0.99, n)
    return obj, X, G, c, params, F


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def _assert_matches_rung_by_rung(case):
    n = case[1].shape[0]
    counts, counts_ref = np.full(n, -1), np.full(n, -1)
    h, f_new, n_evals = backtrack_batch(*case, counts=counts)
    h_ref, f_ref, n_ref = reference_backtrack_batch(*case, counts=counts_ref)
    assert np.array_equal(_bits(h), _bits(h_ref))
    assert np.array_equal(_bits(f_new), _bits(f_ref))
    assert np.array_equal(counts, counts_ref)
    assert n_evals == n_ref == counts.sum()


@settings(deadline=None)
@given(_ladder_cases())
def test_batch_matches_rung_by_rung_ladder_bitwise(case):
    _assert_matches_rung_by_rung(case)


def _assert_scalar_c_matches_a_full_array(case, c):
    obj, X, G, _, params, F = case
    n = X.shape[0]
    counts, counts_full = np.full(n, -1), np.full(n, -1)
    h, f_new, n_evals = backtrack_batch(obj, X, G, c, params, F, counts=counts)
    h_full, f_full, n_full = backtrack_batch(obj, X, G, np.full(n, c), params, F, counts=counts_full)
    assert np.array_equal(_bits(h), _bits(h_full))
    assert np.array_equal(_bits(f_new), _bits(f_full))
    assert np.array_equal(counts, counts_full)
    assert n_evals == n_full


@settings(deadline=None, max_examples=50)
@given(_ladder_cases(), st.floats(0.01, 0.99))
def test_scalar_c_matches_a_full_array_bitwise(case, c):
    # A scalar c takes c * h once per rung; an array takes it per agent and rung.
    _assert_scalar_c_matches_a_full_array(case, c)


def _mixed_agents(obj, n, seed, center=0.0):
    """Agents that accept, stall below a far base, stall on a NaN base, or have a zero gradient, in turn."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(center - 3.0, center + 3.0, (n, obj.dimension))
    G = obj.gradient_many(X)
    F = obj.evaluate_many(X)
    kind = np.arange(n) % 4
    F[kind == 1] -= 1e6
    F[kind == 2] = np.nan
    G[kind == 3] = 0.0
    return X, G, F, kind


@pytest.mark.parametrize("c", [0.3, "per agent"])
def test_counts_of_mixed_agents_match_rung_by_rung(c):
    obj = make_objective("rastrigin", 2)
    X, G, F, kind = _mixed_agents(obj, 40, 7)
    c = np.random.default_rng(8).uniform(0.01, 0.99, 40) if c == "per agent" else c
    params = BacktrackParams()
    _assert_matches_rung_by_rung((obj, X, G, c, params, F))
    counts = np.zeros(40, dtype=int)
    h, _, _ = backtrack_batch(obj, X, G, c, params, F, counts=counts)
    full = _ladder(params.h0, params.gamma).size
    assert np.all(counts[kind == 1] == full) and np.all(counts[kind == 2] == full)
    assert np.all(counts[kind == 3] == 1)
    assert np.all(h[kind == 0] > 0.0) and np.all(counts[kind == 0] < full)


def _first_accepted_loop(accept):
    """Per column, by a Python loop: whether it holds a true entry, and the row of its first one."""
    hit = np.zeros(accept.shape[1], dtype=bool)
    first = np.zeros(accept.shape[1], dtype=int)
    for col, column in enumerate(accept.T.tolist()):
        if True in column:
            hit[col], first[col] = True, column.index(True)
    return hit, first


@pytest.mark.parametrize("k", range(1, 10))
@pytest.mark.parametrize("m", [1, 6, 1024, 1025, 1170, 1372, 1903, 3072])
def test_first_accepted_matches_a_column_loop(k, m):
    # k runs across _SHORT_BLOCK rows, so both searches are taken, over
    # narrow and wide blocks; (5, 1372) and (4, 1903) are block shapes of a
    # gdbt-ackley2d round.  Each column of the mixed blocks has its own odds.
    assert 1 <= _SHORT_BLOCK < 9
    rng = np.random.default_rng(1000 * k + m)
    blocks = [np.zeros((k, m), dtype=bool), np.ones((k, m), dtype=bool),
              rng.random((k, m)) < rng.random(m), rng.random((k, m)) < 0.05]
    for accept in blocks:
        before = accept.copy()
        hit, first = _first_accepted(accept)
        want_hit, want_first = _first_accepted_loop(accept)
        assert np.array_equal(hit, want_hit)
        assert np.array_equal(first[hit], want_first[hit])
        assert np.array_equal(accept, before)


def test_wide_batch_in_one_rung_blocks_matches_rung_by_rung_bitwise():
    # Past _MAX_POINTS // 2 searching agents every block is a single rung,
    # the regime of a wide GD(BT) batch on the shifted 2-D Ackley.
    n = _MAX_POINTS // 2 + 1
    obj = make_objective("ackley", 2, shift_b=10.0)
    X, G, F, kind = _mixed_agents(obj, n, 11)
    params = BacktrackParams(lam=0.3)
    _assert_matches_rung_by_rung((obj, X, G, 0.3, params, F))
    recording = _Recording(obj)
    backtrack_batch(recording, X, G, 0.3, params, F)
    sizes = recording.sizes
    assert sizes[0] == n
    # The agents made to stall are still searching in the last block.
    assert sizes[-1] >= np.count_nonzero(kind == 1) + np.count_nonzero(kind == 2)


def test_wide_batch_in_two_rung_blocks_matches_rung_by_rung_bitwise():
    # 4000 agents, the width of a gdbt-ackley2d batch: _MAX_POINTS caps the
    # blocks after the first at 2 rungs, whose first accepts are found row
    # by row, with more than 1024 agents searching.
    n = 4000
    obj = make_objective("ackley", 2, shift_b=10.0)
    X, G, F, _ = _mixed_agents(obj, n, 13)
    case = (obj, X, G, 0.3, BacktrackParams(lam=0.3), F)
    _assert_matches_rung_by_rung(case)
    _assert_scalar_c_matches_a_full_array(case, 0.3)
    counts = np.zeros(n, dtype=int)
    reference_backtrack_batch(*case, counts=counts)
    searching = np.count_nonzero(counts > 1)
    assert searching > 1024
    recording = _Recording(obj)
    backtrack_batch(recording, *case[1:])
    assert recording.sizes[:2] == [n, 2 * searching]


@pytest.mark.parametrize("c", ["scalar", "per agent"])
def test_agents_on_the_armijo_boundary_match_rung_by_rung_bitwise(c):
    # Each base puts f - c h |g|^2 within an ulp of the first trial value, so
    # c h |g|^2 rounded in any other order (such as c (h |g|^2)) flips accepts.
    n = 3000
    obj = make_objective("ackley", 2, shift_b=10.0)
    rng = np.random.default_rng(17)
    X = rng.uniform(-3.0, 3.0, (n, 2))
    G = obj.gradient_many(X)
    coeff = 0.3 if c == "scalar" else rng.uniform(0.01, 0.99, n)
    params = BacktrackParams(lam=0.3, h0=0.7)
    drop = coeff * params.h0 * np.sum(G * G, axis=1)
    F = obj.evaluate_many(X - params.h0 * G) + drop
    F = np.where(rng.random(n) < 0.5, np.nextafter(F, np.inf), F)
    _assert_matches_rung_by_rung((obj, X, G, coeff, params, F))
    h, _, _ = reference_backtrack_batch(obj, X, G, coeff, params, F)
    assert 0 < np.count_nonzero(h == params.h0) < n


class _Recording:
    """An objective that records the number of points of each ``evaluate_many`` call.

    It forwards the ladder's Armijo thresholds, so the screened kernels run
    as they do without it, and counts the values that come back infinite.
    """

    def __init__(self, obj):
        self.obj, self.sizes, self.infinite = obj, [], 0

    def evaluate_many(self, points, thresholds=None):
        self.sizes.append(points.shape[0])
        values = self.obj.evaluate_many(points, thresholds)
        self.infinite += np.count_nonzero(np.isinf(values))
        return values


class _Unscreened:
    """An objective that drops the ladder's thresholds, so every trial value is exact."""

    def __init__(self, obj):
        self.obj = obj

    def evaluate_many(self, points, thresholds=None):
        return self.obj.evaluate_many(points)


@pytest.mark.parametrize("c", ["scalar", "per agent"])
@pytest.mark.parametrize("d", [1, 2, 20])
def test_screened_ladder_matches_the_unscreened_one_bitwise(d, c):
    # Ackley screens trial points out by a lower bound; the ladder must take
    # the same steps, heights and counts as with every trial value exact,
    # near the minima and where the trial points cross |z| = 2^16, beyond
    # which a call gets its plain values.
    obj = make_objective("ackley", d, shift_b=10.0, shift_c=-7.25)
    rng = np.random.default_rng(d)
    n = 300
    coeff = 0.3 if c == "scalar" else rng.uniform(0.01, 0.99, n)
    params = BacktrackParams(lam=0.3, h0=2.0)
    # Groups of four agents with z below and above 2^16 in turn.
    across = 2.0**16 + obj.shift_b + np.where(np.arange(n) // 4 % 2, 3.0, -3.0)[:, None]
    for center in (0.0, across):
        X, G, F, _ = _mixed_agents(obj, n, d, center)
        want_counts = np.zeros(n, dtype=int)
        want = backtrack_batch(_Unscreened(obj), X, G, coeff, params, F, counts=want_counts)
        assert 0 < np.count_nonzero(want[0]) < n
        recordings = {}
        for screen, min_coords in (("taylor", objectives._TAYLOR_MIN_COORDS), ("none", np.inf)):
            got_counts = np.zeros(n, dtype=int)
            recording = _Recording(obj)
            with mock.patch.object(objectives, "_TAYLOR_MIN_COORDS", min_coords):
                got = backtrack_batch(recording, X, G, coeff, params, F, counts=got_counts)
            assert np.array_equal(got[0].view(np.int64), want[0].view(np.int64))
            assert np.array_equal(got[1].view(np.int64), want[1].view(np.int64))
            assert got[2] == want[2] and np.array_equal(got_counts, want_counts)
            recordings[screen] = recording
        taylor = recordings["taylor"]
        assert recordings["none"].infinite == 0
        # Near the minima the Taylor bound screens; across 2^16 each call long
        # enough for it holds a point beyond 2^16, so no call screens.
        if center is across:
            assert taylor.infinite == 0
        else:
            assert taylor.infinite > sum(taylor.sizes) // 4
    # The last agents straddle the guard: some rows have every |z| <= 2^16.
    inside = np.all(np.abs(X - obj.shift_b) <= 2.0**16, axis=1)
    assert 0 < np.count_nonzero(inside) < n


def test_few_one_dimensional_agents_step_in_one_call():
    # _MIN_COORDS over 20 agents of one coordinate gives a first block of
    # ceil(2048 / 20) = 103 rungs, past every agent's accepted rung here.
    obj = make_objective("ackley1d")
    rng = np.random.default_rng(0)
    X = rng.uniform(-3.0, 3.0, (20, 1))
    case = (obj, X, obj.gradient_many(X), 0.2, BacktrackParams(), obj.evaluate_many(X))
    counts = np.zeros(20, dtype=int)
    reference_backtrack_batch(*case, counts=counts)
    assert 7 < counts.max() <= 103
    _assert_matches_rung_by_rung(case)
    recording = _Recording(obj)
    backtrack_batch(recording, *case[1:])
    assert recording.sizes == [20 * 103]


@pytest.mark.parametrize("d", [1, 16])
@pytest.mark.parametrize("stall", [False, True])
def test_lone_agent_blocks_start_at_128_rungs(d, stall):
    # A lone agent in up to 2048 / _LONE_RUNGS = 16 dimensions reaches the
    # _LONE_RUNGS bound of the floor: 128-rung blocks until the doubling
    # passes them, and a stalled agent walks the 306-rung ladder in three.
    obj = make_objective("ackley", d)
    X = np.full((1, d), 1.3)
    F = obj.evaluate_many(X) - (1e6 if stall else 0.0)
    case = (obj, X, obj.gradient_many(X), 0.2, BacktrackParams(), F)
    _assert_matches_rung_by_rung(case)
    recording = _Recording(obj)
    backtrack_batch(recording, *case[1:])
    full = _ladder(1.0, 0.9).size
    assert recording.sizes == ([128, 128, full - 256] if stall else [128])


@pytest.mark.parametrize("c", ["array", "scalar", "stride 0"])
def test_batch_leaves_its_inputs_alone(c):
    # The first block reads the caller's arrays in place and later blocks
    # read copies of the rows still searching; trial points and thresholds
    # are formed in the ladder's own arrays.  20 one-dimensional agents all
    # accept in their first block; 300 mixed agents take several blocks, and
    # 4000 the 2-rung blocks of a wide batch.
    X = np.random.default_rng(4).uniform(-3.0, 3.0, (20, 1))
    one = make_objective("ackley1d")
    cases = [("one", one, X, one.gradient_many(X), one.evaluate_many(X))]
    wide = make_objective("ackley", 2)
    cases += [("several", wide, *_mixed_agents(wide, n, 5)[:3]) for n in (300, 4000)]
    for blocks, obj, X, G, F in cases:
        n = X.shape[0]
        coeff = {"array": np.random.default_rng(6).uniform(0.01, 0.99, n), "scalar": 0.2,
                 "stride 0": np.broadcast_to(np.float64(0.2), (n,))}[c]
        g_sq = np.add.reduce(G * G, axis=1)
        args = [X, G, coeff, BacktrackParams(), F]
        want_counts = np.zeros(n, dtype=int)
        want = backtrack_batch(obj, *[np.array(a) if isinstance(a, np.ndarray) else a for a in args],
                               g_sq=g_sq.copy(), counts=want_counts)
        inputs = [a for a in (X, G, F, coeff, g_sq) if isinstance(a, np.ndarray)]
        saved = [a.copy() for a in inputs]
        for a in inputs:
            a.flags.writeable = False
        counts = np.zeros(n, dtype=int)
        recording = _Recording(obj)
        h, f_new, n_evals = backtrack_batch(recording, *args, g_sq=g_sq, counts=counts)
        assert (len(recording.sizes) == 1) == (blocks == "one")
        assert np.array_equal(_bits(h), _bits(want[0])) and np.array_equal(_bits(f_new), _bits(want[1]))
        assert n_evals == want[2] and np.array_equal(counts, want_counts)
        for a, before in zip(inputs, saved):
            assert np.array_equal(_bits(a), _bits(before))
            assert not any(np.shares_memory(out, a) for out in (h, f_new, counts))
        assert not np.shares_memory(h, f_new)
        assert np.any(h > 0.0) and (blocks == "one" or np.any(h == 0.0))


def test_counts_must_be_an_integer_array_of_one_entry_per_agent():
    # A longer array would add its stale entries to the returned count and a
    # shorter one fail mid-ladder; a float, bool or list one is no count array.
    obj = make_objective("ackley", 2)
    X = np.array([[1.3, -0.4], [2.1, 0.7]])
    G, F = obj.gradient_many(X), obj.evaluate_many(X)
    counts = np.zeros(2, dtype=int)
    _, _, n_evals = backtrack_batch(obj, X, G, 0.2, BacktrackParams(), F, counts=counts)
    assert n_evals == counts.sum() > 2
    for bad in (np.full(3, 7), np.full(1, 7), np.full(2, 7.0), np.ones(2, dtype=bool), [7, 7]):
        before = np.array(bad)
        with pytest.raises(ValueError, match=r"counts must be an integer array of shape \(2,\)"):
            backtrack_batch(obj, X, G, 0.2, BacktrackParams(), F, counts=bad)
        assert np.array_equal(np.asarray(bad), before)


@pytest.mark.parametrize("c", [0.3, "per agent"])
@pytest.mark.parametrize("name, d", [("rastrigin", 2), ("ackley", 2), ("ackley1d", 1)])
def test_a_callers_g_sq_takes_the_same_steps(name, d, c):
    obj = make_objective(name, d)
    X, G, F, _ = _mixed_agents(obj, 40, 7)
    c = np.random.default_rng(8).uniform(0.01, 0.99, 40) if c == "per agent" else c
    want_counts, counts = np.full(40, -1), np.full(40, -1)
    want = backtrack_batch(obj, X, G, c, BacktrackParams(), F, counts=want_counts)
    got = backtrack_batch(obj, X, G, c, BacktrackParams(), F, g_sq=np.add.reduce(G * G, axis=1),
                          counts=counts)
    assert np.array_equal(_bits(got[0]), _bits(want[0])) and np.array_equal(_bits(got[1]), _bits(want[1]))
    assert got[2] == want[2] and np.array_equal(counts, want_counts)


def test_g_sq_must_have_one_entry_per_agent():
    X = np.zeros((3, 1))
    for bad in (np.zeros(2), np.zeros(4), np.zeros((3, 1)), 1.0):
        with pytest.raises(ValueError, match=r"g_sq must have shape \(3,\)"):
            backtrack_batch(QUAD1, X, X, 0.2, BacktrackParams(), np.zeros(3), g_sq=bad)


@settings(deadline=None, max_examples=3)
@given(_ladder_cases(_LONG_LADDERS, max_agents=4))
# A lone stalled agent on a 9195-rung ladder: its blocks of 128 rungs and up
# end at rung 4864, so the next block of 4096 would cross rung 8192.
@example((QUAD1, np.ones((1, 1)), np.ones((1, 1)), 0.2, BacktrackParams(gamma=0.9965), np.full(1, -1e6)))
def test_ladders_past_the_cached_prefix_match_rung_by_rung_bitwise(case):
    obj, X, G, c, params, F = case
    assert _ladder(params.h0, params.gamma).size == _MAX_POINTS
    # A base below every trial value walks the first agent down the whole ladder.
    F[0] = -1e6
    _assert_matches_rung_by_rung((obj, X, G, c, params, F))


# Parameter values that several ladders of one example share, so a cache
# entry keyed on too few of them would be served to the wrong ladder.
_SHARED_PARAMS = st.builds(
    BacktrackParams,
    gamma=st.sampled_from([0.5, 0.6, 0.9]),
    h0=st.sampled_from([0.5, 1.0, 2.0]),
)


@settings(deadline=None, max_examples=6)
@given(_ladder_cases(max_agents=8), st.lists(_SHARED_PARAMS, min_size=2, max_size=4))
def test_interleaved_ladders_match_rung_by_rung_bitwise(case, ladders):
    obj, X, G, c, _, F = case
    for params in ladders + ladders[::-1]:
        _assert_matches_rung_by_rung((obj, X, G, c, params, F))


@pytest.mark.parametrize("h0, gamma", [
    (1.0, 0.9), (1.0, 0.999), (1.0, 0.999999),
    # One run from the default step down to the floor, with gamma below, at
    # and above 1/2.
    (1.0, 0.4), (1.0, 0.5), (1.0, 0.6),
    # Ladders of a few rungs, and of one, from steps near the floor.
    (1e-13, 0.4), (1.5e-14, 0.9), (1.05e-14, 0.5),
])
def test_cached_prefix_is_bounded_and_read_only(h0, gamma):
    # The cached runs of the ladder's first 4 * _MAX_POINTS rungs: all of it
    # but at gamma 0.999999, and 4 runs at gamma 0.999.
    assert _ladder.cache_info().maxsize is not None
    floor = BacktrackParams.h_floor
    rungs, h = [], h0
    while h > floor and len(rungs) < 4 * _MAX_POINTS:
        rungs.append(h)
        h *= gamma
    runs = [_ladder(h0, gamma)]
    while runs[-1].size == _MAX_POINTS and len(runs) < 4:
        runs.append(_ladder(float(runs[-1][-1]) * gamma, gamma))
    assert len(runs) == (4 if gamma > 0.99 else 1)
    for run in runs:
        assert 0 < run.size <= _MAX_POINTS
        # The run owns exactly its rungs, not a view of a longer buffer.
        assert run.base is None
        assert not run.flags.writeable
        with pytest.raises(ValueError):
            run[0] = 2.0
    assert np.array_equal(_bits(np.concatenate(runs)), _bits(rungs))
    if h > floor:
        return
    # Two stalled agents walk every run; a second search makes none of them again.
    X = np.array([[1.0], [-2.0]])
    case = (QUAD1, X, X, 0.2, BacktrackParams(gamma=gamma, h0=h0), np.full(2, -1e6))
    backtrack_batch(*case)
    misses = _ladder.cache_info().misses
    h_new, _, n_evals = backtrack_batch(*case)
    assert _ladder.cache_info().misses == misses
    assert np.all(h_new == 0.0) and n_evals == 2 * len(rungs)


_PARITY_ARGV = [["bench", "--preset", name, "--m", "2", "--jobs", "1"] for name in preset_names()] + [
    ["sweep", "--objective", objective, "--method", method, "--from=-3", "--to=3", "--steps", "25"]
    for objective, method in (("ackley1d", "sbgd"), ("rastrigin1d", "gdbt"), ("flatbasin1d", "sbgd"))
]

# Each CLI command against an oracle: the rung-by-rung ladder in place of the
# rung blocks, or the per-run loops in place of the lockstep run loop.
_PARITY_CASES = [pytest.param(argv, "ladder", id=" ".join(argv)) for argv in _PARITY_ARGV] + [
    pytest.param(argv, "per-run", id="per-run " + " ".join(argv))
    for argv in [["bench", "--preset", name, "--m", "3", "--jobs", "1"] for name in preset_names()]
    + _PARITY_ARGV[-3:]
]


@pytest.mark.parametrize("argv, oracle", _PARITY_CASES)
def test_cli_output_matches_rung_by_rung_ladder(argv, oracle, capsys, monkeypatch):
    assert cli_main(argv) == 0
    blocked = capsys.readouterr().out
    if oracle == "ladder":
        monkeypatch.setattr(swarm, "backtrack_batch", reference_backtrack_batch)
        monkeypatch.setattr(baselines, "backtrack_batch", reference_backtrack_batch)
    else:
        monkeypatch.setattr(harness, "_run_batch", oracle_batch)
    assert cli_main(argv) == 0
    assert capsys.readouterr().out == blocked
