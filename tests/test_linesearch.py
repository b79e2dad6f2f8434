"""Tests for the backtracking step-size ladder."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from per_run_oracle import one_row_backtrack, oracle_batch

from swarmdescent import baselines, harness, swarm
from swarmdescent.cli import main as cli_main
from swarmdescent.cli import preset_names
from swarmdescent.linesearch import _MAX_POINTS, BacktrackParams, _ladder, backtrack_batch
from swarmdescent.objectives import make_objective

QUAD1 = make_objective("quadratic", 1)


def reference_backtrack_batch(obj, positions, grads, c, params, f_current, *, counts=None):
    """The rung-by-rung ladder: one objective call per rung for the agents still searching."""
    X = np.asarray(positions, dtype=float)
    G = np.asarray(grads, dtype=float)
    n = X.shape[0]
    coeff = np.broadcast_to(np.asarray(c, dtype=float), (n,))
    f_base = np.asarray(f_current, dtype=float)
    g_sq = np.sum(G * G, axis=1)
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
        BacktrackParams(h0=1e-15, h_floor=1e-14)
    with pytest.raises(ValueError, match="q"):
        BacktrackParams(q=0.0)


def test_batch_shape_validation():
    with pytest.raises(ValueError):
        backtrack_batch(QUAD1, np.zeros((3, 1)), np.zeros((2, 1)), 0.2, BacktrackParams(), np.zeros(3))
    with pytest.raises(ValueError):
        backtrack_batch(QUAD1, np.zeros((3, 1)), np.zeros((3, 1)), 0.2, BacktrackParams(), np.zeros(2))


_OBJECTIVES_BY_DIM = {
    1: ("flatbasin1d", "rastrigin1d", "ackley1d", "quadratic"),
    2: ("ackley", "dropwave", "rastrigin", "rosenbrock2d"),
    20: ("ackley", "rastrigin", "quadratic"),
}

# (gamma, h_floor as a fraction of h0).  Each kind keeps a stalled agent's
# ladder short enough for the rung-by-rung oracle: the usual floors; a zero
# floor, where the ladder runs through subnormal steps down to 0 (gamma <=
# 1/2) or down to a step that gamma no longer shrinks (gamma > 1/2); gamma
# close to 1.
_LADDERS = st.one_of(
    st.tuples(st.floats(0.05, 0.95), st.sampled_from([1e-14, 1e-3])),
    st.tuples(st.floats(0.05, 0.5), st.just(0.0)),
    st.tuples(st.floats(0.5, 0.9), st.just(0.0)),
    st.tuples(st.floats(0.99, 0.999), st.just(0.1)),
)

# Ladders longer than the cached prefix of _MAX_POINTS rungs: gamma near 1
# with the usual floor, and a zero floor ending where a rung stops shrinking.
_LONG_LADDERS = st.one_of(
    st.tuples(st.floats(0.9965, 0.997), st.just(1e-14)),
    st.tuples(st.floats(0.925, 0.93), st.just(0.0)),
)


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
    gamma, floor = draw(ladders)
    h0 = draw(st.floats(0.01, 4.0))
    params = BacktrackParams(gamma=gamma, h0=h0, h_floor=floor * h0)
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


def _mixed_agents(obj, n, seed):
    """Agents that accept, stall below a far base, stall on a NaN base, or have a zero gradient, in turn."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-3.0, 3.0, (n, obj.dimension))
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
    full = _ladder(params.h0, params.gamma, params.h_floor).size
    assert np.all(counts[kind == 1] == full) and np.all(counts[kind == 2] == full)
    assert np.all(counts[kind == 3] == 1)
    assert np.all(h[kind == 0] > 0.0) and np.all(counts[kind == 0] < full)


def test_wide_batch_in_one_rung_blocks_matches_rung_by_rung_bitwise():
    # Past _MAX_POINTS // 2 searching agents every block is a single rung,
    # the regime of a wide GD(BT) batch on the shifted 2-D Ackley.
    n = _MAX_POINTS // 2 + 1
    obj = make_objective("ackley", 2, shift_b=10.0)
    X, G, F, kind = _mixed_agents(obj, n, 11)
    sizes = []

    class Recording:
        def evaluate_many(self, points):
            sizes.append(points.shape[0])
            return obj.evaluate_many(points)

    params = BacktrackParams(lam=0.3)
    _assert_matches_rung_by_rung((obj, X, G, 0.3, params, F))
    backtrack_batch(Recording(), X, G, 0.3, params, F)
    assert sizes[0] == n
    # The agents made to stall are still searching in the last block.
    assert sizes[-1] >= np.count_nonzero(kind == 1) + np.count_nonzero(kind == 2)


@pytest.mark.parametrize("c", ["array", "scalar", "stride 0"])
def test_batch_leaves_its_inputs_alone(c):
    obj = make_objective("ackley", 2)
    X, G, F, _ = _mixed_agents(obj, 300, 5)
    coeff = {"array": np.random.default_rng(6).uniform(0.01, 0.99, 300), "scalar": 0.2,
             "stride 0": np.broadcast_to(np.float64(0.2), (300,))}[c]
    inputs = [a for a in (X, G, F, coeff) if isinstance(a, np.ndarray)]
    saved = [a.copy() for a in inputs]
    for a in inputs:
        a.flags.writeable = False
    h, f_new, _ = backtrack_batch(obj, X, G, coeff, BacktrackParams(), F)
    for a, before in zip(inputs, saved):
        assert np.array_equal(_bits(a), _bits(before))
        assert not np.shares_memory(h, a) and not np.shares_memory(f_new, a)
    assert np.any(h > 0.0) and np.any(h == 0.0)


@settings(deadline=None, max_examples=3)
@given(_ladder_cases(_LONG_LADDERS, max_agents=4))
def test_ladders_past_the_cached_prefix_match_rung_by_rung_bitwise(case):
    obj, X, G, c, params, F = case
    assert _ladder(params.h0, params.gamma, params.h_floor).size == _MAX_POINTS
    # A base below every trial value walks the first agent down the whole ladder.
    F[0] = -1e6
    _assert_matches_rung_by_rung((obj, X, G, c, params, F))


# Parameter values that several ladders of one example share, so a cache
# entry keyed on too few of them would be served to the wrong ladder.
_SHARED_PARAMS = st.builds(
    BacktrackParams,
    gamma=st.sampled_from([0.5, 0.6, 0.9]),
    h0=st.sampled_from([0.5, 1.0, 2.0]),
    h_floor=st.sampled_from([0.0, 1e-14, 1e-3]),
)


@settings(deadline=None, max_examples=6)
@given(_ladder_cases(max_agents=8), st.lists(_SHARED_PARAMS, min_size=2, max_size=4))
def test_interleaved_ladders_match_rung_by_rung_bitwise(case, ladders):
    obj, X, G, c, _, F = case
    for params in ladders + ladders[::-1]:
        _assert_matches_rung_by_rung((obj, X, G, c, params, F))


@pytest.mark.parametrize("gamma, floor", [(0.9, 1e-14), (0.6, 0.0), (0.999999, 1e-14)])
def test_cached_prefix_is_bounded_and_read_only(gamma, floor):
    assert _ladder.cache_info().maxsize is not None
    prefix = _ladder(1.0, gamma, floor)
    assert 0 < prefix.size <= _MAX_POINTS
    assert not prefix.flags.writeable
    with pytest.raises(ValueError):
        prefix[0] = 2.0


_STALL_WITH_ZERO_FLOOR = """
import numpy as np
from swarmdescent.linesearch import BacktrackParams, backtrack_batch
from swarmdescent.objectives import make_objective

obj = make_objective("quadratic", 1)
X = np.linspace(-2.0, 2.0, 200)[:, None]
params = BacktrackParams(gamma={gamma}, h_floor=0.0)
counts = np.zeros(200, dtype=int)
# Every trial value lies above a base this low, so every agent stalls.
h, f_new, n_evals = backtrack_batch(obj, X, X, 0.2, params, np.full(200, -1.0), counts=counts)
assert np.all(h == 0.0) and np.all(f_new == -1.0)
assert n_evals == counts.sum() and np.all(counts == counts[0])
print(counts[0])
"""


@pytest.mark.parametrize("gamma", [0.6, 0.9])
def test_stalled_ladder_ends_with_a_zero_floor(gamma):
    # Among the subnormals, gamma * h rounds back to h for every gamma > 1/2;
    # the ladder must end there instead of retrying that rung forever.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", _STALL_WITH_ZERO_FLOOR.format(gamma=gamma)],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    rungs = [1.0]
    while rungs[-1] * gamma < rungs[-1]:
        rungs.append(rungs[-1] * gamma)
    assert int(proc.stdout) == len(rungs)


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
