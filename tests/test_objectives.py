"""Tests for the benchmark objectives: known minima, gradients, shifts."""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from kernel_oracle import reference_evaluate_many, reference_gradient_many
from per_run_oracle import one_row_gradient, one_row_value

from swarmdescent import objectives
from swarmdescent.objectives import (
    _ACKLEY_WAVE_MAX,
    _LANDSCAPES,
    _TAYLOR_MIN_COORDS,
    _TAYLOR_SLACK,
    FLAT_BASIN_FMIN,
    FLAT_BASIN_XSTAR,
    OBJECTIVE_NAMES,
    Objective,
    ObjectiveKind,
    _row_sum,
    make_objective,
)

# One representative instance per kind, at a nontrivial dimension where the
# kind allows one.
CASES = [
    ("flatbasin1d", None),
    ("ackley1d", None),
    ("rastrigin1d", None),
    ("ackley", 3),
    ("rastrigin", 4),
    ("dropwave", 2),
    ("rosenbrock2d", None),
    ("quadratic", 2),
]


def _make(name, dimension, **kw):
    return make_objective(name, dimension=dimension, **kw)


# The unshifted minimum value of each kind whose minimum is not 0.
MIN_VALUES = {"flatbasin1d": FLAT_BASIN_FMIN, "dropwave": -1.0}


@pytest.mark.parametrize("name,dim", CASES)
def test_minimum_value_at_minimizer(name, dim):
    obj = _make(name, dim)
    assert one_row_value(obj, obj.minimizer) == pytest.approx(MIN_VALUES.get(name, 0.0), abs=1e-12)


@pytest.mark.parametrize("name,dim", CASES)
def test_shifted_minimum_moves_covariantly(name, dim):
    obj = _make(name, dim, shift_b=1.75, shift_c=-0.5)
    base = _make(name, dim)
    assert np.array_equal(obj.minimizer, base.minimizer + 1.75)
    assert one_row_value(obj, obj.minimizer) == pytest.approx(MIN_VALUES.get(name, 0.0) - 0.5, abs=1e-12)


def test_known_values():
    assert one_row_value(make_objective("ackley", 20), np.zeros(20)) == pytest.approx(0.0, abs=1e-12)
    assert one_row_value(make_objective("dropwave", 2), [0.0, 0.0]) == -1.0
    assert one_row_value(make_objective("rosenbrock2d"), [1.0, 1.0]) == 0.0
    assert one_row_value(make_objective("rastrigin", 3), [0.0, 0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)
    assert one_row_value(make_objective("quadratic", 1, mu=4.0), [3.0]) == 18.0


def test_quadratic_gradient_is_identity_times_mu():
    obj = make_objective("quadratic", 2)
    assert np.array_equal(one_row_gradient(obj, [3.0, 4.0]), [3.0, 4.0])
    assert np.array_equal(one_row_gradient(make_objective("quadratic", 2, mu=2.5), [1.0, -2.0]), [2.5, -5.0])


def test_flat_basin_frozen_minimizer_beats_grid_scan():
    # The frozen constants must at least match a fresh coarse scan of the
    # landscape: the scan's best point lies next to the stored minimizer and
    # never below the stored minimum value.
    obj = make_objective("flatbasin1d")
    grid = np.linspace(-3.0, 3.0, 60001)[:, None]
    values = obj.evaluate_many(grid)
    k = int(np.argmin(values))
    assert abs(grid[k, 0] - FLAT_BASIN_XSTAR) < 1e-4
    assert FLAT_BASIN_FMIN <= values[k]
    assert one_row_value(obj, [FLAT_BASIN_XSTAR]) == FLAT_BASIN_FMIN
    # Interior minimum: the derivative changes sign across the minimizer.
    assert one_row_gradient(obj, [FLAT_BASIN_XSTAR - 1e-4])[0] < 0
    assert one_row_gradient(obj, [FLAT_BASIN_XSTAR + 1e-4])[0] > 0


@pytest.mark.parametrize("name,dim", CASES)
def test_gradient_matches_central_differences(name, dim):
    obj = _make(name, dim, shift_b=0.5)
    rng = np.random.default_rng(11)
    step = 1e-6
    checked = 0
    while checked < 100:
        x = rng.uniform(-3.0, 3.0, obj.dimension)
        # Skip the non-smooth cone tips of the norm-based landscapes.
        if np.linalg.norm(x - obj.minimizer) < 1e-3:
            continue
        g = one_row_gradient(obj, x)
        fd = np.empty_like(g)
        for i in range(obj.dimension):
            e = np.zeros(obj.dimension)
            e[i] = step
            fd[i] = (one_row_value(obj, x + e) - one_row_value(obj, x - e)) / (2.0 * step)
        assert np.all(np.abs(g - fd) <= 1e-5 * (1.0 + np.abs(g))), (name, x, g, fd)
        checked += 1


def test_rastrigin1d_gradient_spot_check():
    obj = make_objective("rastrigin1d")
    step = 1e-7
    fd = (one_row_value(obj, [0.5 + step]) - one_row_value(obj, [0.5 - step])) / (2.0 * step)
    assert one_row_gradient(obj, [0.5])[0] == pytest.approx(fd, abs=1e-5)


def test_cone_tip_gradients_are_zero():
    ack = make_objective("ackley", 2, shift_b=3.0)
    assert np.array_equal(one_row_gradient(ack, [3.0, 3.0]), [0.0, 0.0])
    dw = make_objective("dropwave", 2)
    assert np.array_equal(one_row_gradient(dw, [0.0, 0.0]), [0.0, 0.0])
    # ... and stays zero through the batch path.
    assert np.array_equal(dw.gradient_many([[0.0, 0.0], [0.1, 0.0]])[0], [0.0, 0.0])


@pytest.mark.parametrize("name,dim", CASES)
def test_shift_is_exact_translation(name, dim):
    shifted = _make(name, dim, shift_b=2.0, shift_c=1.5)
    base = _make(name, dim)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-3.0, 3.0, (50, shifted.dimension))
    assert np.array_equal(shifted.evaluate_many(pts), base.evaluate_many(pts - 2.0) + 1.5)
    assert np.array_equal(shifted.gradient_many(pts), base.gradient_many(pts - 2.0))


@pytest.mark.parametrize("name,dim", CASES)
def test_scalar_and_batch_paths_agree_bitwise(name, dim):
    # A one-row batch sums its row by numpy's reduction, a wider one column
    # by column; both give each row the same bits.
    obj = _make(name, dim, shift_b=0.25)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-3.0, 3.0, (20, obj.dimension))
    values = obj.evaluate_many(pts)
    grads = obj.gradient_many(pts)
    for i, x in enumerate(pts):
        assert one_row_value(obj, x) == values[i]
        assert np.array_equal(one_row_gradient(obj, x), grads[i])


@pytest.mark.parametrize("name,dim", CASES)
def test_sampled_global_minimality(name, dim):
    obj = _make(name, dim)
    rng = np.random.default_rng(17)
    pts = rng.uniform(-3.0, 3.0, (100_000, obj.dimension))
    assert MIN_VALUES.get(name, 0.0) <= obj.evaluate_many(pts).min() + 1e-12


def test_objective_names_cover_all_kinds():
    assert set(OBJECTIVE_NAMES) == {k.value for k in ObjectiveKind}
    for name, dim in CASES:
        assert name in OBJECTIVE_NAMES
        assert _make(name, dim).kind.value == name


def test_make_objective_rejects_bad_input():
    with pytest.raises(ValueError, match="unknown objective"):
        make_objective("himmelblau")
    with pytest.raises(ValueError, match="explicit dimension"):
        make_objective("quadratic")
    with pytest.raises(ValueError, match="explicit dimension"):
        make_objective("dropwave")
    with pytest.raises(ValueError, match="dimension 1"):
        make_objective("ackley1d", dimension=2)
    with pytest.raises(ValueError, match="dimension 2"):
        make_objective("rosenbrock2d", dimension=3)
    with pytest.raises(ValueError):
        make_objective("ackley", dimension=0)
    with pytest.raises(ValueError, match="mu"):
        make_objective("quadratic", dimension=2, mu=0.0)
    with pytest.raises(ValueError):
        Objective(kind="ackley", dimension=2)  # enum member required
    for shift in ("shift_b", "shift_c"):
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="shifts must be finite"):
                Objective(kind=ObjectiveKind.ACKLEY, dimension=2, **{shift: value})


def test_evaluate_rejects_wrong_shapes():
    obj = make_objective("ackley", 3)
    with pytest.raises(ValueError):
        obj.evaluate_many([[1.0, 2.0]])
    with pytest.raises(ValueError):
        obj.gradient_many([[1.0, 2.0, 3.0, 4.0]])
    with pytest.raises(ValueError):
        obj.evaluate_many(np.zeros((4, 2)))
    with pytest.raises(ValueError):
        obj.gradient_many(np.zeros(3))


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


ORACLE_DIMS = (1, 2, 3, 7, 8, 9, 20)
# Coordinates from everyday scale to 1e200, whose squares and sums overflow,
# with signed zeros and non-finite entries.
_COORDS = st.one_of(
    st.floats(-10.0, 10.0),
    st.floats(-1e200, 1e200),
    st.sampled_from([0.0, -0.0, 1e200, -1e200, np.inf, -np.inf, np.nan, -np.nan]),
)


_SHIFTS = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-5.0, 5.0))


@st.composite
def _kernel_cases(draw, kinds=tuple(ObjectiveKind), coords=_COORDS, shift_b=_SHIFTS):
    kind = draw(st.sampled_from(kinds))
    fixed = _LANDSCAPES[kind].dimension
    d = fixed if fixed is not None else draw(st.sampled_from(ORACLE_DIMS))
    obj = Objective(kind, d, shift_b=draw(shift_b), shift_c=draw(_SHIFTS),
                    mu=draw(st.floats(0.1, 10.0)))
    n = draw(st.integers(1, 12))
    points = draw(hnp.arrays(np.float64, (n, d), elements=coords))
    # Some rows sit exactly at the minimizer, where the cone-tip branches run.
    at_min = draw(hnp.arrays(np.bool_, n))
    points[at_min] = obj.minimizer
    return obj, points


@settings(deadline=None, max_examples=400)
@given(_kernel_cases())
# One-row calls, where an in-place add picks the other operand's NaN:
# cos(inf) is a -NaN, which a row sum meets with a +NaN.
@example((Objective(ObjectiveKind.ACKLEY, 3), np.array([[np.inf, np.nan, 0.0]])))
@example((Objective(ObjectiveKind.ACKLEY, 3), np.array([[0.0, np.inf, np.nan]])))
@example((Objective(ObjectiveKind.RASTRIGIN, 2), np.array([[np.inf, np.nan]])))
@example((Objective(ObjectiveKind.ROSENBROCK_2D, 2), np.array([[np.nan, -np.nan]])))
# One- and two-row calls of the kernels whose narrow row sums start from their
# first column, with NaNs of both signs, signed zeros and infinities summed.
@example((Objective(ObjectiveKind.ACKLEY, 2), np.array([[-np.nan, np.nan]])))
@example((Objective(ObjectiveKind.ACKLEY, 2), np.array([[np.nan, -np.nan], [-0.0, np.inf]])))
@example((Objective(ObjectiveKind.ACKLEY, 2), np.array([[-np.inf, 0.0], [-0.0, -np.nan]])))
@example((Objective(ObjectiveKind.ACKLEY, 3), np.array([[-0.0, -np.nan, np.inf]])))
@example((Objective(ObjectiveKind.ACKLEY, 3), np.array([[np.nan, -np.nan, -np.inf], [-0.0, np.inf, -np.nan]])))
@example((Objective(ObjectiveKind.RASTRIGIN, 2), np.array([[-np.nan, np.nan]])))
@example((Objective(ObjectiveKind.RASTRIGIN, 3), np.array([[np.nan, -np.nan, -0.0], [np.inf, -np.inf, -np.nan]])))
@example((Objective(ObjectiveKind.DROP_WAVE, 2), np.array([[-np.nan, -0.0]])))
@example((Objective(ObjectiveKind.DROP_WAVE, 3), np.array([[np.nan, -np.nan, 0.0], [-0.0, -np.inf, np.nan]])))
@example((Objective(ObjectiveKind.QUADRATIC, 2), np.array([[np.inf, -np.nan]])))
@example((Objective(ObjectiveKind.QUADRATIC, 3), np.array([[-np.nan, np.nan, -0.0], [-0.0, -0.0, -np.inf]])))
def test_kernels_match_the_whole_array_oracle_bitwise(case):
    obj, points = case
    with np.errstate(all="ignore"):
        values, want_values = obj.evaluate_many(points), reference_evaluate_many(obj, points)
        grads, want_grads = obj.gradient_many(points), reference_gradient_many(obj, points)
    assert values.shape == want_values.shape and grads.shape == want_grads.shape
    assert np.array_equal(_bits(values), _bits(want_values))
    assert np.array_equal(_bits(grads), _bits(want_grads))


def _thresholds(want, picks):
    """Per row: the value, an ulp above or below it, +-inf, NaN, far above or far below it."""
    far = 1e3 * np.abs(want) + 1.0
    options = np.stack([want, np.nextafter(want, np.inf), np.nextafter(want, -np.inf),
                        np.full_like(want, np.inf), np.full_like(want, -np.inf),
                        np.full_like(want, np.nan), want + far, want - far])
    return options[picks, np.arange(want.size)]


# The |z| beyond which a whole call gets its plain values instead of the screen.
_GUARD = 2.0**16
# Coordinates where the Taylor bound is tightest (within 1e-8 of an integer)
# or loosest (half-integers), at the guard and one ulp either side of it,
# and far beyond it, besides those of every kernel test.
_SCREEN_COORDS = st.one_of(
    _COORDS,
    st.builds(lambda k, t: k + t, st.integers(-2**16, 2**16), st.floats(-1e-8, 1e-8)),
    st.integers(-2**16, 2**16 - 1).map(lambda k: k + 0.5),
    st.sampled_from([_GUARD, -_GUARD, np.nextafter(_GUARD, np.inf), np.nextafter(_GUARD, 0.0),
                     -np.nextafter(_GUARD, np.inf), -np.nextafter(_GUARD, 0.0), 1e15, -1e15]),
)


@st.composite
def _screened_cases(draw):
    # Whole shifts keep the coordinates near the integers as near in z.
    shift_b = st.one_of(_SHIFTS, st.integers(-5, 5).map(float))
    obj, points = draw(_kernel_cases([ObjectiveKind.ACKLEY], _SCREEN_COORDS, shift_b))
    shift_c = st.one_of(st.sampled_from([1e6, -1e6]), st.floats(-1e6, 1e6))
    obj = dataclasses.replace(obj, shift_c=draw(shift_c))
    picks = draw(hnp.arrays(np.intp, points.shape[0], elements=st.integers(0, 7)))
    return obj, points, picks


def _screens(on):
    """Screen calls of every size within the guard by the Taylor bound, or no call at all."""
    return mock.patch.object(objectives, "_TAYLOR_MIN_COORDS", 0 if on else np.inf)


@settings(deadline=None, max_examples=400)
@given(_screened_cases())
# Integer coordinates, where every cosine is 1 and the bound is the value:
# a threshold equal to it keeps the row, which ``>=`` in place of ``>`` would
# screen out; at -1e6 the bound without the value shift would too.
@example((Objective(ObjectiveKind.ACKLEY, 2, shift_c=1e6), np.array([[3.0, -2.0]]), np.array([0])))
@example((Objective(ObjectiveKind.ACKLEY, 2, shift_c=-1e6), np.array([[3.0, -2.0]]), np.array([0])))
# One row kept of several, where an in-place add on one element picks the
# other operand's NaN: the kept rows must come out as in a one-row call.
@example((Objective(ObjectiveKind.ACKLEY, 3),
          np.array([[1.0, 2.0, 0.5], [np.inf, np.nan, 0.0], [0.5, 0.25, 3.0]]), np.array([4, 5, 4])))
@example((Objective(ObjectiveKind.ACKLEY, 2),
          np.array([[-np.nan, np.nan], [2.0, 1.5]]), np.array([0, 7])))
# The guard at 2^16 and one ulp either side, near-integers and half-integers,
# with thresholds at the value and one ulp either side of it.
@example((Objective(ObjectiveKind.ACKLEY, 2, shift_c=1e6),
          np.array([[_GUARD, -_GUARD], [np.nextafter(_GUARD, np.inf), 3.0],
                    [np.nextafter(-_GUARD, 0.0), 1.0 + 1e-8], [-np.nextafter(_GUARD, np.inf), -0.0]]),
          np.array([0, 2, 1, 0])))
@example((Objective(ObjectiveKind.ACKLEY, 3, shift_c=-1e6),
          np.array([[1e15, 0.5, -7.0 - 1e-8], [1e200, -0.0, 0.0], [65535.5, 1e-8, np.nextafter(_GUARD, 0.0)],
                    [-np.inf, 2.0, 2.5]]),
          np.array([2, 0, 1, 2])))
@example((Objective(ObjectiveKind.ACKLEY, 2, shift_c=1e6),
          np.array([[4.0 + 1e-8, -4.0 - 1e-8], [0.5, -0.5], [1e-8, 0.0], [np.nan, 1e-8]]),
          np.array([2, 2, 0, 1])))
def test_screened_kernel_keeps_every_value_at_most_its_threshold_bitwise(case):
    obj, points, picks = case
    with np.errstate(all="ignore"):
        want = reference_evaluate_many(obj, points)
        thresholds = _thresholds(want, picks)
    for on in (False, True):
        with np.errstate(all="ignore"), _screens(on):
            values = obj.evaluate_many(points, thresholds)
        if not on:
            # A call the screen does not run on gets every value exact.
            assert not np.any(values == np.inf)
            assert np.array_equal(_bits(values), _bits(want))
            continue
        screened = _bits(values) != _bits(want)
        assert np.all(values[screened] == np.inf)
        # A screened row is one the Armijo test rejects: its value is strictly
        # above its threshold, or NaN (an infinite coordinate's cosine is NaN).
        assert not np.any(want[screened] <= thresholds[screened])


def test_the_wave_bound_holds_for_every_exp_numpy_returns_at_and_below_one():
    # A mean of cosines rounds to at most 1; exp is checked on the 2^20
    # doubles nearest 1 from below, where rounding could carry it past e.
    s = (np.float64(1.0).view(np.int64) - np.arange(2**20)).view(np.float64)
    assert s[0] == 1.0 and np.all(np.diff(s) < 0.0)
    assert np.all(np.exp(s) <= _ACKLEY_WAVE_MAX)


def test_exp_keeps_the_order_of_arguments_the_taylor_margin_apart():
    # The Taylor bound's exponent exceeds the computed mean of the cosines
    # by at least 8e-10 of its 1e-9 margin; exp's own rounding must not undo
    # that.  The exponent is (1 + margin) minus the polynomial's gap, as the
    # kernel forms it, on means spread over [-1, 1] and the doubles nearest 1.
    spread = np.linspace(-1.0, 1.0, 2**20)
    nearest_one = (np.float64(1.0).view(np.int64) - np.arange(2**20)).view(np.float64)
    for x in (spread, nearest_one):
        assert np.all(np.exp((1.0 + _TAYLOR_SLACK) - (1.0 - x)) >= np.exp(x))
        assert np.all(np.exp(x + 0.8 * _TAYLOR_SLACK) >= np.exp(x))


@pytest.mark.parametrize("d", [1, 2, 3, 20])
def test_the_bound_equals_the_value_at_integer_points(d):
    obj = make_objective("ackley", d, shift_b=10.0, shift_c=-3.5)
    rng = np.random.default_rng(d)
    points = rng.integers(-40, 41, (200, d)).astype(float)
    z = points - obj.shift_b
    assert np.all(np.cos(2.0 * np.pi * z) == 1.0)
    assert np.all(np.exp(np.mean(np.cos(2.0 * np.pi * z), axis=1)) <= _ACKLEY_WAVE_MAX)
    values = obj.evaluate_many(points)
    # Each value is its own Taylor bound, capped at e there, so no threshold
    # at or above it screens it out; a call the screen does not run on keeps
    # every value whatever its threshold.
    below = np.nextafter(values, -np.inf)
    with _screens(True):
        assert np.array_equal(obj.evaluate_many(points, values), values)
        assert np.all(obj.evaluate_many(points, below) == np.inf)
    with _screens(False):
        for thresholds in (values, below):
            unscreened = obj.evaluate_many(points, thresholds)
            assert not np.any(unscreened == np.inf)
            assert np.array_equal(_bits(unscreened), _bits(reference_evaluate_many(obj, points)))


@pytest.mark.parametrize("d", [1, 2, 3, 20])
def test_the_taylor_bound_is_never_above_the_value_near_integer_points(d):
    # Within 1e-2 of an integer the computed cosine strays from the true one
    # by the phase's rounding, which the margin covers up to |z| = 2^16;
    # beyond it the call gets its plain values.  So a threshold equal to the
    # value keeps every row.  Without its margin the bound screened out about
    # 1200 of the 4096 rows up to 2^16 (d <= 3), and without its guard
    # 1250-1958 of those up to 2^40.
    rng = np.random.default_rng(d)
    n = 4096
    for magnitude in (2**16, 2**40):
        k = rng.integers(-magnitude, magnitude, (n, d))
        t = rng.choice([-1.0, 1.0], (n, d)) * 10.0 ** rng.uniform(-6.0, -2.0, (n, d))
        obj = make_objective("ackley", d)
        values = obj.evaluate_many(k + t)
        assert np.array_equal(obj.evaluate_many(k + t, values), values)


@pytest.mark.parametrize("d", [1, 2, 3, 20])
def test_the_taylor_bound_is_within_its_margin_near_integer_points(d):
    # Where every |t| <= 1e-3 and |z| <= 2^16, the bound lies at most 4e-9
    # plus an ulp of the value below it, so a threshold further below screens
    # every row.
    rng = np.random.default_rng(d)
    n = _TAYLOR_MIN_COORDS  # at least _TAYLOR_MIN_COORDS coordinates, whatever d
    z = rng.integers(-2**16 + 1, 2**16, (n, d)) + rng.uniform(-1e-3, 1e-3, (n, d))
    for shift_c in (-1e6, 0.0, 1e6):
        obj = make_objective("ackley", d, shift_c=shift_c)
        values = obj.evaluate_many(z)
        thresholds = values - (4e-9 + 2.0 * np.spacing(np.abs(values)))
        assert np.all(obj.evaluate_many(z, thresholds) == np.inf)


def test_the_taylor_bound_runs_from_its_coordinate_count_on():
    # At half-integers every cosine is -1 and exp(mean cos) = 1/e: the Taylor
    # bound puts the value at most 0.77 above its bound, so a threshold 1
    # below the value screens every row of a call long enough for the bound
    # and none of a shorter call.
    obj = make_objective("ackley", 2)
    rows = _TAYLOR_MIN_COORDS // 2
    points = np.random.default_rng(3).integers(-50, 50, (rows, 2)) + 0.5
    values = obj.evaluate_many(points)
    assert np.all(obj.evaluate_many(points, values - 1.0) == np.inf)
    assert np.array_equal(obj.evaluate_many(points[1:], values[1:] - 1.0), values[1:])


def test_a_call_beyond_the_guard_gets_its_plain_values():
    # One call of 2048 coordinates, long enough for the Taylor bound, with a
    # row beyond 2^16, a NaN and infinities: the whole call gets its plain
    # values, as without thresholds, and the bound never runs.  Its
    # thresholds would screen rows out: half-integer rows lie at most 0.77
    # above their Taylor bound and have thresholds 3 below their values.
    obj = make_objective("ackley", 2)
    rng = np.random.default_rng(5)
    rows = _TAYLOR_MIN_COORDS // 2
    k = rng.integers(-50, 50, (rows, 2)).astype(float)
    half = np.arange(rows) % 2 == 0
    points = np.where(half[:, None], k + 0.5, k + rng.uniform(-1e-3, 1e-3, (rows, 2)))
    points[:4] = [[2.0**17 + 0.25, 1.0], [np.nan, 0.5], [np.inf, 1.0], [2.0, -np.inf]]
    with np.errstate(all="ignore"):
        want = reference_evaluate_many(obj, points)
    thresholds = np.where(half, want - 3.0, want)
    refuse = mock.patch.object(objectives, "_ackley_wave_bound", side_effect=AssertionError)
    with np.errstate(all="ignore"), refuse as bound:
        values = obj.evaluate_many(points, thresholds)
    bound.assert_not_called()
    assert not np.any(values == np.inf)
    assert np.array_equal(_bits(values), _bits(want))
    # With the first four rows inside the guard, the same thresholds screen
    # out every half-integer row.
    points[:4], thresholds[:4] = points[4:8], thresholds[4:8]
    assert np.array_equal(obj.evaluate_many(points, thresholds) == np.inf, half)


def test_a_taylor_call_that_screens_out_one_row_keeps_every_other_bitwise():
    # A call just long enough for the bound, in which one half-integer row's
    # threshold lies 1 below its value (at most 0.77 above its bound) and
    # every other threshold lies at its own value: only that row is screened
    # out, and the others are finished from the gathered rows.
    obj = make_objective("ackley", 2, shift_b=10.0, shift_c=-7.25)
    rng = np.random.default_rng(9)
    rows = _TAYLOR_MIN_COORDS // 2
    points = rng.uniform(-30.0, 30.0, (rows, 2))
    out = 417
    points[out] = [3.5, -12.5]
    points[out] += obj.shift_b
    want = reference_evaluate_many(obj, points)
    thresholds = want.copy()
    thresholds[out] -= 1.0
    values = obj.evaluate_many(points, thresholds)
    screened = values == np.inf
    assert screened[out] and np.count_nonzero(screened) == 1
    assert np.array_equal(_bits(values[~screened]), _bits(want[~screened]))


@pytest.mark.parametrize("name,dim", [("ackley", 2), ("rastrigin", 2)])
def test_evaluate_many_rejects_thresholds_of_another_shape(name, dim):
    obj = _make(name, dim)
    points = np.zeros((5, dim))
    for shape in [(5, 1), (1,), (4,), ()]:
        with pytest.raises(ValueError, match=r"thresholds must have shape \(5,\)"):
            obj.evaluate_many(points, np.zeros(shape))


@pytest.mark.parametrize("name,dim", [case for case in CASES if case[0] != "ackley"])
def test_other_landscapes_ignore_thresholds(name, dim):
    obj = _make(name, dim, shift_c=0.5)
    points = np.random.default_rng(2).uniform(-3.0, 3.0, (20, obj.dimension))
    values = obj.evaluate_many(points)
    assert np.array_equal(obj.evaluate_many(points, np.full(20, -np.inf)), values)


_SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 2.2e-308, -1e-310]


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 21).flatmap(lambda d: hnp.arrays(
    np.float64, st.tuples(st.integers(1, 40), st.just(d)),
    elements=st.one_of(st.sampled_from(_SPECIALS), st.floats(), st.floats(-1.0, 1.0)))))
@example(np.full((3, 1), -0.0))
@example(np.full((2, 5), -0.0))
@example(np.full((2, 9), -0.0))
@example(np.array([[-np.nan, np.nan]]))
def test_row_sum_is_numpys_row_sum_bitwise(a):
    # The row sum takes a first column with no -0.0, as no column the kernels sum holds one.
    a = a.copy()
    a[a[:, 0] == 0.0, 0] = 0.0
    with np.errstate(all="ignore"):
        assert np.array_equal(_bits(_row_sum(a)), _bits(np.sum(a, axis=1)))


@pytest.mark.parametrize("shift_b", [0.0, 1.5])
@pytest.mark.parametrize("name,dim", CASES)
def test_kernels_leave_the_points_alone(name, dim, shift_b):
    obj = _make(name, dim, shift_b=shift_b, shift_c=0.5)
    rng = np.random.default_rng(11)
    points = rng.uniform(-3.0, 3.0, (6, obj.dimension))
    points[0] = obj.minimizer
    points.flags.writeable = False  # as the cached ladder prefix is; a write would raise
    before = points.copy()
    for result in (obj.evaluate_many(points), obj.gradient_many(points)):
        assert not np.shares_memory(result, points)
    assert np.array_equal(_bits(points), _bits(before))
