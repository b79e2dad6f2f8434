"""Benchmark objective functions with closed-form gradients.

Every objective is an affine placement of a fixed base landscape ``f``:

    F(x) = f(x - b) + c

where the scalar ``b`` shifts the argument along the all-ones direction and
``c`` offsets the value.  The known global minimizer and minimum value move
covariantly, so shifted benchmarks keep an exact ground truth.

Evaluation is vectorised: :meth:`Objective.evaluate_many` and
:meth:`Objective.gradient_many` act on ``(n, d)`` batches of points, and the
single-point methods are thin wrappers around them so that scalar and batch
callers see bit-identical arithmetic.

Each kernel computes, bit for bit, what its formula written as one
whole-array numpy expression computes (``tests/kernel_oracle.py`` keeps
those expressions).  Every sum or mean over a point's coordinates is
:func:`_row_sum` (a mean divides it by ``d``, as ``np.mean`` does).  It
adds narrow rows column by column in numpy's own order, at a fraction of
numpy's reduction set-up.  No column the kernels sum can hold ``-0.0``
(they are squares, cosines, which are never exactly 0, and Rastrigin's
terms, which end in ``+ 10``), so ``_row_sum`` takes that as given of the
first column and starts from it instead of from ``+0.0 +`` it.

The gradients and the Rosenbrock and quadratic values are plain
expressions: a step makes one gradient call but a ladder of value calls,
and no preset runs Rosenbrock or the quadratic, so writing them in place
would save under 1% of any benchmark round.  The value kernels the ladder runs
at volume -- flat basin, Ackley, Rastrigin and drop-wave -- are written in
place, with the same operations on the same operands in the same order,
under two rules:

* ``out=`` writes only into arrays the kernel itself allocated.  A kernel
  never writes into its argument ``z`` or the caller's points, which may be
  read-only (the ladder's cached prefix) or still in use.  Writing a
  result into a temporary instead of a fresh array cannot change it, and
  every transcendental function still reads a contiguous array of the
  shape it read before, so numpy picks the same loop for it.
* NaN signs follow the first operand.  On a one-element array numpy's
  ``a += b`` returns the NaN of ``b`` where ``a + b`` returns that of
  ``a``.  So an in-place add of two arrays that may hold one element
  writes into its second operand (``np.add(a, b, out=b)``), unless both
  operands can only carry the same NaN (one coordinate feeds both), and
  :func:`_row_sum` hands a single row to numpy's reduction.

The ladder only compares each trial value with its Armijo threshold, so it
passes the thresholds along, and Ackley may screen rows out: such a row
comes back as ``+inf`` and is one the ladder rejects anyway.  libm's ``cos``
is about 80% of a 2-D Ackley value, and the screen skips the cosines of the
rows it is sure of:

* The bound.  Ackley is ``R - exp(mean cos) + 20 + e``, plus the value
  shift ``c``.  Redoing the value's own operations in the same order, with
  ``exp(mean cos)`` replaced by a number ``E`` no smaller than it, gives a
  lower bound on the computed value: IEEE addition and subtraction,
  rounded to nearest, are monotone in each operand, so a smaller operand
  never rounds to a larger result.
* The bound's ``E``.  ``cos x <= 1 - x^2/2 + x^4/24`` for every real
  ``x``.  With ``t = z - rint(z)``, exact, and ``s = t^2``, this gives
  ``cos(2 pi z) <= 1 - 2 pi^2 s + (2 pi^4 / 3) s^2``, so the bound takes
  ``E = min(e, exp(1 + 1e-9 - (2 pi^2 sum s - (2 pi^4 / 3) sum s^2) / d))``.
* The cap at ``e``.  By the same monotony a mean of cosines, each at most
  1, rounds to at most 1: a sum of ``j`` of them to at most ``j``, and the
  sum of all ``d`` over ``d`` to at most 1.  ``e`` is no smaller than any
  ``exp(s)`` numpy returns for ``s <= 1``, which ``tests/test_objectives.py``
  checks on the 2^20 doubles nearest 1 (where a rounding error could carry
  ``exp`` past ``e``).
* The margin.  ``exp`` grows by a factor of ``e^1e-9``, about ``1 + 1e-9``,
  across the ``1e-9`` in the exponent.  It covers, each far below it:
  the phase, since the cosine is taken of ``z * 2 pi`` rounded, which for
  ``|z| <= 2^16`` lies within ``2^16 * 2.5e-16`` (``2 pi`` rounded) plus
  half an ulp of a number below ``2^19`` (the product rounded), under
  ``1e-10``, of the true phase, and ``cos`` is 1-Lipschitz; libm's ``cos``,
  within an ulp; the row means, which numpy sums in order below 8 values
  and pairwise in blocks of at most 128 above, so that a mean of terms of
  magnitude at most 5 is off by under ``(128 + log2 d) * 2^-53 * 5``,
  below ``1e-12`` for any ``d`` that fits in memory; the polynomial's own
  roundings and constants, each a few ulp of numbers below 5; and
  ``exp``, which numpy computes within a few ulp, so that its results at
  two arguments ``8e-10`` apart keep their order (``tests/test_objectives.py``
  checks ``2^21`` doubles in ``[-1, 1]``).  Near the integers, where the
  minima are, the bound is tight: where every ``|t| <= 1e-3`` the
  polynomial is off by under ``1e-16``, and the bound lies at most
  ``4e-9`` plus an ulp of the value below it.
* Where it runs.  One test per call: the bound runs on calls of at least
  2048 coordinates whose ``z * z`` has no entry above ``2^32``, which holds
  exactly when every ``|z| <= 2^16`` (rounding is monotone and ``2^32`` is
  a double) and fails for a NaN or an infinity.  Every other call gets its
  plain values.  On fewer coordinates the bound's passes cost more than the
  cosines they save.
* The rule.  A row is screened out only where its bound plus ``c`` lies
  strictly above its threshold, so its value does too; a value equal to
  its threshold passes the Armijo test and is never screened.  A NaN or an
  infinite coordinate never reaches the bound, since the guard gives its
  call plain values.
* The kept rows.  When the bound screens out no row, the call finishes in
  place.  When it screens out any, the kept rows are computed by the very
  operations of the whole kernel on an array of just those rows, which give
  every bit, NaN signs included, whatever the row count.  ``ackley1d`` does
  not screen: its sweep calls, about 200 points each, do not repay the
  bound's fixed cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "FLAT_BASIN_FMIN",
    "FLAT_BASIN_XSTAR",
    "OBJECTIVE_NAMES",
    "Objective",
    "ObjectiveKind",
    "make_objective",
]

# Global minimizer of the 1D flat-basin landscape exp(sin(2x^2)) + (x - pi/2)^2/10,
# frozen from a 1e-6 grid scan over [-3, 3] refined by bisection on the derivative.
FLAT_BASIN_XSTAR = 1.5354988301250132
FLAT_BASIN_FMIN = 0.36800582802252851


class ObjectiveKind(Enum):
    """Supported base landscapes; values double as the CLI names."""

    FLAT_BASIN_1D = "flatbasin1d"
    ACKLEY_1D = "ackley1d"
    RASTRIGIN_1D = "rastrigin1d"
    ACKLEY = "ackley"
    RASTRIGIN = "rastrigin"
    DROP_WAVE = "dropwave"
    ROSENBROCK_2D = "rosenbrock2d"
    QUADRATIC = "quadratic"


OBJECTIVE_NAMES = tuple(kind.value for kind in ObjectiveKind)


# numpy's sum adds fewer than this many values one at a time onto +0.0; from
# this many on it sums pairwise, in an order only its own reduction follows.
_SEQUENTIAL_SUM = 8


def _row_sum(a: np.ndarray) -> np.ndarray:
    """``np.sum(a, axis=1)`` bit for bit, without the reduction machinery on narrow rows.

    numpy adds a row of fewer than 8 values one by one onto ``+0.0``; from 8
    values on it sums pairwise, which only its own reduction reproduces.  A
    single row also goes to the reduction, since adding its columns in place
    would pick the wrong NaN.

    The first column must hold no ``-0.0``, as no column the kernels sum
    does (squares, cosines, anything plus a non-zero constant).  Then
    ``+0.0 + a[:, 0]`` is ``a[:, 0]`` itself, NaNs included, so a narrow sum
    starts from the first two columns and saves a pass; a single column is
    ``a[:, 0] + 0.0``.
    """
    if a.shape[1] >= _SEQUENTIAL_SUM or a.shape[0] == 1:
        return np.add.reduce(a, axis=1)
    if a.shape[1] == 1:
        return a[:, 0] + 0.0
    total = a[:, 0] + a[:, 1]
    for j in range(2, a.shape[1]):
        total += a[:, j]
    return total


def _flat_basin_values(z: np.ndarray) -> np.ndarray:
    """exp(sin(2x^2)) + (x - pi/2)^2 / 10 -- oscillatory wells on a shallow parabola."""
    x = z[:, 0]
    out = 2.0 * x
    out *= x
    np.sin(out, out=out)
    np.exp(out, out=out)
    bowl = x - np.pi / 2
    bowl *= bowl
    bowl *= 0.1
    out += bowl
    return out


def _flat_basin_grads(z: np.ndarray) -> np.ndarray:
    x = z[:, 0]
    phase = 2.0 * x * x
    g = np.exp(np.sin(phase)) * np.cos(phase) * 4.0 * x + 0.2 * (x - np.pi / 2)
    return g[:, None]


def _ackley_radial(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """-20 exp(-0.2|z|/sqrt(d)), and the temporary ``z * z`` free for reuse."""
    w = z * z
    out = _row_sum(w)
    np.sqrt(out, out=out)
    out *= -0.2 / np.sqrt(z.shape[1])
    np.exp(out, out=out)
    out *= -20.0
    return out, w


def _ackley_waves(out: np.ndarray, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Completes the radial part ``out`` of points ``z`` to their Ackley values in place.

    ``w`` is a temporary of ``z``'s shape, which may be ``z`` itself.
    """
    np.multiply(z, 2.0 * np.pi, out=w)
    np.cos(w, out=w)
    cos_avg = _row_sum(w)
    cos_avg /= z.shape[1]
    np.exp(cos_avg, out=cos_avg)
    out -= cos_avg
    out += 20.0
    out += np.e
    return out


def _ackley_values(z: np.ndarray) -> np.ndarray:
    """-20 exp(-0.2|z|/sqrt(d)) - exp(mean cos(2 pi z_i)) + 20 + e."""
    out, w = _ackley_radial(z)
    return _ackley_waves(out, z, w)


# Bounds every exp(s) numpy returns for s <= 1, the most a mean of cosines
# can round to; tests/test_objectives.py checks the 2^20 doubles nearest 1.
_ACKLEY_WAVE_MAX = np.e
# cos x <= 1 - x^2/2 + x^4/24 for every real x, so with t = z - rint(z),
# cos(2 pi z) <= 1 - t^2 (_TAYLOR_2 - _TAYLOR_4 t^2).
_TAYLOR_2 = 2.0 * np.pi**2
_TAYLOR_4 = 2.0 * np.pi**4 / 3.0
# Added to the bound's exponent; covers every rounding error the module
# docstring lists, each far below it.
_TAYLOR_SLACK = 1e-9
# The largest |z| for which the phase z * 2 pi rounds by under 1e-10.
_TAYLOR_MAX_Z = 2.0**16
# Coordinates per call below which the bound's passes cost more than the
# cosines they save; such calls screen nothing.
_TAYLOR_MIN_COORDS = 2048


def _ackley_wave_bound(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per row, a number no smaller than the ``exp(mean cos)`` that :func:`_ackley_waves` computes.

    ``w`` is a temporary of ``z``'s shape and is overwritten.  Every ``|z|``
    must be at most 2^16, so no coordinate is NaN or infinite.
    """
    np.rint(z, out=w)
    np.subtract(z, w, out=w)
    w *= w
    bound = _row_sum(w)
    w *= w
    quartic = _row_sum(w)
    bound *= _TAYLOR_2
    quartic *= _TAYLOR_4
    bound -= quartic
    bound /= z.shape[1]
    np.subtract(1.0 + _TAYLOR_SLACK, bound, out=bound)
    np.exp(bound, out=bound)
    np.minimum(bound, _ACKLEY_WAVE_MAX, out=bound)
    return bound


def _ackley_screened(z: np.ndarray, thresholds: np.ndarray, shift_c: float) -> np.ndarray:
    """Ackley values, with +inf for rows whose value plus ``shift_c`` surely fails ``<= thresholds``.

    On a call of at least ``_TAYLOR_MIN_COORDS`` coordinates, each at most
    2^16 in magnitude, a row is screened out when its Taylor lower bound
    plus ``shift_c`` lies strictly above its threshold.  Every other call
    gets its plain values.
    """
    out, w = _ackley_radial(z)
    # Fails for any |z| above 2^16 and for a NaN or infinite coordinate.
    if z.size < _TAYLOR_MIN_COORDS or not w.max() <= _TAYLOR_MAX_Z**2:
        return _ackley_waves(out, z, w)
    low = _ackley_wave_bound(z, w)
    np.subtract(out, low, out=low)
    low += 20.0
    low += np.e
    low += shift_c
    above = low > thresholds
    if not above.any():
        return _ackley_waves(out, z, w)
    keep = (~above).nonzero()[0]
    zk = z.take(keep, axis=0)
    values = _ackley_waves(out.take(keep), zk, zk)
    out = np.full(out.size, np.inf)
    out.put(keep, values)
    return out


def _ackley_grads(z: np.ndarray) -> np.ndarray:
    d = z.shape[1]
    r = np.sqrt(_row_sum(z * z))
    radial = np.divide(4.0 / np.sqrt(d) * np.exp(-0.2 / np.sqrt(d) * r), r,
                       out=np.zeros_like(r), where=r > 0.0)
    phase = 2.0 * np.pi * z
    cos_avg = _row_sum(np.cos(phase)) / d
    waves = (2.0 * np.pi / d) * np.exp(cos_avg)[:, None] * np.sin(phase)
    grads = radial[:, None] * z + waves
    # The radial term has a cone tip at the minimizer; use the zero subgradient there.
    grads[r == 0.0] = 0.0
    return grads


def _rastrigin_values(z: np.ndarray) -> np.ndarray:
    """mean(z_i^2 - 10 cos(2 pi z_i) + 10) over the coordinates."""
    waves = z * (2.0 * np.pi)
    np.cos(waves, out=waves)
    waves *= 10.0
    terms = z * z
    terms -= waves
    terms += 10.0
    out = _row_sum(terms)
    out /= z.shape[1]
    return out


def _rastrigin_grads(z: np.ndarray) -> np.ndarray:
    return (2.0 * z + 20.0 * np.pi * np.sin(2.0 * np.pi * z)) / z.shape[1]


def _drop_wave_values(z: np.ndarray) -> np.ndarray:
    """-(1 + cos(12|z|)) / (|z|^2/2 + 2), global minimum -1 at the origin."""
    r2 = _row_sum(z * z)
    out = np.sqrt(r2)
    out *= 12.0
    np.cos(out, out=out)
    out += 1.0
    np.negative(out, out=out)
    r2 *= 0.5
    r2 += 2.0
    out /= r2
    return out


def _drop_wave_grads(z: np.ndarray) -> np.ndarray:
    r2 = _row_sum(z * z)
    r = np.sqrt(r2)
    safe_r = np.where(r > 0.0, r, 1.0)
    u = 1.0 + np.cos(12.0 * r)
    v = 0.5 * r2 + 2.0
    coef = np.where(r > 0.0, (12.0 * np.sin(12.0 * r) * v / safe_r + u) / (v * v), 0.0)
    grads = coef[:, None] * z
    grads[r == 0.0] = 0.0
    return grads


def _rosenbrock_values(z: np.ndarray) -> np.ndarray:
    """(1 - z_1)^2 + 100 (z_2 - z_1^2)^2, the banana valley with minimum at (1, 1)."""
    x1 = z[:, 0]
    t = z[:, 1] - x1 * x1
    return (1.0 - x1) ** 2 + 100.0 * t * t


def _rosenbrock_grads(z: np.ndarray) -> np.ndarray:
    x1 = z[:, 0]
    t = z[:, 1] - x1 * x1
    g = np.empty_like(z)
    g[:, 0] = -2.0 * (1.0 - x1) - 400.0 * x1 * t
    g[:, 1] = 200.0 * t
    return g


def _quadratic_values(z: np.ndarray, mu: float) -> np.ndarray:
    """mu |z|^2 / 2 -- strongly convex with known curvature, for rate checks."""
    return 0.5 * mu * _row_sum(z * z)


def _quadratic_grads(z: np.ndarray, mu: float) -> np.ndarray:
    return mu * z


class _Landscape(NamedTuple):
    """One base landscape: its functions of ``z = x - b`` and its ground truth."""

    values: Callable[..., np.ndarray]
    grads: Callable[..., np.ndarray]
    dimension: int | None  # the one dimension it is defined in, or None for any
    x_star: float  # every coordinate of the unshifted minimizer
    f_star: float  # the unshifted minimum value
    # The values kernel that may screen out rows above their Armijo thresholds.
    screened: Callable[..., np.ndarray] | None = None


_LANDSCAPES = {
    ObjectiveKind.FLAT_BASIN_1D: _Landscape(
        _flat_basin_values, _flat_basin_grads, 1, FLAT_BASIN_XSTAR, FLAT_BASIN_FMIN),
    ObjectiveKind.ACKLEY_1D: _Landscape(_ackley_values, _ackley_grads, 1, 0.0, 0.0),
    ObjectiveKind.RASTRIGIN_1D: _Landscape(_rastrigin_values, _rastrigin_grads, 1, 0.0, 0.0),
    ObjectiveKind.ACKLEY: _Landscape(_ackley_values, _ackley_grads, None, 0.0, 0.0, _ackley_screened),
    ObjectiveKind.RASTRIGIN: _Landscape(_rastrigin_values, _rastrigin_grads, None, 0.0, 0.0),
    ObjectiveKind.DROP_WAVE: _Landscape(_drop_wave_values, _drop_wave_grads, None, 0.0, -1.0),
    ObjectiveKind.ROSENBROCK_2D: _Landscape(_rosenbrock_values, _rosenbrock_grads, 2, 1.0, 0.0),
    ObjectiveKind.QUADRATIC: _Landscape(_quadratic_values, _quadratic_grads, None, 0.0, 0.0),
}


@dataclass(frozen=True)
class Objective:
    """A benchmark landscape with a known global minimizer.

    Parameters
    ----------
    kind : ObjectiveKind
        Which base landscape to use.
    dimension : int
        Ambient dimension ``d``.  Kinds with a fixed dimension (the 1D
        variants and the 2D Rosenbrock valley) must match it.
    shift_b : float, optional
        Argument shift: the base landscape is evaluated at ``x - shift_b``,
        moving the minimizer to ``x* + shift_b`` in every coordinate.
    shift_c : float, optional
        Constant added to all values.
    mu : float, optional
        Curvature of the quadratic kind; ignored by the others.
    """

    kind: ObjectiveKind
    dimension: int
    shift_b: float = 0.0
    shift_c: float = 0.0
    mu: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.kind, ObjectiveKind):
            raise ValueError(f"kind must be an ObjectiveKind, got {self.kind!r}")
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        landscape = _LANDSCAPES[self.kind]
        if landscape.dimension is not None and self.dimension != landscape.dimension:
            raise ValueError(
                f"{self.kind.value} is defined in dimension {landscape.dimension}, got {self.dimension}"
            )
        if not math.isfinite(self.shift_b) or not math.isfinite(self.shift_c):
            raise ValueError("shifts must be finite")
        quadratic = self.kind is ObjectiveKind.QUADRATIC
        if quadratic and not self.mu > 0.0:
            raise ValueError(f"quadratic curvature mu must be positive, got {self.mu}")
        # Per objective, not per call.  z = x only for a shift of +0.0: x - 0.0
        # is x bit for bit, but x - (-0.0) turns -0.0 into +0.0.
        object.__setattr__(self, "_landscape", landscape)
        object.__setattr__(self, "_params", (self.mu,) if quadratic else ())
        object.__setattr__(self, "_unshifted", math.copysign(1.0, self.shift_b) == 1.0 and not self.shift_b)

    @property
    def minimizer(self) -> np.ndarray:
        """Global minimizer as a ``(d,)`` vector."""
        return np.full(self.dimension, self._landscape.x_star) + self.shift_b

    @property
    def min_value(self) -> float:
        """Value of the objective at :attr:`minimizer`."""
        return self._landscape.f_star + self.shift_c

    def _as_point(self, x) -> np.ndarray:
        vec = np.atleast_1d(np.asarray(x, dtype=float))
        if vec.shape != (self.dimension,):
            raise ValueError(f"expected a point of shape ({self.dimension},), got {vec.shape}")
        return vec

    def _shifted(self, points) -> np.ndarray:
        """``z = x - shift_b`` for an ``(n, d)`` batch: the caller's array for a shift of +0.0."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dimension:
            raise ValueError(f"expected points of shape (n, {self.dimension}), got {pts.shape}")
        return pts if self._unshifted else pts - self.shift_b

    def evaluate(self, x) -> float:
        """Objective value at a single point ``x``."""
        return float(self.evaluate_many(self._as_point(x)[None, :])[0])

    def gradient(self, x) -> np.ndarray:
        """Gradient at a single point; the zero vector at non-smooth minima."""
        return self.gradient_many(self._as_point(x)[None, :])[0]

    def evaluate_many(self, points, thresholds: np.ndarray | None = None) -> np.ndarray:
        """Objective values for an ``(n, d)`` batch of points, as shape ``(n,)``.

        With ``thresholds``, shape ``(n,)``, a value that fails the Armijo
        test ``value <= threshold`` (one strictly above its threshold, or
        NaN) may come back as ``+inf`` instead; every other value is exact.
        The ladder passes its thresholds, since it only compares the values
        with them.
        """
        z = self._shifted(points)
        if thresholds is not None:
            thresholds = np.asarray(thresholds)
            if thresholds.shape != z.shape[:1]:
                raise ValueError(f"thresholds must have shape ({z.shape[0]},), got {thresholds.shape}")
        landscape = self._landscape
        if thresholds is None or landscape.screened is None:
            values = landscape.values(z, *self._params)
        else:
            values = landscape.screened(z, thresholds, self.shift_c)
        values += self.shift_c
        return values

    def gradient_many(self, points) -> np.ndarray:
        """Gradients for an ``(n, d)`` batch of points, as shape ``(n, d)``."""
        z = self._shifted(points)
        return self._landscape.grads(z, *self._params)


def make_objective(
    name: str,
    dimension: int | None = None,
    shift_b: float = 0.0,
    shift_c: float = 0.0,
    mu: float = 1.0,
) -> Objective:
    """Build an :class:`Objective` from its CLI name.

    ``dimension`` may be omitted for kinds whose dimension is fixed.
    Unknown names and dimension mismatches raise :class:`ValueError`.
    """
    try:
        kind = ObjectiveKind(str(name).strip().lower())
    except ValueError:
        known = ", ".join(OBJECTIVE_NAMES)
        raise ValueError(f"unknown objective {name!r}; expected one of: {known}") from None
    if dimension is None:
        dimension = _LANDSCAPES[kind].dimension
        if dimension is None:
            raise ValueError(f"objective {kind.value!r} needs an explicit dimension")
    return Objective(kind=kind, dimension=int(dimension), shift_b=float(shift_b),
                     shift_c=float(shift_c), mu=float(mu))
