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
"""

from __future__ import annotations

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

def _flat_basin_values(z: np.ndarray) -> np.ndarray:
    """exp(sin(2x^2)) + (x - pi/2)^2 / 10 -- oscillatory wells on a shallow parabola."""
    x = z[:, 0]
    return np.exp(np.sin(2.0 * x * x)) + 0.1 * (x - np.pi / 2) ** 2


def _flat_basin_grads(z: np.ndarray) -> np.ndarray:
    x = z[:, 0]
    g = np.exp(np.sin(2.0 * x * x)) * np.cos(2.0 * x * x) * 4.0 * x + 0.2 * (x - np.pi / 2)
    return g[:, None]


def _ackley_values(z: np.ndarray) -> np.ndarray:
    """-20 exp(-0.2|z|/sqrt(d)) - exp(mean cos(2 pi z_i)) + 20 + e."""
    d = z.shape[1]
    r = np.sqrt(np.sum(z * z, axis=1))
    cos_avg = np.mean(np.cos(2.0 * np.pi * z), axis=1)
    return -20.0 * np.exp(-0.2 / np.sqrt(d) * r) - np.exp(cos_avg) + 20.0 + np.e


def _ackley_grads(z: np.ndarray) -> np.ndarray:
    d = z.shape[1]
    r = np.sqrt(np.sum(z * z, axis=1))
    safe_r = np.where(r > 0.0, r, 1.0)
    radial = np.where(r > 0.0, 4.0 / np.sqrt(d) * np.exp(-0.2 / np.sqrt(d) * r) / safe_r, 0.0)
    cos_avg = np.mean(np.cos(2.0 * np.pi * z), axis=1)
    waves = (2.0 * np.pi / d) * np.exp(cos_avg)[:, None] * np.sin(2.0 * np.pi * z)
    grads = radial[:, None] * z + waves
    # The radial term has a cone tip at the minimizer; use the zero subgradient there.
    grads[r == 0.0] = 0.0
    return grads


def _rastrigin_values(z: np.ndarray) -> np.ndarray:
    """mean(z_i^2 - 10 cos(2 pi z_i) + 10) over the coordinates."""
    return np.mean(z * z - 10.0 * np.cos(2.0 * np.pi * z) + 10.0, axis=1)


def _rastrigin_grads(z: np.ndarray) -> np.ndarray:
    d = z.shape[1]
    return (2.0 * z + 20.0 * np.pi * np.sin(2.0 * np.pi * z)) / d


def _drop_wave_values(z: np.ndarray) -> np.ndarray:
    """-(1 + cos(12|z|)) / (|z|^2/2 + 2), global minimum -1 at the origin."""
    r2 = np.sum(z * z, axis=1)
    r = np.sqrt(r2)
    return -(1.0 + np.cos(12.0 * r)) / (0.5 * r2 + 2.0)


def _drop_wave_grads(z: np.ndarray) -> np.ndarray:
    r2 = np.sum(z * z, axis=1)
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
    return 0.5 * mu * np.sum(z * z, axis=1)


def _quadratic_grads(z: np.ndarray, mu: float) -> np.ndarray:
    return mu * z


class _Landscape(NamedTuple):
    """One base landscape: its functions of ``z = x - b`` and its ground truth."""

    values: Callable[..., np.ndarray]
    grads: Callable[..., np.ndarray]
    dimension: int | None  # the one dimension it is defined in, or None for any
    x_star: float  # every coordinate of the unshifted minimizer
    f_star: float  # the unshifted minimum value


_LANDSCAPES = {
    ObjectiveKind.FLAT_BASIN_1D: _Landscape(
        _flat_basin_values, _flat_basin_grads, 1, FLAT_BASIN_XSTAR, FLAT_BASIN_FMIN),
    ObjectiveKind.ACKLEY_1D: _Landscape(_ackley_values, _ackley_grads, 1, 0.0, 0.0),
    ObjectiveKind.RASTRIGIN_1D: _Landscape(_rastrigin_values, _rastrigin_grads, 1, 0.0, 0.0),
    ObjectiveKind.ACKLEY: _Landscape(_ackley_values, _ackley_grads, None, 0.0, 0.0),
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
        fixed = _LANDSCAPES[self.kind].dimension
        if fixed is not None and self.dimension != fixed:
            raise ValueError(
                f"{self.kind.value} is defined in dimension {fixed}, got {self.dimension}"
            )
        if not np.isfinite(self.shift_b) or not np.isfinite(self.shift_c):
            raise ValueError("shifts must be finite")
        if self.kind is ObjectiveKind.QUADRATIC and not self.mu > 0.0:
            raise ValueError(f"quadratic curvature mu must be positive, got {self.mu}")

    @property
    def minimizer(self) -> np.ndarray:
        """Global minimizer as a ``(d,)`` vector."""
        return np.full(self.dimension, _LANDSCAPES[self.kind].x_star) + self.shift_b

    @property
    def min_value(self) -> float:
        """Value of the objective at :attr:`minimizer`."""
        return _LANDSCAPES[self.kind].f_star + self.shift_c

    @property
    def _params(self) -> tuple:
        # The quadratic is the one landscape with a parameter of its own.
        return (self.mu,) if self.kind is ObjectiveKind.QUADRATIC else ()

    def _as_point(self, x) -> np.ndarray:
        vec = np.atleast_1d(np.asarray(x, dtype=float))
        if vec.shape != (self.dimension,):
            raise ValueError(f"expected a point of shape ({self.dimension},), got {vec.shape}")
        return vec

    def _as_batch(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dimension:
            raise ValueError(f"expected points of shape (n, {self.dimension}), got {pts.shape}")
        return pts

    def evaluate(self, x) -> float:
        """Objective value at a single point ``x``."""
        return float(self.evaluate_many(self._as_point(x)[None, :])[0])

    def gradient(self, x) -> np.ndarray:
        """Gradient at a single point; the zero vector at non-smooth minima."""
        return self.gradient_many(self._as_point(x)[None, :])[0]

    def evaluate_many(self, points) -> np.ndarray:
        """Objective values for an ``(n, d)`` batch of points, as shape ``(n,)``."""
        z = self._as_batch(points) - self.shift_b
        return _LANDSCAPES[self.kind].values(z, *self._params) + self.shift_c

    def gradient_many(self, points) -> np.ndarray:
        """Gradients for an ``(n, d)`` batch of points, as shape ``(n, d)``."""
        z = self._as_batch(points) - self.shift_b
        return _LANDSCAPES[self.kind].grads(z, *self._params)


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
