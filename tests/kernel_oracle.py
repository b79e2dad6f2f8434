"""The landscape kernels as whole-array expressions: the bitwise oracle for ``objectives``.

These are the value and gradient expressions the package used before its
kernels summed narrow rows column by column and its hot value kernels wrote
into their own temporaries.  The gradients and the Rosenbrock and quadratic
values in ``swarmdescent.objectives`` are these expressions again, with
``_row_sum`` for each ``np.sum`` and ``np.mean`` and, at the Ackley
gradient's cone tip, a masked ``np.divide`` for the ``np.where`` pair.
Every kernel there must reproduce them bit for bit, NaN payloads included.
"""

import numpy as np

from swarmdescent.objectives import ObjectiveKind


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


_KERNELS = {
    ObjectiveKind.FLAT_BASIN_1D: (_flat_basin_values, _flat_basin_grads),
    ObjectiveKind.ACKLEY_1D: (_ackley_values, _ackley_grads),
    ObjectiveKind.RASTRIGIN_1D: (_rastrigin_values, _rastrigin_grads),
    ObjectiveKind.ACKLEY: (_ackley_values, _ackley_grads),
    ObjectiveKind.RASTRIGIN: (_rastrigin_values, _rastrigin_grads),
    ObjectiveKind.DROP_WAVE: (_drop_wave_values, _drop_wave_grads),
    ObjectiveKind.ROSENBROCK_2D: (_rosenbrock_values, _rosenbrock_grads),
    ObjectiveKind.QUADRATIC: (_quadratic_values, _quadratic_grads),
}


def reference_evaluate_many(obj, points):
    """``obj.evaluate_many(points)`` as the whole-array expressions compute it."""
    z = np.asarray(points, dtype=float) - obj.shift_b
    return _KERNELS[obj.kind][0](z, *obj._params) + obj.shift_c


def reference_gradient_many(obj, points):
    """``obj.gradient_many(points)`` as the whole-array expressions compute it."""
    z = np.asarray(points, dtype=float) - obj.shift_b
    return _KERNELS[obj.kind][1](z, *obj._params)
