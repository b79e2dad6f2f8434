"""Reference formulas and output checks, written apart from swarmdescent.

Nothing here imports the package under test.  The objective formulas are
plain ``math`` transcriptions of the definitions in the source paper, so an
output check that compares a reported ``f_sol`` with them does not share a
line of code with the program that produced it.
"""

from __future__ import annotations

import json
import math

import numpy as np

SUCCESS_HALF_WIDTH = 0.25
# Tail probability per side of the binomial bands on success counts.
BAND_ALPHA = 1e-6


def ackley(x, b: float = 0.0) -> float:
    """Ackley's function shifted so that its minimum 0 sits at (b, ..., b)."""
    z = [float(v) - b for v in x]
    d = len(z)
    radius = math.sqrt(sum(t * t for t in z) / d)
    waves = sum(math.cos(2.0 * math.pi * t) for t in z) / d
    return -20.0 * math.exp(-0.2 * radius) - math.exp(waves) + 20.0 + math.e


def rastrigin(x, b: float = 0.0) -> float:
    """Rastrigin's function averaged over coordinates; minimum 0 at (b, ..., b)."""
    z = [float(v) - b for v in x]
    return sum(t * t - 10.0 * math.cos(2.0 * math.pi * t) + 10.0 for t in z) / len(z)


def flat_basin(x) -> float:
    """exp(sin(2 x^2)) + (x - pi/2)^2 / 10, the paper's 1-D flat-basin landscape."""
    (t,) = (float(v) for v in x)
    return math.exp(math.sin(2.0 * t * t)) + 0.1 * (t - math.pi / 2.0) ** 2


FORMULAS = {
    "ackley": ackley,
    "ackley1d": ackley,
    "rastrigin1d": rastrigin,
    "flatbasin1d": flat_basin,
}


def close(reported: float, reference: float) -> bool:
    """Equal to rounding: the two sides evaluate one formula in different orders."""
    return abs(reported - reference) <= 1e-12 * (1.0 + abs(reference))


def not_above(lhs: float, rhs: float) -> bool:
    """``lhs <= rhs`` up to the rounding of two evaluations of one formula."""
    return lhs <= rhs + 1e-12 * (1.0 + abs(rhs))


def initial_positions(seed: int, run_index: int, n_agents: int, dim: int, lo: float, hi: float):
    """Starting points of run ``run_index``: SeedSequence(seed, spawn_key=(k,)), one uniform per coordinate."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(run_index,)))
    return rng.uniform(lo, hi, size=(n_agents, dim))


def binomial_band(n: int, p: float, alpha: float = BAND_ALPHA) -> tuple[int, int]:
    """Smallest ``[lo, hi]`` with ``P(X < lo) <= alpha`` and ``P(X > hi) <= alpha`` for X ~ Bin(n, p)."""
    pmf = [math.comb(n, k) * p**k * (1.0 - p) ** (n - k) for k in range(n + 1)]
    lo, below = 0, 0.0
    while below + pmf[lo] <= alpha:
        below += pmf[lo]
        lo += 1
    hi, above = n, 0.0
    while above + pmf[hi] <= alpha:
        above += pmf[hi]
        hi -= 1
    return lo, hi


def _reject_constant(name: str):
    raise ValueError(f"bare {name} is not JSON")


def loads_strict(text: str):
    """Parse JSON as RFC 8259 defines it: bare NaN, Infinity and -Infinity are errors."""
    return json.loads(text, parse_constant=_reject_constant)
