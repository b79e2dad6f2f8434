"""Self-test of the benchmark's reference formulas and output checks.

    python3 perfbench/selftest.py

The formulas are tested against closed-form values; each output check is
shown to pass a real CLI output and to reject a corrupted copy of it.
"""

import dataclasses
import json
import math
import re
import unittest

import numpy as np

import run
from reference import ackley, binomial_band, flat_basin, loads_strict, rastrigin
from spans import tail_percentile
from workloads import (
    GDBT_ACKLEY2D,
    BatchWorkload,
    SBGD_ACKLEY2D,
    SWEEP_METHODS,
    check_sweep_pair,
    sweep_argv,
    sweep_grid,
)

SD = run.import_package()
CALL = run.cli_caller(SD.cli.main)


class ReferenceFormulas(unittest.TestCase):
    def test_ackley(self):
        self.assertAlmostEqual(ackley([10.0, 10.0], 10.0), 0.0, delta=1e-14)
        self.assertAlmostEqual(ackley([0.0]), 0.0, delta=1e-14)
        # One unit off along an axis: the cosine term is unchanged, only the radial term moves.
        self.assertAlmostEqual(ackley([11.0, 10.0], 10.0), 20.0 * (1.0 - math.exp(-0.2 / math.sqrt(2.0))),
                               delta=1e-13)
        self.assertAlmostEqual(ackley([1.0]), 20.0 * (1.0 - math.exp(-0.2)), delta=1e-13)
        self.assertAlmostEqual(ackley([0.5]), 20.0 + math.e - 20.0 * math.exp(-0.1) - math.exp(-1.0),
                               delta=1e-13)

    def test_rastrigin(self):
        self.assertEqual(rastrigin([0.0]), 0.0)
        self.assertAlmostEqual(rastrigin([0.5]), 20.25, delta=1e-13)
        self.assertAlmostEqual(rastrigin([1.0]), 1.0, delta=1e-13)

    def test_flat_basin(self):
        self.assertAlmostEqual(flat_basin([0.0]), 1.0 + math.pi**2 / 40.0, delta=1e-15)
        peak = math.sqrt(math.pi / 4.0)  # sin(2 x^2) = 1
        self.assertAlmostEqual(flat_basin([peak]), math.e + 0.1 * (peak - math.pi / 2.0) ** 2, delta=1e-14)
        # The global minimum on [-3, 3] sits near the paper's x* = 1.5355 with F(x*) = 0.3680.
        grid = np.linspace(-3.0, 3.0, 600_001)
        values = [flat_basin([x]) for x in grid]
        best = int(np.argmin(values))
        self.assertAlmostEqual(grid[best], 1.5355, delta=1e-4)
        self.assertAlmostEqual(values[best], 0.3680058, delta=1e-7)


class Helpers(unittest.TestCase):
    def test_binomial_band(self):
        lo, hi = binomial_band(40, 0.984)
        self.assertLessEqual(hi, 40)
        self.assertLess(lo, 0.984 * 40)
        lo, hi = binomial_band(100, 0.5)
        self.assertEqual(lo + hi, 100)
        self.assertEqual(binomial_band(100, 0.006)[0], 0)

    def test_loads_strict(self):
        self.assertEqual(loads_strict('{"a": [1.5, -2]}'), {"a": [1.5, -2]})
        for bad in ("NaN", "Infinity", "-Infinity"):
            with self.assertRaises(ValueError):
                loads_strict(f'{{"f_sol": {bad}}}')

    def test_tail_percentile(self):
        self.assertEqual(tail_percentile(39), 0.5)
        self.assertEqual(tail_percentile(50), 0.8)
        self.assertEqual(tail_percentile(100), 0.9)


class BatchCheck(unittest.TestCase):
    """A small real batch, then corrupted copies of its report."""

    SEED = 7

    @classmethod
    def setUpClass(cls):
        cls.batch = dataclasses.replace(GDBT_ACKLEY2D, runs=10, calls=1)
        rc, cls.text, _ = CALL(cls.batch.argv(cls.SEED, 1))
        if rc != 0:
            raise RuntimeError(f"the CLI exited with {rc}")

    def test_real_report_passes(self):
        out = self.batch.check(self.SEED, 0, self.text)
        self.assertEqual((out.failed, out.problems), (0, []))
        self.assertEqual(self.batch.band_problems(out.successes), [])

    def test_nan_f_sol_is_a_failed_operation(self):
        corrupt = re.sub(r'"f_sol": [^,]+', '"f_sol": NaN', self.text, count=1)
        out = self.batch.check(self.SEED, 0, corrupt)
        self.assertEqual(out.failed, self.batch.runs)

    def test_wrong_f_sol_is_rejected(self):
        report = json.loads(self.text)
        report["per_run"][0]["f_sol"] += 1e-6
        out = self.batch.check(self.SEED, 0, json.dumps(report))
        self.assertTrue(any("is not F(x_sol)" in p for p in out.problems), out.problems)

    def test_success_count_outside_band_is_rejected(self):
        as_swarm = dataclasses.replace(self.batch, paper_rate=SBGD_ACKLEY2D.paper_rate,
                                       lower_bounded=True)
        out = as_swarm.check(self.SEED, 0, self.text)
        self.assertEqual(out.problems, [])
        problems = as_swarm.band_problems(out.successes)
        self.assertEqual(len(problems), 1)
        self.assertIn("outside the band", problems[0])

    def test_report_differing_from_the_sequential_one_is_rejected(self):
        workload = BatchWorkload(self.batch, jobs=2)
        texts = iter([self.text, self.text.replace('"seed": 7', '"seed":  7', 1)])

        def call(argv):
            return 0, next(texts), ""

        problems = [p for step in workload.first_round(call, self.SEED) + workload.round(call, self.SEED)
                    for p in step().problems]
        self.assertEqual(len(problems), 1)
        self.assertIn("differs from the sequential one", problems[0])

    def test_nonzero_exit_fails_every_run(self):
        out = self.batch.check(self.SEED, 3, "")
        self.assertEqual(out.failed, self.batch.runs)


class SweepCheck(unittest.TestCase):
    SEED = 7

    @classmethod
    def setUpClass(cls):
        cls.lo, cls.hi = sweep_grid(cls.SEED, 2)
        cls.outputs = {}
        for method in SWEEP_METHODS:
            rc, text, _ = CALL(sweep_argv("flatbasin1d", method, cls.lo, cls.hi))
            cls.outputs[method] = (rc, text)

    def test_real_pair_passes(self):
        out = check_sweep_pair("flatbasin1d", self.lo, self.hi, self.outputs)
        self.assertEqual((out.failed, out.problems), (0, []))

    def test_differing_maps_are_rejected(self):
        rc, text = self.outputs["gdbt"]
        rows = text.splitlines()
        x0, final = rows[3].split(",")
        rows[3] = f"{x0},{float(final) + 1e-9!r}"
        outputs = dict(self.outputs, gdbt=(rc, "\n".join(rows) + "\n"))
        out = check_sweep_pair("flatbasin1d", self.lo, self.hi, outputs)
        self.assertIn("flatbasin1d: the SBGD and GD(BT) maps differ", out.problems)

    def test_ascent_is_rejected(self):
        rc, text = self.outputs["sbgd"]
        rows = text.splitlines()
        x0, _ = rows[0].split(",")
        rows[0] = f"{x0},{math.sqrt(math.pi / 4.0)!r}"  # a peak of the landscape
        outputs = dict(self.outputs, sbgd=(rc, "\n".join(rows) + "\n"))
        out = check_sweep_pair("flatbasin1d", self.lo, self.hi, outputs)
        self.assertTrue(any(p.startswith("flatbasin1d/sbgd: F(") for p in out.problems), out.problems)

    def test_non_finite_row_is_a_failed_operation(self):
        rc, text = self.outputs["sbgd"]
        rows = text.splitlines()
        rows[1] = rows[1].split(",")[0] + ",nan"
        outputs = dict(self.outputs, sbgd=(rc, "\n".join(rows) + "\n"))
        out = check_sweep_pair("flatbasin1d", self.lo, self.hi, outputs)
        self.assertEqual(out.failed, 1)


if __name__ == "__main__":
    unittest.main()
