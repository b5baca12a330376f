"""Tests of the spread and bound rules in ledger.py.

  cd perfbench && python3 -m unittest test_ledger
"""

import statistics
import unittest

import ledger


class QuartileSpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10, 12, 11, 13, 9, 10, 11, 12, 10, 11]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(ledger.quartile_spread(values),
                               (q3 - q1) / med)

    def test_one_outlier_of_ten_barely_moves_it(self):
        steady = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
        outlier = steady[:-1] + [50.0]
        self.assertLess(ledger.quartile_spread(outlier), 0.05)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(ledger.quartile_spread([3.0] * 10), 0.0)


class BoundTest(unittest.TestCase):
    def test_lower_is_better(self):
        self.assertAlmostEqual(ledger.worsening(1.0, 1.1, "lower"), 0.1)
        self.assertTrue(ledger.within_bound(1.0, 1.1, "lower", 0.1 + 1e-9))
        self.assertFalse(ledger.within_bound(1.0, 1.2, "lower", 0.1))
        self.assertTrue(ledger.within_bound(1.0, 0.5, "lower", 0.0))

    def test_higher_is_better(self):
        self.assertAlmostEqual(ledger.worsening(2000, 1500, "higher"), 0.25)
        self.assertFalse(ledger.within_bound(2000, 1500, "higher", 0.2))
        self.assertTrue(ledger.within_bound(2000, 2500, "higher", 0.0))

    def test_zero_parent(self):
        self.assertEqual(ledger.worsening(0.0, 0.0, "lower"), 0.0)
        self.assertFalse(ledger.within_bound(0.0, 1.0, "lower", 0.25))


if __name__ == "__main__":
    unittest.main()
