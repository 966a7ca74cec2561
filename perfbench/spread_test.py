#!/usr/bin/env python3
"""Hand-computed cases for spread.py's quartile spread.

    python3 perfbench/spread_test.py
"""

import unittest

from spread import quartile_spread


class QuartileSpreadTest(unittest.TestCase):
    def test_one_to_ten(self):
        # Exclusive quartiles of 1..10 are 2.75, 5.5, 8.25: (8.25 - 2.75) / 5.5.
        self.assertAlmostEqual(quartile_spread(list(range(10, 0, -1))), 1.0, places=12)

    def test_around_one_hundred(self):
        # Quartiles of 98..102 are 98.5, 100, 101.5: 3 / 100.
        self.assertAlmostEqual(quartile_spread([100, 102, 98, 101, 99]), 0.03, places=12)

    def test_two_values_extrapolate(self):
        # Quartiles of {1, 3} are 0.5, 2, 3.5: 3 / 2.
        self.assertAlmostEqual(quartile_spread([3, 1]), 1.5, places=12)

    def test_negative_median_uses_its_size(self):
        self.assertAlmostEqual(quartile_spread([-102, -98, -100, -101, -99]), 0.03, places=12)

    def test_degenerate(self):
        self.assertEqual(quartile_spread([7, 7, 7]), 0.0)
        self.assertEqual(quartile_spread([5]), 0.0)
        self.assertEqual(quartile_spread([]), 0.0)
        self.assertEqual(quartile_spread([-1, 0, 1]), 0.0)


if __name__ == "__main__":
    unittest.main()
