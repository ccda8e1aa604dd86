"""Tests of the benchmark's order statistics.

    python3 -m unittest discover -s wavebench/tests
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from stats import describe_tail, median, tail  # noqa: E402


class TailTest(unittest.TestCase):
    def test_hundred_samples_give_p90_with_ten_beyond(self):
        self.assertEqual(tail(range(1, 101)), (90.0, 90, 10, 100))

    def test_order_of_input_does_not_matter(self):
        values = [5, 1, 4, 2, 3] * 4 + [9]
        self.assertEqual(tail(values), tail(sorted(values)))
        pct, value, beyond, n = tail(values)
        self.assertEqual((value, beyond, n), (3, 10, 21))
        self.assertAlmostEqual(pct, 100 * 11 / 21)

    def test_eleven_samples_is_the_smallest_set_with_a_tail(self):
        pct, value, beyond, n = tail(range(11))
        self.assertEqual((value, beyond, n), (0, 10, 11))
        self.assertAlmostEqual(pct, 100 / 11)

    def test_ten_or_fewer_samples_fall_back_to_the_maximum(self):
        self.assertEqual(tail([3.0, 1.0, 2.0]), (100.0, 3.0, 0, 3))
        self.assertEqual(tail(range(10)), (100.0, 9, 0, 10))
        self.assertIn("max shown", describe_tail([1.0], "ms"))

    def test_count_beyond_is_reported(self):
        self.assertIn("n=1000, 10 beyond", describe_tail(range(1000), "ms"))
        self.assertEqual(tail(range(1000))[:2], (99.0, 989))

    def test_empty_input_is_an_error(self):
        with self.assertRaises(ValueError):
            tail([])


class MedianTest(unittest.TestCase):
    def test_odd_and_even_counts(self):
        self.assertEqual(median([3, 1, 2]), 2)
        self.assertEqual(median([4, 1, 3, 2]), 2.5)


if __name__ == "__main__":
    unittest.main()
