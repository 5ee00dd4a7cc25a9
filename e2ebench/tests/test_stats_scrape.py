"""Unit checks for the benchmark's percentile and metric-scrape helpers.

    python3 -m unittest discover -s e2ebench/tests
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

from e2e import scrape, stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_known_sample(self):
        sample = list(range(100, 0, -1))  # 1..100, unsorted.
        self.assertEqual(stats.percentile(sample, 50), 50)
        self.assertEqual(stats.percentile(sample, 99), 99)
        self.assertEqual(stats.percentile(sample, 100), 100)
        self.assertEqual(stats.percentile(sample, 1), 1)
        self.assertEqual(stats.percentile(sample, 0.5), 1)
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2)

    def test_unanswered_requests_miss_every_limit(self):
        sample = [1.0] * 98 + [math.inf] * 2
        self.assertEqual(stats.percentile(sample, 98), 1.0)
        self.assertEqual(stats.percentile(sample, 99), math.inf)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1], 0)


class ScrapeTest(unittest.TestCase):
    BEFORE = """# HELP dynaprox_requests_total Requests.
# TYPE dynaprox_requests_total counter
dynaprox_requests_total 10
dynaprox_scan_duration_seconds_sum 0.5
dynaprox_fault_injections_total{point="net.read"} 0
"""
    AFTER = """dynaprox_requests_total 25
dynaprox_scan_duration_seconds_sum 1.25
dynaprox_fault_injections_total{point="net.read"} 2
"""

    def test_delta(self):
        delta = scrape.Delta("dpc", scrape.parse(self.BEFORE),
                             scrape.parse(self.AFTER))
        self.assertEqual(delta["dynaprox_requests_total"], 15)
        self.assertAlmostEqual(
            delta["dynaprox_scan_duration_seconds_sum"], 0.75)
        self.assertEqual(
            delta['dynaprox_fault_injections_total{point="net.read"}'], 2)
        self.assertEqual(delta.sum("dynaprox_requests_total",
                                   "dynaprox_requests_total"), 30)

    def test_missing_series_fails_loudly(self):
        delta = scrape.Delta("dpc", scrape.parse(self.BEFORE),
                             scrape.parse(self.AFTER))
        with self.assertRaises(scrape.MissingSeries):
            delta["dynaprox_renamed_total"]
        only_before = scrape.Delta("dpc", scrape.parse(self.BEFORE), {})
        with self.assertRaises(scrape.MissingSeries):
            only_before["dynaprox_requests_total"]


if __name__ == "__main__":
    unittest.main()
