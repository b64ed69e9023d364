"""Tests for the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import unittest

import benchstats as bs


def ladder(n, **values):
    out = {"n": n, "p50": 1.0, "p90": 2.0, "p99": 3.0, "p99_9": 4.0,
           "p99_99": 5.0}
    out.update(values)
    return out


def phase(svc_p99, lags=(0.0, 0.0), unsent=0, p50=2.0):
    """A phase reply with the given service-time p99 and latency median,
    whose first and last windows have the given start lags."""
    windows = [{"lag_p50": lags[0]}, {"lag_p50": lags[1]}]
    return {"unsent": unsent, "windows": windows,
            "lat": ladder(1000, p50=p50), "svc": ladder(1000, p99=svc_p99)}


class TailPercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        # 1000 samples: exactly 10 lie beyond p99, only 1 beyond p99.9.
        self.assertEqual(bs.tail_percentile(ladder(1000)), ("p99", 3.0))
        self.assertEqual(bs.tail_percentile(ladder(999)), ("p90", 2.0))
        self.assertEqual(bs.tail_percentile(ladder(10000)), ("p99_9", 4.0))
        self.assertEqual(bs.tail_percentile(ladder(100000)), ("p99_99", 5.0))

    def test_ladder_by_nearest_rank(self):
        lad = bs.ladder(float(x) for x in range(1000, 0, -1))
        self.assertEqual((lad["n"], lad["p50"], lad["p90"], lad["p99"]),
                         (1000, 500.0, 900.0, 990.0))
        self.assertEqual((lad["p99_99"], lad["max"]), (1000.0, 1000.0))
        self.assertEqual(bs.tail_percentile(lad), ("p99", 990.0))
        self.assertEqual(bs.ladder([])["n"], 0)

    def test_few_samples_fall_back_to_median(self):
        self.assertEqual(bs.tail_percentile(ladder(5)), ("p50", 1.0))

    def test_failed_requests_are_infinite(self):
        self.assertEqual(bs.tail_percentile(ladder(1000, p99=None)),
                         ("p99", math.inf))


class SummaryTest(unittest.TestCase):
    def test_interquartile_mean_drops_outliers(self):
        self.assertEqual(bs.interquartile_mean([1, 5, 6, 7, 100]), 6.0)
        self.assertEqual(bs.interquartile_mean([3, 1, 2, 50, 4, 0, 5, 6]),
                         3.5)
        self.assertEqual(bs.interquartile_mean([]), 0.0)

    def test_interquartile_mean_follows_a_mixture(self):
        # Half fast, half slow: the median sits on one state, the
        # interquartile mean between them, and one more slow sample moves
        # it only a little.
        even = [6.0] * 10 + [9.0] * 10
        self.assertAlmostEqual(bs.interquartile_mean(even), 7.5)
        tipped = [6.0] * 9 + [9.0] * 11
        self.assertLess(bs.interquartile_mean(tipped) - 7.5, 0.35)

    def test_share_splits_exactly(self):
        self.assertEqual([bs.share(10, k, 4) for k in range(4)],
                         [2, 3, 2, 3])
        self.assertEqual(sum(bs.share(3, k, 4) for k in range(4)), 3)


class CapacityTest(unittest.TestCase):
    def test_backlog(self):
        self.assertFalse(bs.backlog_grew(phase(10.0, (5.0, 400.0)), 1000))
        self.assertTrue(bs.backlog_grew(phase(10.0, (5.0, 2000.0)), 1000))
        self.assertTrue(bs.backlog_grew(phase(10.0, unsent=1), 1000))

    def test_step_passes_on_service_p99_and_median(self):
        self.assertTrue(bs.step_passes(phase(999.0), 1000))
        # More than 1% of the step's requests took longer than the limit
        # to serve.
        self.assertFalse(bs.step_passes(phase(1500.0), 1000))
        # Failed requests read as null, an infinite latency.
        self.assertFalse(bs.step_passes(phase(None), 1000))
        self.assertFalse(bs.step_passes(phase(50.0, (0.0, 5000.0)), 1000))
        # A standing queue: fast service, but the median request waits
        # longer than the limit, even though the backlog did not grow.
        self.assertFalse(bs.step_passes(
            phase(50.0, (20000.0, 19500.0), p50=19800.0), 1000))
        self.assertFalse(bs.step_passes(phase(50.0, p50=None), 1000))

    @staticmethod
    def ladder(passes, lowest=700.0, **kw):
        ladder = bs.CapacityLadder(lowest, **kw)
        while not ladder.done:
            ladder.record(passes(ladder.rate))
        return ladder

    def test_ladder_finds_the_knee(self):
        knee = 1000.0
        lad = self.ladder(lambda r: r <= knee)
        self.assertLessEqual(lad.capacity(), knee)
        self.assertGreater(lad.capacity(), knee / 1.08)
        self.assertEqual(len(lad.steps), 20)

    def test_ladder_alternates_rungs(self):
        lad = bs.CapacityLadder(100.0, growth=2.0, rungs=5, trials=1)
        self.assertEqual(lad.order, [0, 2, 4, 1, 3])
        self.assertEqual(lad.rate, 100.0)
        lad.record(True)
        self.assertEqual(lad.rate, 400.0)

    def test_stray_outcome_moves_one_rung(self):
        knee = 1000.0
        clean = self.ladder(lambda r: r <= knee).capacity()
        # A rung that fails every trial well below the knee costs one rung,
        # not half the ladder.
        stray = self.ladder(lambda r: r <= knee and not 750 < r < 760)
        self.assertAlmostEqual(stray.capacity() * 1.08, clean)

    def test_one_failed_trial_costs_half_a_rung(self):
        knee = 1000.0
        clean = self.ladder(lambda r: r <= knee).capacity()
        # The last of the ten trials below the knee fails.
        outcomes = iter([True] * 9 + [False])
        lad = self.ladder(lambda r: r <= knee and next(outcomes))
        self.assertEqual(lad.passing_steps(), 9)
        self.assertAlmostEqual(lad.capacity() * 1.08 ** 0.5, clean)

    def test_ladder_with_no_pass_reads_one_rung_below(self):
        self.assertAlmostEqual(self.ladder(lambda r: False).capacity(),
                               700.0 / 1.08)

    def test_ladder_repeats(self):
        self.assertEqual(self.ladder(lambda r: r <= 1234.0).capacity(),
                         self.ladder(lambda r: r <= 1234.0).capacity())


class LayerArithmeticTest(unittest.TestCase):
    def test_self_time(self):
        self.assertAlmostEqual(bs.self_time(3.5, 2.25), 1.25)

    def test_counter_reset_is_invalid(self):
        before = {"fabric.messages": 100, "storage.shared_reads": 5}
        after = {"fabric.messages": 40, "storage.shared_reads": 9}
        deltas, invalid = bs.counter_deltas(before, after)
        self.assertEqual(invalid, ["fabric.messages"])
        self.assertEqual(deltas, {"storage.shared_reads": 4})

    def test_flatten(self):
        self.assertEqual(bs.flatten({"a": {"b": 1, "c": "x"}, "d": True,
                                     "e": 2.5}),
                         {"a.b": 1, "e": 2.5})

    def test_exact_differences(self):
        self.assertEqual(bs.exact_differences({"a": 1, "b": 2, "c": 3},
                                              {"a": 1, "b": 5, "d": 4}),
                         ["b"])


if __name__ == "__main__":
    unittest.main()
