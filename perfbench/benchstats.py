"""Arithmetic of the benchmark, kept apart from process handling so that
test_benchstats.py can check it: percentile choice, the interquartile
mean, backlog detection, the capacity ladder, self times, counter deltas and the
determinism comparison."""

import math
import statistics

# Percentiles the driver reports for every sample set, lowest first.
LADDER = (("p50", 50.0), ("p90", 90.0), ("p99", 99.0), ("p99_9", 99.9),
          ("p99_99", 99.99))


def value(x):
    """A latency from the driver; null marks a failed request (+inf)."""
    return math.inf if x is None else float(x)


def ladder(samples):
    """The driver's percentile ladder, by nearest rank, for samples taken
    here rather than in the driver."""
    samples = sorted(samples)
    out = {"n": len(samples)}
    for name, p in LADDER:
        rank = math.ceil(p / 100.0 * len(samples))
        out[name] = samples[min(max(rank, 1), len(samples)) - 1] \
            if samples else 0.0
    out["max"] = samples[-1] if samples else 0.0
    return out


def tail_percentile(ladder):
    """(name, value) of the highest ladder percentile with at least ten
    samples beyond it, or the median when there are too few samples."""
    n = ladder["n"]
    best = LADDER[0]
    for name, p in LADDER:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            best = (name, p)
    return best[0], value(ladder[best[0]])


def median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def interquartile_mean(values):
    """Mean of the values between the first and third quartiles (the
    middle half, by rank). Outliers do not move it, and when timings mix
    a fast and a slow state it moves smoothly with the share of each,
    where a median jumps from one state to the other."""
    values = sorted(values)
    n = len(values)
    if n == 0:
        return 0.0
    lo, hi = n // 4, n - n // 4
    return statistics.fmean(values[lo:hi])


def share(n, k, parts):
    """Items of part k when n items are split into `parts` near-equal
    consecutive parts."""
    return n * (k + 1) // parts - n * k // parts


def backlog_grew(phase, slo_us):
    """True when the phase fell behind its schedule: requests were never
    sent, or the median start lag of the last window exceeds that of the
    first by more than the latency limit."""
    if phase["unsent"] > 0:
        return True
    windows = phase["windows"]
    first = value(windows[0]["lag_p50"])
    last = value(windows[-1]["lag_p50"])
    return last - first > slo_us


def step_passes(phase, slo_us):
    """A capacity step passes when the p99 of its requests' service times
    meets the limit, its median request, timed from its due time, meets the
    limit too, and its backlog did not grow. Failed requests count as
    missing the limit. Past the knee the median request waits behind a
    standing queue and fails the step; below it a host stall holds up fewer
    than half the requests and does not."""
    return value(phase["svc"]["p99"]) <= slo_us and \
        value(phase["lat"]["p50"]) <= slo_us and \
        not backlog_grew(phase, slo_us)


class CapacityLadder:
    """Capacity from a fixed ladder of `rungs` rates, `lowest` × growth^i.
    Each rung runs `trials` times; each round of trials makes two ascending
    passes over alternate rungs, so a drift of the host does not follow the
    rate. The caller runs each step at `rate` and reports it through
    record(), so steps can be spread over a run. The capacity counts
    passing steps: with s of them it is lowest × growth^(s/trials - 1), the
    highest passing rung when every trial passes below the knee and fails
    above it. A stray outcome moves the result by 1/trials of a rung, where
    a bisection would follow it to another part of the ladder, and near the
    knee the result follows the share of passing trials smoothly, where the
    highest passing rung jumps. With no passing step the same count gives
    lowest / growth, one rung below the ladder."""

    def __init__(self, lowest, growth=1.08, rungs=10, trials=2):
        self.lowest, self.growth, self.trials = lowest, growth, trials
        self.rates = [lowest * growth ** i for i in range(rungs)]
        self.order = sorted(range(rungs), key=lambda i: (i % 2, i)) * trials
        self.steps = []

    @property
    def done(self):
        return len(self.steps) == len(self.order)

    @property
    def rate(self):
        return self.rates[self.order[len(self.steps)]]

    def record(self, ok):
        self.steps.append((self.rate, ok))

    def passing_steps(self):
        return sum(ok for _, ok in self.steps)

    def capacity(self):
        return self.lowest * self.growth ** (
            self.passing_steps() / self.trials - 1)


def self_time(span_us, below_us):
    """A layer's self time: its span minus the span one layer below."""
    return span_us - below_us


def counter_deltas(before, after):
    """Per-key after - before over two flat counter dicts. Keys whose
    counter went backwards (an engine reset the meter mid-run) are
    returned in `invalid` instead of as a delta."""
    deltas, invalid = {}, []
    for key, end in after.items():
        start = before.get(key, 0)
        if end < start:
            invalid.append(key)
        else:
            deltas[key] = end - start
    return deltas, invalid


def flatten(tree, prefix=""):
    """{"a": {"b": 1}} -> {"a.b": 1}, numbers only."""
    out = {}
    for key, v in tree.items():
        name = prefix + key
        if isinstance(v, dict):
            out.update(flatten(v, name + "."))
        elif isinstance(v, (int, float)) and not isinstance(v, bool):
            out[name] = v
    return out


def exact_differences(previous, current):
    """Names of exact counters whose values differ between two runs of the
    same seed; counters only one side recorded are skipped."""
    return sorted(k for k in current
                  if k in previous and previous[k] != current[k])


def safe_ratio(num, den):
    return num / den if den else 0.0
