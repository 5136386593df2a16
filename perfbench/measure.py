"""Timing helpers: the reference loop behind the `cal` unit, the tail
percentile rule, the log-log slope and the largest-size median."""
from __future__ import annotations

import bisect
import math
import statistics
import time

# Fixed reference work. One `cal` is the time REF_ROUNDS rounds of this
# loop take on the host, sampled while the work it normalizes runs, so
# slow and fast phases of a drifting host cancel out. It mimics the
# library's hot path (tuple unpacking, float arithmetic and calls of small
# Python functions) and must never change, or cal figures stop being
# comparable across commits.
_REF_PTS = [((i * 0.6180339887) % 1.0, (i * 0.3819660113) % 1.0)
            for i in range(64)]
REF_ROUNDS = 1000      # one cal
NOMINAL_CAL_S = 0.020  # one cal on the 2-CPU host the bounds were set on
PROBE_ROUNDS = 50      # one probe, ~1 ms
MIN_PROBES = 5


def _orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def reference_work(rounds: int) -> float:
    acc = 0.0
    pts = _REF_PTS
    for _ in range(rounds):
        for i in range(len(pts) - 2):
            acc += _orient(pts[i], pts[i + 1], pts[i + 2])
    return acc


def calibrate(rounds: int = REF_ROUNDS) -> float:
    """Seconds one cal lasts right now, measured over `rounds` rounds."""
    t0 = time.perf_counter()
    reference_work(rounds)
    return (time.perf_counter() - t0) * REF_ROUNDS / rounds


def op_cal(probe_t, probe_cal, t0: float, t1: float) -> float:
    """Cal of an op that ran from t0 to t1: the harmonic mean of the
    probes taken during it (the op's work in cal is then its time times
    the mean probe speed), or of the MIN_PROBES probes nearest to it when
    it was too short to hold that many. probe_t is sorted."""
    i, j = bisect.bisect_left(probe_t, t0), bisect.bisect_right(probe_t, t1)
    idx = range(i, j)
    if j - i < MIN_PROBES:
        mid = 0.5 * (t0 + t1)
        near = range(max(0, i - MIN_PROBES), min(len(probe_t), j + MIN_PROBES))
        idx = sorted(near, key=lambda k: abs(probe_t[k] - mid))[:MIN_PROBES]
    return len(idx) / sum(1.0 / probe_cal[k] for k in idx)


TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values, p: float, steps: int = 32) -> float:
    """Harrell-Davis estimate of the p-th percentile (0 < p < 100): a
    weighted mean of all order statistics, with the weights of the
    Beta(p(n+1), (1-p)(n+1)) distribution over the n rank intervals,
    integrated by the midpoint rule. With a few heterogeneous samples the
    plain median jumps whenever two ops near the middle swap ranks; this
    estimate moves smoothly instead."""
    xs = sorted(values)
    n = len(xs)
    a, b = p / 100.0 * (n + 1), (1 - p / 100.0) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    h = 1.0 / (n * steps)
    weights = [sum(math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
                            - log_beta)
                   for x in ((i * steps + k + 0.5) * h for k in range(steps)))
               for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def above(n: int, p: float) -> int:
    """Samples of n ranked strictly above the p-th percentile."""
    return n - 1 - math.floor((n - 1) * p / 100.0)


def tail_percentile(n: int) -> float:
    """Highest percentile of TAIL_LADDER with at least 10 of n samples
    ranked above it; never below the median, so a run of fewer than 20
    samples reports its p50 as the tail."""
    for p in TAIL_LADDER:
        if above(n, p) >= 10:
            return p
    return 50.0


def loglog_slope(sizes, values) -> float:
    """Least-squares slope of log(value) against log(size)."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(v) for v in values]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    den = sum((x - mx) ** 2 for x in xs)
    if den == 0:
        raise ValueError("slope needs at least two distinct sizes")
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den


def largest(sizes, values, frac: float = 0.75):
    """(median, count) of the values whose size is at least frac times
    the largest size."""
    top = [v for s, v in zip(sizes, values) if s >= frac * max(sizes)]
    return statistics.median(top), len(top)
