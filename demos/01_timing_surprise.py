"""
Scoring the timing of lit prints after a dark fill
==================================================

A dark fill should not be followed by lit-market prints any faster than the
background trading rate. This script walks the surprise p-value that
quantifies "any faster": the probability of seeing a duration at most this
short, predicted from the last n observed lit durations with the unknown
trade rate integrated out.
"""

import math

import numpy as np

from darkscope.surprise import fill_pvalue, predictive_cdf

S = 1_000_000_000  # nanoseconds per second

# ---------------------------------------------------------------------------
# A window: the last ten durations between lit prints arriving roughly once
# a second, summarised by their count n and mean m (seconds per trade).

rng = np.random.default_rng(0)
ts = np.cumsum((rng.exponential(1.0, size=11) * S).astype(np.int64))
durations = np.diff(ts) * 1e-9
n, mean = durations.size, float(durations.mean())

print(f"window holds n={n} durations, mean {mean:.3f} s/trade")

# ---------------------------------------------------------------------------
# A lit print 10 ms after our fill, against ~1 print per second, is a
# once-in-a-hundred event. Half a second later is unremarkable.

for wait in (0.010, 0.100, 0.500, 2.0):
    print(f"  wait {wait*1000:7.1f} ms  ->  p = {fill_pvalue(wait, n, mean):.5f}")

# ---------------------------------------------------------------------------
# The naive route plugs the window mean into an exponential law. That
# ignores how noisy a 10-trade estimate is; the predictive distribution
# prices the estimator noise in and has heavier tails.

print("\nplug-in vs predictive, duration = one mean duration:")
print(f"  plug-in    {-math.expm1(-mean / mean):.4f}  (1 - 1/e)")
print(f"  predictive {predictive_cdf(mean, n, mean):.4f}  (heavier tail)")

# ---------------------------------------------------------------------------
# Why the predictive form matters: when fills are innocent, its p-values are
# exactly uniform for any window size, so thresholds mean what they say.
# Simulate innocent fills against a Poisson lit stream and look at the
# sub-0.05 rate.

lit_times = np.cumsum(rng.exponential(1.0, size=60_000))
hits = 0
trials = 20_000
probe_times = rng.uniform(20.0, lit_times[-1] - 20.0, size=trials)
for probe in probe_times:
    i = np.searchsorted(lit_times, probe)
    wait = lit_times[i] - probe
    window = np.diff(lit_times[i - n - 1 : i])
    hits += fill_pvalue(wait, n, float(window.mean())) < 0.05

print(f"\ninnocent fills flagged at the 5% level: {hits / trials:.4f} (want ~0.05)")
