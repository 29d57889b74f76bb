"""
Why slippage alone reacts too slowly
====================================

Post-fill slippage is the usual toxicity yardstick, but detecting a mean
slippage mu against per-fill return noise sigma needs at least (sigma/mu)^2
fills. At realistic magnitudes that is hundreds of fills - far too many to
steer an order that is leaking *now*.
"""

import numpy as np

from darkscope import PricePath, SlippageConfig, empirical_crossing, min_fills_bound
from darkscope.slippage import fill_slippages

S = 1_000_000_000

# ---------------------------------------------------------------------------
# The slippage of one fill: signed log-mid move over a 5 s horizon, in bp.
# fill_slippages takes fill columns: ts in ns, side +1 (buy) or -1 (sell),
# and the mid at the fill (NaN where the tape has none).

path = PricePath(
    np.array([0, 3 * S, 20 * S]),
    np.log(np.array([100.00, 100.01, 100.01])),
)
cfg = SlippageConfig(tau=5.0)
(buy_bp, sell_bp), _ = fill_slippages(
    np.array([1 * S, 1 * S]), np.array([1, -1], dtype=np.int8), np.array([100.0, 100.0]), path, cfg
)
print(f"buy fill, mid 100.00 -> 100.01 within tau: {buy_bp:+.2f} bp")
print(f"sell fill, same path:                      {sell_bp:+.2f} bp")

# ---------------------------------------------------------------------------
# The detectability bound. Typical magnitudes: 0.5 bp of impact per fill
# against 12 bp of return noise at the per-fill horizon.

mu, sigma = 0.5, 12.0
bound = min_fills_bound(mu, sigma)
print(f"\nfills needed for a t=1 signal at mu={mu}, sigma={sigma}: T = {bound:g}")
print(f"half the signal, four times the wait:      {min_fills_bound(mu / 2, sigma):g}")

# ---------------------------------------------------------------------------
# Watch the bound bite: at T fills the t-statistic sits near 1; a t=2
# detection arrives near 4T. The crossing is read off the pointwise median
# of running-t trajectories over 200 seeds.

rng = np.random.default_rng(1)
sample = rng.normal(mu, sigma, size=int(bound))
t_at_bound = sample.mean() * np.sqrt(len(sample)) / sample.std(ddof=1)
print(f"\nrunning t after T={bound:g} drifting fills (one seed): {t_at_bound:.2f}")

crossing = empirical_crossing(mu, sigma, seeds=200, seed=5, t_target=2.0)
print(f"median t=2 crossing over 200 seeds: {crossing} fills (4T = {4 * bound:g})")
print("conclusion: slippage confirms leakage only after ~2,000+ fills;")
print("timing evidence (demos 01-02) flags it within a handful.")

# ---------------------------------------------------------------------------
# The mean slippage of a batch of fills on a shared path, with its t-stat.

rng = np.random.default_rng(7)
steps = rng.normal(0.0, 3e-4, size=2_000)
walk = np.concatenate(([np.log(100.0)], np.log(100.0) + np.cumsum(steps)))
path = PricePath((np.arange(2_001) * S).astype(np.int64), walk)
ts = np.arange(10, 1_500, 3) * S
side = np.array([1 if rng.integers(2) else -1 for _ in ts], dtype=np.int8)  # one draw per fill
values, covered = fill_slippages(ts, side, np.full(ts.size, np.nan), path, cfg)
sample = values[covered]
t = sample.mean() * np.sqrt(sample.size) / sample.std(ddof=1)
print(f"\ndriftless tape, {sample.size} fills: mean {sample.mean():+.3f} bp, t = {t:+.2f}")
print("(no drift, no signal - as it should be)")
