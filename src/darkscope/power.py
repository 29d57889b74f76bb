"""How many fills slippage needs: the detectability bound and its crossing.

Detecting a mean slippage mu against return noise sigma with a t-test
(t = mean * sqrt(k) / std over k fills) needs at least (sigma/mu)^2 fills,
the 1/Sharpe^2 bound; ``empirical_crossing`` finds the fill count where the
seed-median running t-statistic reaches a target, to show the bound at work
on simulated drift.

This module imports numpy and ``options`` alone, so that ``power`` loads
neither the tape nor the slippage reports; ``slippage`` re-exports its names.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .options import DEFAULT_CROSSING_SEEDS, DEFAULT_T_TARGET, check_count

__all__ = ["min_fills_bound", "empirical_crossing", "seed_median", "MAX_CROSSING_FILLS"]

# Fills per block in empirical_crossing's early-stopping walk.
_CROSSING_BLOCK = 512
# The longest walk empirical_crossing takes, in fills per seed: 200 seeds
# walk 10**6 fills in about 15 s on a 2-vCPU VM.
MAX_CROSSING_FILLS = 10**6


def min_fills_bound(mu: float, sigma: float) -> float:
    """Minimum fills to detect mean slippage mu against noise sigma.

    (sigma/mu)^2, the 1/Sharpe^2 bound; infinite when mu = 0. Half the signal
    costs four times the fills. Raises on a non-finite mu or sigma, on
    sigma <= 0 and on a bound too large for a float.
    """
    if not math.isfinite(mu):
        raise ValueError(f"mu must be finite, got {mu}")
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    if not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma}")
    if mu == 0:
        return math.inf
    ratio = sigma / mu
    if not abs(ratio) < math.sqrt(sys.float_info.max):
        raise ValueError(f"the bound (sigma/mu)^2 overflows a float at mu = {mu}, sigma = {sigma}")
    return ratio**2


def seed_median(t: np.ndarray) -> np.ndarray:
    """The median of each column of the 2-d float array ``t`` over its rows.

    Bit for bit ``np.median(t, axis=0)``, by its own steps, which load no
    ``numpy.ma``: one partition at the same positions; the mean of the middle
    value (odd row count) or the two middle values (even), summed as
    ``np.mean`` sums, from 0.0, so a -0.0 median is 0.0; and NaN, the largest
    value, where a column holds one.
    """
    n = t.shape[0]
    part = np.partition(t, [*range((n - 1) // 2, n // 2 + 1), -1], axis=0)
    middle = part[(n - 1) // 2 : n // 2 + 1]
    med = np.add.reduce(middle, axis=0) / len(middle)
    return np.where(np.isnan(part[-1]), part[-1], med)


def empirical_crossing(
    mu: float,
    sigma: float,
    seeds: int = DEFAULT_CROSSING_SEEDS,
    seed: int = 0,
    t_target: float = DEFAULT_T_TARGET,
    max_fills: int | None = None,
) -> int:
    """Fill count where the seed-median running t-statistic reaches t_target.

    Each seed draws i.i.d. per-fill slippages Normal(mu, sigma^2); the running
    t = mean * sqrt(k) / std trajectories are combined by pointwise median
    across seeds. A single trajectory first-passes the target far too early by
    chance, and the pointwise mean is wrecked by the infinite-variance t
    values at tiny k; the median trajectory tracks mu * sqrt(k) / sigma and
    crosses near (t_target * sigma / mu)^2. Returns max_fills when it never
    crosses; max_fills defaults to 16 * t_target^2 * bound, but at least 2
    (t is 0 at the first fill), and may not exceed ``MAX_CROSSING_FILLS``.

    The trajectories are built a block of fills at a time and the walk stops
    at the first crossing. Each seed's generator stays alive across blocks,
    so a block continues the same stream, and the running sums carry over as
    the first term of the next block's cumsum; both are sequential, so the
    result equals that of one draw of max_fills per seed. The median is
    taken only on the fills where at least half the seeds (rounded up) have
    t >= t_target, or t <= -t_target: no other median reaches |t_target|,
    since rounding is monotone, so a <= (a + b) / 2 <= b for a <= b unless
    a + b overflows, and a finite t stays below about sqrt(k / eps) < 1e12
    (var, when not 0, is at least about eps * mean^2).

    Raises on seeds outside [1, ``MAX_CROSSING_SEEDS``], a negative seed, a
    t_target that is not finite and > 0, a max_fills above the cap (each
    checked before any draw), and what min_fills_bound rejects.
    """
    check_count("seeds", seeds, "MAX_CROSSING_SEEDS")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not math.isfinite(t_target):
        raise ValueError(f"t_target must be finite, got {t_target}")
    if t_target <= 0:
        raise ValueError(f"t_target must be > 0, got {t_target}")
    if sigma <= 0 or mu == 0:
        raise ValueError("need sigma > 0 and mu != 0 for a finite crossing")
    bound = min_fills_bound(mu, sigma)
    if max_fills is None:
        fills = 16 * t_target * t_target * bound  # inf, not OverflowError, past the float range
        if not fills <= MAX_CROSSING_FILLS:
            raise ValueError(
                f"the walk to t_target = {t_target:g} needs 16 * t_target^2 * (sigma/mu)^2 = "
                f"{fills:g} fills, more than MAX_CROSSING_FILLS = {MAX_CROSSING_FILLS:g}"
            )
        max_fills = max(int(fills), 2)
    elif max_fills > MAX_CROSSING_FILLS:
        raise ValueError(
            f"max_fills must be at most MAX_CROSSING_FILLS = {MAX_CROSSING_FILLS:g}, got {max_fills}"
        )
    rngs = [np.random.Generator(np.random.Philox(child))
            for child in np.random.SeedSequence(seed).spawn(seeds)]
    # Per seed, the running sums of x and of x * x over a block, with the
    # sums so far in column 0 (the last column of the block before).
    sums = np.zeros((2, seeds, _CROSSING_BLOCK + 1))
    half = seeds - seeds // 2
    for start in range(0, max_fills, _CROSSING_BLOCK):
        stop = min(start + _CROSSING_BLOCK, max_fills)
        block = sums[:, :, : stop - start + 1]
        block[:, :, 0] = sums[:, :, -1]
        for row, rng in zip(block[0], rngs):
            row[1:] = rng.normal(mu, sigma, size=stop - start)
        np.multiply(block[0, :, 1:], block[0, :, 1:], out=block[1, :, 1:])
        np.cumsum(block, axis=2, out=block)
        csum, csum2 = block[:, :, 1:]
        k = np.arange(start + 1, stop + 1, dtype=np.float64)
        mean = csum / k
        var = (csum2 - k * mean**2) / np.maximum(k - 1, 1)
        with np.errstate(invalid="ignore", divide="ignore"):
            t = mean * np.sqrt(k) / np.sqrt(var)
        if start == 0:
            t[:, 0] = 0.0
        near = np.flatnonzero(((t >= t_target).sum(axis=0) >= half) | ((t <= -t_target).sum(axis=0) >= half))
        if near.size:
            hits = near[np.abs(seed_median(t[:, near])) >= t_target]
            if hits.size:
                return int(start + hits[0] + 1)
    return max_fills
