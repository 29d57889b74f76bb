"""Every command option's default and cap, and the preset scenarios.

It imports nothing, not numpy, the standard library or another darkscope module, so
that the command-line parser reads it and ``darkscope --help`` loads no numpy. The
modules that take these options import them from here.
"""

DEFAULT_WINDOW_SIZE = 10  # lit durations in surprise.score_columns' window
# Largest window score_columns takes: each fill's window mean sums up to
# window_size durations, so the work grows as fills x window_size.
MAX_WINDOW = 10_000
# Forward lookahead horizon, in units of the window mean. Censored mass under
# the null is (n / (n + 50))^n: 2% at n = 1, 1.6e-8 at the default n = 10.
DEFAULT_HORIZON_MULT = 50.0
DEFAULT_KMAX = 5  # p-values each venue's Fisher ledger (evidence.EvidenceLedger) combines
# Largest k_max a ledger takes: evidence.fisher_fold, the fold of score and backtest,
# makes k_max numpy passes over the update stream and its survival is numpy work of
# O(k_max) per update; ledger_update sums the whole window's log p in Python.
MAX_KMAX = 1_000
# p-value below which the policy acts on a venue and report counts a fill as signalling.
DEFAULT_ALPHA = 0.05
DEFAULT_TAU = 5.0  # slippage horizon, seconds
# p-value buckets of slippage.bucket_rows, and the most it takes: it allocates each one.
DEFAULT_BUCKETS = 10
MAX_BUCKETS = 10_000
DEFAULT_THRESHOLDS = "0,5000,10000,15000,20000,25000,30000,35000,40000,45000"
# Seeds power.empirical_crossing walks, and the most it walks: each keeps
# a generator and its block of draws, about 48 kB per seed.
DEFAULT_CROSSING_SEEDS = 200
MAX_CROSSING_SEEDS = 1_000
DEFAULT_T_TARGET = 2.0


def check_count(name: str, value: int, cap: str) -> None:
    """Raise ValueError unless 1 <= ``value`` <= the constant named ``cap``."""
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    if value > globals()[cap]:
        raise ValueError(f"{name} must be <= {cap} = {globals()[cap]}, got {value}")


def check_alpha(alpha: float) -> None:
    """Raise ValueError unless 0 < ``alpha`` < 1."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


# The canonical scenarios as simulator.parse_scenario text over the Scenario
# defaults: a 1 s lit stream, 0.05 fills/s on the one venue DARK1, 3 bp per
# trade, ~10 ms leak latency, no pathology. simulator.preset names and seeds them.
PRESETS = {
    # clean tape: no leakage, no sweeps, no latency, no drift
    "null": "duration=12000\ndark_fill_rate=1\n",
    # leak_prob 0.5 with ~10 ms latency against a 1 s lit stream (mean lit
    # duration / 100) and 1.5 bp impact per leaked print; clip sizes cluster
    # small (log sigma 0.6) so a raised fill floor acts as an effective stop
    "leaky": "duration=4000\nfills_per_order=15\nprice.leak_impact=1.5\n"
             "venue.DARK1.leak_prob=0.5\nvenue.DARK1.size_log_sigma=0.6\n",
    # sweep_prob 0.4, prints at a fixed 1 ms
    "sweep": "duration=4000\nfills_per_order=15\nprice.leak_impact=1.5\nvenue.DARK1.sweep_prob=0.4\n",
    # latent_prob 0.4, fills re-timed to 1 ms after a lit print
    "latent": "duration=4000\nvenue.DARK1.latent_prob=0.4\n",
    # no leakage, 0.05 bp/s drift: slippage without causation
    "competing": "duration=4000\nfills_per_order=15\nprice.competing_drift=0.05\n"
                 "venue.DARK1.size_log_sigma=0.6\n",
    # leak_prob 0.5 up to a £30,000 notional knee, 0.16 above it; lognormal sizes
    # (median ≈ £6,800) put ~7% of fills past the knee, so the unrestricted
    # signalling share sits near 50% and the above-knee share near 20%
    "size_knee": "duration=20000\ndark_fill_rate=0.1\nprice.leak_impact=1.5\nvenue.DARK1.leak_prob=0.5\n"
                 "venue.DARK1.size_leak_knee=30000\nvenue.DARK1.leak_prob_large=0.16\n",
}
