"""Fisher evidence ledgers: combining per-fill p-values per venue.

Independent p-values are uniform under the null, so -2 * sum(log p_i) is a
chi-squared variate with 2k degrees of freedom. The survival probability of
that statistic is the combined p-value: it accumulates weak per-fill
evidence into a venue-level signalling likelihood after only a few fills.

The chi-squared survival function is evaluated in closed form (even degrees
of freedom only, the Erlang survival sum), so no special-function dependency
is needed and the result is exact to rounding.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "FisherResult",
    "EvidenceLedger",
    "LedgerEntry",
    "fisher_statistic",
    "chisq_survival_even",
    "combine",
    "ledger_update",
    "fold",
    "DEFAULT_KMAX",
    "POOLED_VENUE",
]

DEFAULT_KMAX = 5

# Key of the ledger that pools every venue's p-values.
POOLED_VENUE = "*"

# Below this x/2 the Erlang sum is accumulated in linear space; above it
# exp(-x/2) underflows and the sum moves to log space.
_LOG_SPACE_HALF_X = 700.0


@dataclass(frozen=True)
class FisherResult:
    """Fisher combination of k p-values."""

    k: int
    statistic: float
    combined_p: float


def fisher_statistic(pvalues: Sequence[float]) -> float:
    """-2 * sum(log p) over a non-empty sequence of p-values in (0, 1]."""
    if not pvalues:
        raise ValueError("cannot combine an empty p-value sequence")
    total = 0.0
    for p in pvalues:
        if not 0.0 < p <= 1.0:
            raise ValueError(f"p-value outside (0, 1]: {p}")
        total += math.log(p)
    return -2.0 * total


def chisq_survival_even(x: float, dof: int) -> float:
    """Survival probability of chi-squared with even dof at x.

    Closed form for dof = 2k: exp(-x/2) * sum_{j<k} (x/2)^j / j!, accumulated
    with a running-term recurrence. When exp(-x/2) would underflow the terms
    are summed in log space instead, so deep-tail values stay accurate.
    """
    if dof < 2 or dof % 2 != 0:
        raise ValueError(f"dof must be a positive even integer, got {dof}")
    if x < 0:
        raise ValueError(f"statistic must be >= 0, got {x}")
    k = dof // 2
    half = 0.5 * x
    if half == 0.0:
        return 1.0
    if half < _LOG_SPACE_HALF_X:
        term = math.exp(-half)
        total = term
        for j in range(1, k):
            term *= half / j
            total += term
        return min(total, 1.0)
    log_half = math.log(half)
    log_terms = [-half + j * log_half - math.lgamma(j + 1) for j in range(k)]
    peak = max(log_terms)
    if peak == -math.inf:
        return 0.0
    total = math.fsum(math.exp(t - peak) for t in log_terms)
    return min(math.exp(peak) * total, 1.0)


def combine(pvalues: Sequence[float]) -> FisherResult:
    """Fisher-combine p-values; with k = 1 this is the identity on p."""
    statistic = fisher_statistic(pvalues)
    k = len(pvalues)
    return FisherResult(k=k, statistic=statistic, combined_p=chisq_survival_even(statistic, 2 * k))


@dataclass(frozen=True)
class LedgerEntry:
    ts: int
    p: float
    result: FisherResult


class EvidenceLedger:
    """Per-venue window of the last ``k_max`` updates and their Fisher result.

    Single-writer: updates go through ledger_update. Only the most recent
    ``k_max`` entries are kept (oldest evicted), so every fill yields a fresh
    decision input and memory stays O(k_max). ``current`` is the newest
    entry's result, ``buffer`` the window's p-values and ``history`` the
    window as an immutable tuple, oldest first.
    """

    def __init__(self, venue: str, k_max: int = DEFAULT_KMAX):
        if k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {k_max}")
        self.venue = venue
        self.k_max = k_max
        self._window: deque[LedgerEntry] = deque(maxlen=k_max)
        self._updates = 0

    @property
    def current(self) -> FisherResult | None:
        return self._window[-1].result if self._window else None

    @property
    def buffer(self) -> tuple[float, ...]:
        return tuple(e.p for e in self._window)

    @property
    def history(self) -> tuple[LedgerEntry, ...]:
        return tuple(self._window)

    @property
    def updates(self) -> int:
        """Total p-values ever folded in."""
        return self._updates

    def __repr__(self) -> str:  # pragma: no cover
        return f"EvidenceLedger(venue={self.venue!r}, k_max={self.k_max}, k={len(self._window)})"


def ledger_update(ledger: EvidenceLedger, fill_ts: int, p: float) -> EvidenceLedger:
    """Fold one p-value into the ledger; recomputes the Fisher result.

    Raises on a p outside (0, 1] or a timestamp earlier than the last update.
    Returns the same ledger for chaining.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p-value outside (0, 1]: {p}")
    window = ledger._window
    if window and fill_ts < window[-1].ts:
        raise ValueError(f"timestamp regression: {fill_ts} < {window[-1].ts}")
    result = combine((*(e.p for e in window), p)[-ledger.k_max :])
    window.append(LedgerEntry(ts=fill_ts, p=p, result=result))
    ledger._updates += 1
    return ledger


def fold(
    ledgers: dict[str, EvidenceLedger], venue: str, ts: int, p: float, k_max: int = DEFAULT_KMAX
) -> list[tuple[str, LedgerEntry]]:
    """Fold one p-value into ``venue``'s ledger and the pooled ``*`` ledger.

    Either ledger is created on first use; a venue named ``*`` is the pooled
    ledger and is folded once. Returns the new (venue, entry) pairs in
    update order.
    """
    updated = []
    names = (venue,) if venue == POOLED_VENUE else (venue, POOLED_VENUE)
    for name in names:
        ledger = ledgers.get(name)
        if ledger is None:
            ledger = ledgers[name] = EvidenceLedger(name, k_max)
        ledger_update(ledger, ts, p)
        updated.append((name, ledger._window[-1]))
    return updated


def entry_to_obj(venue: str, entry: LedgerEntry, ledger: str = "signalling") -> dict:
    """Wire-format object for one ledger update (kind = "evidence")."""
    return {
        "kind": "evidence",
        "ledger": ledger,
        "venue": venue,
        "ts": entry.ts,
        "p": entry.p,
        "k": entry.result.k,
        "statistic": entry.result.statistic,
        "combined_p": entry.result.combined_p,
    }


def build_ledgers(
    scored: Iterable[tuple[str, int, float]], k_max: int = DEFAULT_KMAX
) -> dict[str, EvidenceLedger]:
    """Fold (venue, ts, p) triples into per-venue ledgers and the pooled ``*`` one."""
    ledgers: dict[str, EvidenceLedger] = {}
    for venue, ts, p in scored:
        fold(ledgers, venue, ts, p, k_max)
    return ledgers
