"""Fisher evidence ledgers: combining per-fill p-values per venue.

Independent p-values are uniform under the null, so -2 * sum(log p_i) is a
chi-squared variate with 2k degrees of freedom. The survival probability of
that statistic is the combined p-value: it accumulates weak per-fill
evidence into a venue-level signalling likelihood after only a few fills.

The chi-squared survival function is evaluated in closed form (even degrees
of freedom only, the Erlang survival sum), so no special-function dependency
is needed and the result is exact to rounding. One array kernel,
``_survivals``, evaluates it for every caller.

One fold kernel, ``fisher_fold``, combines a whole update stream at once.
``fold_columns`` feeds it each venue's ledger and the pooled ``*`` ledger,
for ``darkscope score``, and the policy replay feeds it the fills it accepts.
``ledger_update`` folds one p-value at a time into an ``EvidenceLedger``; the
tests hold both folds bit for bit to reference folds built on it, and the
survival kernel to ``tests/oracle.py``.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .options import DEFAULT_KMAX, check_count
from .tape import json_floats

__all__ = [
    "FisherResult",
    "EvidenceLedger",
    "LedgerEntry",
    "fisher_statistic",
    "chisq_survival_even",
    "combine",
    "ledger_update",
    "LedgerUpdates",
    "fisher_fold",
    "fold_columns",
    "serialize_updates",
    "POOLED_VENUE",
]

# Key of the ledger that pools every venue's p-values.
POOLED_VENUE = "*"

# Below this x/2 the Erlang sum is accumulated in linear space; above it
# exp(-x/2) underflows and the sum moves to log space.
_LOG_SPACE_HALF_X = 700.0
# Most terms _survivals holds in one matrix (8 bytes each), whatever k_max is.
_CHUNK_CELLS = 1 << 18


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
    """Survival probability of chi-squared with even dof at x (``_survivals``)."""
    if dof < 2 or dof % 2 != 0:
        raise ValueError(f"dof must be a positive even integer, got {dof}")
    if not x >= 0:
        raise ValueError(f"statistic must be >= 0, got {x}")
    return float(_survivals(np.array([0.5 * x]), np.array([dof // 2]))[0])


def _survivals(half: np.ndarray, k: np.ndarray) -> np.ndarray:
    """exp(-h) * sum_{j<k} h^j / j!, capped at 1, for each row's h = ``half`` >= 0
    and k >= 1: the survival of chi-squared with 2k dof at 2h.

    Each row's terms j < max k are one row of a matrix, summed in order. Below
    ``_LOG_SPACE_HALF_X`` they are the running products exp(-h) * (h/1) * ...
    * (h/j). Above it exp(-h) underflows, so they come from one ``math.lgamma``
    table in log space, shifted by the row's peak and masked past k before the
    exp. At most ``_CHUNK_CELLS`` terms are held at once, and a row's bits
    depend only on its own h and k.
    """
    out = np.zeros(half.size)
    width = int(k.max(initial=1))
    j = np.arange(width)
    linear = np.flatnonzero(half < _LOG_SPACE_HALF_X)
    deep = np.flatnonzero((half >= _LOG_SPACE_HALF_X) & (half < math.inf))  # h = inf stays 0
    lgammas = np.array([math.lgamma(i + 1) for i in range(width)]) if deep.size else None
    step = _CHUNK_CELLS // width
    for rows in (r[i : i + step] for r in (linear, deep) for i in range(0, r.size, step)):
        h, kk = half[rows], k[rows]
        if h[0] < _LOG_SPACE_HALF_X:  # a chunk holds linear or log-space rows, not both
            terms = np.empty((rows.size, width))
            terms[:, 0] = list(map(math.exp, (-h).tolist()))
            np.divide(h[:, None], j[1:], out=terms[:, 1:])
            np.cumprod(terms, axis=1, out=terms)
            scale = 1.0
        else:
            terms = -h[:, None] + j * np.array(list(map(math.log, h.tolist())))[:, None] - lgammas
            terms[j >= kk[:, None]] = -math.inf
            peak = terms.max(axis=1)
            terms -= peak[:, None]
            np.exp(terms, out=terms)
            scale = np.array(list(map(math.exp, peak.tolist())))
        sums = np.cumsum(terms, axis=1, out=terms)[np.arange(rows.size), kk - 1]
        out[rows] = np.minimum(scale * sums, 1.0)
    return out


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
    entry's result and ``history`` the window as an immutable tuple, oldest
    first.
    """

    def __init__(self, venue: str, k_max: int = DEFAULT_KMAX):
        check_count("k_max", k_max, "MAX_KMAX")
        self.venue = venue
        self.k_max = k_max
        self._window: deque[LedgerEntry] = deque(maxlen=k_max)
        self._updates = 0

    @property
    def current(self) -> FisherResult | None:
        return self._window[-1].result if self._window else None

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


@dataclass(frozen=True, eq=False)
class LedgerUpdates:
    """Ledger updates as columns, one row per update in update order.

    ``ledger`` holds codes into ``names``; ``source`` is the input row each
    update folds; ``k``, ``statistic`` and ``combined_p`` are the update's
    Fisher result over the ledger's last ``k_max`` p-values.
    """

    names: tuple[str, ...]
    ledger: np.ndarray
    source: np.ndarray
    ts: np.ndarray
    p: np.ndarray
    k: np.ndarray
    statistic: np.ndarray
    combined_p: np.ndarray


def fold_columns(
    venue: np.ndarray,
    names: Sequence[str],
    ts: np.ndarray,
    p: np.ndarray,
    k_max: int = DEFAULT_KMAX,
) -> LedgerUpdates:
    """Fold a whole stream at once: each (venue, ts, p) row, in order, into
    the venue's ledger and then the pooled ``*`` ledger.

    ``venue`` holds codes into ``names`` (-1 is the last name). A venue named
    ``*`` is the pooled ledger and is folded once. ``fisher_fold`` computes
    the updates and raises on the inputs ``ledger_update`` rejects.
    """
    table: dict[str, int] = {}
    code = np.array([table.setdefault(name, len(table)) for name in names], dtype=np.intp)
    pool = table.setdefault(POOLED_VENUE, len(table))
    own = code[np.asarray(venue, dtype=np.intp)]
    twice = own != pool
    count = 1 + twice
    source = np.repeat(np.arange(own.size), count)
    ledger = np.full(source.size, pool, dtype=np.intp)
    ledger[np.cumsum(count) - count] = own
    ts = np.asarray(ts, dtype=np.int64)[source]
    p = np.asarray(p, dtype=np.float64)[source]
    k, statistic, combined_p = fisher_fold(ledger, ts, p, k_max)
    return LedgerUpdates(
        names=tuple(table),
        ledger=ledger,
        source=source,
        ts=ts,
        p=p,
        k=k,
        statistic=statistic,
        combined_p=combined_p,
    )


def fisher_fold(
    ledger: np.ndarray, ts: np.ndarray, p: np.ndarray, k_max: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(k, statistic, combined_p) of each update of an update stream.

    Row i folds ``p[i]`` at ``ts[i]`` into the ledger coded ``ledger[i]``.
    Every result is bit-identical to ``ledger_update``'s on that ledger, and
    the same inputs raise the same ``ValueError``: a p outside (0, 1], a
    timestamp earlier than the ledger's last one, or ``k_max`` outside [1,
    ``MAX_KMAX``]. Works on the stream grouped by ledger, each group in
    update order. The statistic sums log p over the last ``k_max`` updates
    of the ledger, oldest first, from 0.0, as ``fisher_statistic`` does;
    slots before a ledger's first update add 0.0 first, which changes no
    bit; ``math`` does the log. The survival is ``_survivals``.
    """
    check_count("k_max", k_max, "MAX_KMAX")
    m = ledger.size
    if m == 0:
        return np.empty(0, dtype=np.int64), np.empty(0), np.empty(0)
    order = np.argsort(ledger, kind="stable")
    grouped = ledger[order]
    starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
    pos = np.arange(m) - np.repeat(starts, np.diff(np.r_[starts, m]))
    _check_stream(order, pos, ts, p)

    log_p = np.array(list(map(math.log, p[order].tolist())), dtype=np.float64)
    lags = min(k_max, int(pos.max()) + 1)
    total = np.zeros(m)
    for lag in range(lags - 1, -1, -1):
        total += np.where(pos >= lag, log_p[np.maximum(np.arange(m) - lag, 0)], 0.0)
    statistic = -2.0 * total
    k = np.minimum(pos + 1, k_max)

    out = (np.empty(m, dtype=np.int64), np.empty(m), np.empty(m))
    for column, grouped_values in zip(out, (k, statistic, _survivals(0.5 * statistic, k))):
        column[order] = grouped_values
    return out


def _check_stream(order: np.ndarray, pos: np.ndarray, ts: np.ndarray, p: np.ndarray) -> None:
    """Raise ``ledger_update``'s error for the first update it would reject."""
    bad_p = np.flatnonzero(~((p > 0.0) & (p <= 1.0)))
    ts_grouped = ts[order]
    back = np.flatnonzero((pos[1:] > 0) & (ts_grouped[1:] < ts_grouped[:-1])) + 1
    first_back = int(order[back].min()) if back.size else ts.size
    if bad_p.size and bad_p[0] <= first_back:
        raise ValueError(f"p-value outside (0, 1]: {float(p[bad_p[0]])}")
    if back.size:
        j = back[np.argmin(order[back])]
        raise ValueError(f"timestamp regression: {int(ts_grouped[j])} < {int(ts_grouped[j - 1])}")


def serialize_updates(updates: LedgerUpdates, ledger: str = "signalling") -> Iterator[str]:
    """Yield one wire line per update, in update order.

    Each line is ``json.dumps`` of the update's "evidence" object (ledger,
    venue, ts, p, k, statistic and combined_p), formatted from the columns
    with every string JSON-encoded once.
    """
    head = f'{{"kind": "evidence", "ledger": {json.dumps(ledger)}, "venue": '
    venues = [head + json.dumps(name) for name in updates.names]
    for code, ts, p, k, statistic, combined_p in zip(
        updates.ledger.tolist(),
        updates.ts.tolist(),
        json_floats(updates.p),
        updates.k.tolist(),
        json_floats(updates.statistic),
        json_floats(updates.combined_p),
    ):
        yield (
            f'{venues[code]}, "ts": {ts}, "p": {p}, "k": {k}, '
            f'"statistic": {statistic}, "combined_p": {combined_p}}}'
        )

