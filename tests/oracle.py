"""Scalar reference implementations that the tests hold the library to.

``darkscope`` computes each statistic and wire format once, as array kernels
over the tape's columns. This module keeps the one-at-a-time form of each,
written independently of the kernels, for the tests to compare with ``==``:
the surprise scorer (one lit print folded in and one fill scored at a time,
with its own copy of the p-value formula), the JSON objects that the
``serialize_*`` functions format as text, the ledger ``fold``,
``post_fill_slippage`` and the slippage-by-p-value loop. It also builds tapes
from ``TapeEvent`` rows (``tape_from_events``) for the tests to write tapes
row by row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

from darkscope.evidence import POOLED_VENUE, EvidenceLedger, LedgerEntry, ledger_update
from darkscope.slippage import BP, BucketRow, CensoredFillError, PricePath, SlippageConfig
from darkscope.surprise import DEFAULT_HORIZON_MULT, MIN_DURATION_S, MIN_PVALUE, SurpriseRecord
from darkscope.tape import DURATION_FLOOR_NS, SIDE_OF_SIGN, EventKind, Side, Tape, TapeEvent

_NS = 1e-9


def tape_from_events(symbol: str, events: Iterable[TapeEvent], meta: dict[str, Any] | None = None) -> Tape:
    """Columns from TapeEvent rows, kept in the given order.

    Raises ValueError on an event of another symbol; nothing else is checked.
    """
    events = list(events)
    for e in events:
        if e.symbol != symbol:
            raise ValueError(f"event symbol '{e.symbol}' != tape symbol '{symbol}'")
    names: dict[str, int] = {}
    return Tape(
        symbol=symbol,
        ts=np.array([e.ts for e in events], dtype=np.int64),
        is_lit=np.array([e.kind is EventKind.LIT for e in events], dtype=bool),
        price=np.array([e.price for e in events], dtype=np.float64),
        size=np.array([e.size for e in events], dtype=np.float64),
        side=np.array([e.side.sign for e in events], dtype=np.int8),
        venue=np.array(
            [-1 if e.venue is None else names.setdefault(e.venue, len(names)) for e in events],
            dtype=np.int32,
        ),
        venues=tuple(names),
        mid=np.array([np.nan if e.mid is None else e.mid for e in events], dtype=np.float64),
        own=np.array([-1 if e.own is None else int(e.own) for e in events], dtype=np.int8),
        truth={i: e.truth for i, e in enumerate(events) if e.truth is not None},
        meta=dict(meta or {}),
    )


# ---------------------------------------------------------------------------
# Surprise scoring


@dataclass(frozen=True)
class DurationWindow:
    """Rolling buffer of the last lit-print durations (seconds).

    ``capacity`` bounds the buffer; ``n`` is the retained count; ``mean`` is
    the arithmetic mean, the ML scale estimate (seconds per trade).
    ``last_ts`` is the previous lit print's timestamp.
    """

    capacity: int
    durations: tuple[float, ...] = ()
    last_ts: int | None = None

    @property
    def n(self) -> int:
        return len(self.durations)

    @property
    def mean(self) -> float:
        return math.fsum(self.durations) / len(self.durations)

    def primed(self) -> bool:
        return bool(self.durations)


def update_window(window: DurationWindow, lit_event_ts: int) -> DurationWindow:
    """Fold one lit print into the window; returns the updated window.

    The first print only anchors the clock. Later prints append the duration
    since the previous one (floored at the 1 ns tape floor), evicting the
    oldest entry beyond capacity. Raises on a decreasing timestamp.
    """
    if window.last_ts is None:
        return DurationWindow(window.capacity, window.durations, lit_event_ts)
    if lit_event_ts < window.last_ts:
        raise ValueError(f"non-monotone lit timestamp: {lit_event_ts} < {window.last_ts}")
    duration = max(lit_event_ts - window.last_ts, DURATION_FLOOR_NS) * _NS
    durations = window.durations + (duration,)
    if len(durations) > window.capacity:
        durations = durations[-window.capacity :]
    return DurationWindow(window.capacity, durations, lit_event_ts)


def exponential_cdf(delta: float, lam: float) -> float:
    """P(duration <= delta) under Exponential with mean ``lam`` seconds."""
    if lam <= 0:
        raise ValueError(f"scale must be > 0, got {lam}")
    if delta < 0:
        raise ValueError(f"duration must be >= 0, got {delta}")
    return -math.expm1(-delta / lam)


def predictive_density(delta: float, window: DurationWindow) -> float:
    """Predictive density (1/seconds) of the next duration at ``delta``."""
    n = window.n
    m = window.mean
    # n^(n+1) m^n / (n m + d)^(n+1)  ==  (1/m) * (n m / (n m + d))^(n+1)
    log_ratio = -math.log1p(delta / (n * m))
    return math.exp((n + 1) * log_ratio) / m


def window_pvalue(delta: float, window: DurationWindow) -> float:
    """The fill p-value against a window: 1 - (n m / (n m + d))^n, with d
    floored at the tape floor and p clamped to [MIN_PVALUE, 1]."""
    n, m = window.n, window.mean
    p = -math.expm1(-n * math.log1p(max(delta, MIN_DURATION_S) / (n * m)))
    return min(max(p, MIN_PVALUE), 1.0)


def score_fill(tape: Tape, index: int, window: DurationWindow, horizon_s: float) -> SurpriseRecord:
    """Score the dark fill at row ``index`` of a sorted tape against ``window``.

    Forward duration runs to the first lit print after the fill (sequence
    order, so an equal-timestamp lit print counts as backward) and is
    censored beyond ``horizon_s``. The window is read, never mutated.
    """
    row = range(len(tape))[index]
    (fill,) = tape.rows([row])
    if not window.primed():
        raise ValueError("window must hold at least one duration before scoring")
    is_lit = tape.is_lit
    prev = next((i for i in range(row - 1, -1, -1) if is_lit[i]), None)
    nxt = next((i for i in range(row + 1, len(tape)) if is_lit[i]), None)
    delta_fwd = p_fwd = delta_bwd = p_bwd = None
    next_side = Side.UNKNOWN
    if nxt is not None and int(tape.ts[nxt]) - fill.ts <= int(horizon_s * 1e9):
        delta_fwd = max(int(tape.ts[nxt]) - fill.ts, DURATION_FLOOR_NS) * _NS
        p_fwd = window_pvalue(delta_fwd, window)
        next_side = SIDE_OF_SIGN[int(tape.side[nxt])]
    if prev is not None:
        delta_bwd = max(fill.ts - int(tape.ts[prev]), DURATION_FLOOR_NS) * _NS
        p_bwd = window_pvalue(delta_bwd, window)
    return SurpriseRecord(fill, delta_fwd, delta_bwd, p_fwd, p_bwd, window.n, window.mean, next_side)


def oracle_score_tape(
    tape: Tape, window_size: int, horizon_mult: float = DEFAULT_HORIZON_MULT
) -> list[SurpriseRecord]:
    """``score_tape`` the scalar way: fold each lit print in, score each fill."""
    window = DurationWindow(capacity=window_size)
    records = []
    for row, (ts, is_lit) in enumerate(zip(tape.ts.tolist(), tape.is_lit.tolist())):
        if is_lit:
            window = update_window(window, ts)
        elif window.primed():
            records.append(score_fill(tape, row, window, horizon_mult * window.mean))
    return records


# ---------------------------------------------------------------------------
# Wire objects


def event_to_obj(event: TapeEvent) -> dict[str, Any]:
    """Flat key/value mapping for one event, omitting absent optionals."""
    obj: dict[str, Any] = {
        "kind": event.kind.value,
        "ts": event.ts,
        "symbol": event.symbol,
        "price": event.price,
        "size": event.size,
        "side": event.side.value,
    }
    if event.venue is not None:
        obj["venue"] = event.venue
    if event.mid is not None:
        obj["mid"] = event.mid
    if event.own is not None:
        obj["own"] = event.own
    if event.truth is not None:
        obj["truth"] = event.truth
    return obj


def record_to_obj(record: SurpriseRecord) -> dict:
    """Wire-format object for one scored fill (kind = "surprise")."""
    fill = record.fill
    obj = {
        "kind": "surprise",
        "ts": fill.ts,
        "symbol": fill.symbol,
        "venue": fill.venue,
        "side": fill.side.value,
        "size": fill.size,
        "n": record.n_used,
        "mean": record.mean_used,
        "next_lit_side": record.next_lit_side.value,
    }
    if record.delta_fwd is not None:
        obj["delta_fwd"] = record.delta_fwd
        obj["p_fwd"] = record.p_fwd
    if record.delta_bwd is not None:
        obj["delta_bwd"] = record.delta_bwd
        obj["p_bwd"] = record.p_bwd
    return obj


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


# ---------------------------------------------------------------------------
# Evidence


def fold(
    ledgers: dict[str, EvidenceLedger], venue: str, ts: int, p: float, k_max: int = 5
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
        updated.append((name, ledger.history[-1]))
    return updated


# ---------------------------------------------------------------------------
# Slippage


def post_fill_slippage(fill: TapeEvent, path: PricePath, cfg: SlippageConfig) -> float:
    """Signed post-fill return in bp; positive = price moved with the fill.

    The start mid is the fill's own ``mid`` when present, else LOCF from the
    path. Raises CensoredFillError when the path does not cover
    [fill.ts, fill.ts + tau].
    """
    sign = fill.side.sign
    if sign == 0:
        raise ValueError("fill side must be buy or sell")
    end_ts = fill.ts + cfg.tau_ns
    if not (len(path) > 0 and path.start_ts <= fill.ts and end_ts <= path.end_ts):
        raise CensoredFillError(f"path does not cover fill horizon [{fill.ts}, {end_ts}]")
    p0 = math.log(fill.mid) if fill.mid is not None else float(path.log_mid_at(fill.ts))
    p1 = float(path.log_mid_at(end_ts))
    return sign * (p1 - p0) * BP


def bucket_report(records: Sequence[tuple[SurpriseRecord, float]], buckets: int = 10) -> list[BucketRow]:
    """Mean slippage per equal-width forward-p bucket over [0, 1], one
    (record, slippage) pair at a time; censored records are skipped."""
    sums = np.zeros(buckets)
    sums2 = np.zeros(buckets)
    counts = np.zeros(buckets, dtype=np.int64)
    for record, slip in records:
        if record.p_fwd is None:
            continue
        b = min(int(record.p_fwd * buckets), buckets - 1)
        sums[b] += slip
        sums2[b] += slip * slip
        counts[b] += 1
    rows: list[BucketRow] = []
    for b in range(buckets):
        lo, hi = b / buckets, (b + 1) / buckets
        n = int(counts[b])
        if n == 0:
            rows.append(BucketRow(lo, hi, None, None, 0))
            continue
        mean = sums[b] / n
        if n > 1:
            var = max(sums2[b] / n - mean * mean, 0.0) * n / (n - 1)
            stderr = math.sqrt(var / n)
        else:
            stderr = None
        rows.append(BucketRow(lo, hi, float(mean), stderr, n))
    return rows
