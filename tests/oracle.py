"""Scalar reference implementations that the tests hold the library to.

``darkscope`` computes each statistic and wire format once, as array kernels
over the tape's columns. This module keeps the one-at-a-time form of each,
written independently of the kernels, for the tests to compare with ``==``:
the surprise scorer (one lit print folded in and one fill scored at a time,
with its own copy of the p-value formula), the JSON objects that the
``serialize_*`` functions format as text, the tape and path lines a row at
a time (the reference for the block serializers), the even-dof chi-squared
survival a value at a time (``chisq_survival_even``), the ledger ``fold``,
the policy replay as a walk that gates one fill at a time (``replay_walk``),
``post_fill_slippage``, the slippage-by-p-value loop and the tape parser (a
record at a time: ``json.loads`` of each line, the per-record validator, one
``TapeEvent`` per record). It also builds tapes from ``TapeEvent`` rows
(``tape_from_events``) for the tests to write tapes row by row.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from darkscope.evidence import POOLED_VENUE, EvidenceLedger, LedgerEntry, ledger_update
from darkscope.options import DEFAULT_HORIZON_MULT
from darkscope.policy import ActionKind, BacktestReport, OrderOutcome, PolicyAction, PolicyConfig, arrival_slippage
from darkscope.slippage import BucketRow, CensoredFillError, PricePath, SlippageConfig
from darkscope.surprise import MIN_DURATION_S, MIN_PVALUE, SurpriseRecord, score_columns
from darkscope.tape import (
    BP,
    DURATION_FLOOR_NS,
    SIDE_JSON,
    SIDE_OF_SIGN,
    EventKind,
    Side,
    Tape,
    TapeEvent,
    TapeFormatError,
    json_floats,
)

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
        truth=[e.truth for e in events],
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


_REQUIRED_FIELDS = ("kind", "ts", "symbol", "price", "size")
_SIDE_CODE = {"buy": 1, "sell": -1, "unknown": 0}
_INT64_MAX = 2**63 - 1


def _row_from_obj(obj: dict[str, Any], line_no: int) -> tuple:
    """The per-record validator: one decoded line to its normalised row
    (numbers as floats, ``kind``, ``side`` and ``symbol`` as strings), or
    the error."""
    for name in _REQUIRED_FIELDS:
        if name not in obj:
            raise TapeFormatError(line_no, f"missing field '{name}'")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in ("lit", "dark"):
        raise TapeFormatError(line_no, f"unknown kind '{kind}'")
    ts = obj["ts"]
    if not isinstance(ts, int) or isinstance(ts, bool):
        raise TapeFormatError(line_no, f"ts must be an integer, got {ts!r}")
    if ts < 0:
        raise TapeFormatError(line_no, f"negative ts {ts}")
    if ts > _INT64_MAX:
        raise TapeFormatError(line_no, f"ts {ts} exceeds the int64 range")
    try:
        price = float(obj["price"])
        size = float(obj["size"])
    except (TypeError, ValueError, OverflowError):
        raise TapeFormatError(line_no, "price/size must be numeric") from None
    if not price > 0:
        raise TapeFormatError(line_no, f"price must be > 0, got {price}")
    if not math.isfinite(price):
        raise TapeFormatError(line_no, f"price must be finite, got {price}")
    if not size > 0:
        raise TapeFormatError(line_no, f"size must be > 0, got {size}")
    if not math.isfinite(size):
        raise TapeFormatError(line_no, f"size must be finite, got {size}")
    side = obj.get("side", "unknown")
    if not isinstance(side, str) or side not in _SIDE_CODE:
        raise TapeFormatError(line_no, f"unknown side '{side}'")
    venue = obj.get("venue")
    if venue is not None and not isinstance(venue, str):
        raise TapeFormatError(line_no, f"venue must be a string, got {venue!r}")
    if kind == "dark":
        if not venue:
            raise TapeFormatError(line_no, "dark fill missing venue")
        if side == "unknown":
            raise TapeFormatError(line_no, "dark fill missing side")
    mid = obj.get("mid")
    if mid is not None:
        try:
            mid = float(mid)
        except (TypeError, ValueError, OverflowError):
            raise TapeFormatError(line_no, f"mid must be numeric, got {mid!r}") from None
        if not mid > 0:
            raise TapeFormatError(line_no, f"mid must be > 0, got {mid}")
        if not math.isfinite(mid):
            raise TapeFormatError(line_no, f"mid must be finite, got {mid}")
    own = obj.get("own")
    if own is not None and not isinstance(own, bool):
        raise TapeFormatError(line_no, f"own must be a boolean, got {own!r}")
    truth = obj.get("truth")
    if truth is not None and not isinstance(truth, dict):
        raise TapeFormatError(line_no, f"truth must be an object, got {truth!r}")
    return kind, ts, str(obj["symbol"]), price, size, side, venue, mid, own, truth


def parse_tape_scalar(lines: Iterable[str]) -> Tape:
    """``darkscope.tape.parse_tape`` a record at a time: ``json.loads`` of
    each line, the per-record validator, one TapeEvent per record, then
    ``tape_from_events`` and a sort."""
    meta: dict[str, Any] = {}
    events: list[TapeEvent] = []
    symbol: str | None = None
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TapeFormatError(line_no, f"invalid JSON ({exc.msg})") from None
        except RecursionError as exc:
            raise TapeFormatError(line_no, f"invalid JSON ({exc})") from None
        if not isinstance(obj, dict):
            raise TapeFormatError(line_no, "record must be a JSON object")
        if obj.get("kind") == "meta":
            meta.update({k: v for k, v in obj.items() if k != "kind"})
            continue
        kind, ts, sym, price, size, side, venue, mid, own, truth = _row_from_obj(obj, line_no)
        if symbol is None:
            symbol = sym
        elif sym != symbol:
            raise TapeFormatError(line_no, f"mixed symbols: expected '{symbol}', got '{sym}'")
        events.append(TapeEvent(EventKind(kind), ts, sym, price, size, Side(side), venue, mid, own, truth))
    return tape_from_events(symbol or "", events, meta).sorted()


_KIND_TEXT = ('"dark"', '"lit"')
_OWN_TEXT = ("", ', "own": false', ', "own": true')


def serialize_tape(tape: Tape) -> Iterator[str]:
    """``darkscope.tape.serialize_tape``'s lines, a row at a time: the
    formatting that the block serializer replaced, kept as its reference."""
    if tape.meta:
        yield json.dumps({"kind": "meta", **tape.meta}, sort_keys=True)
    symbol = json.dumps(tape.symbol)
    venues = [f', "venue": {json.dumps(v)}' for v in tape.venues] + [""]
    mid_present = ~np.isnan(tape.mid)
    mids = [
        f', "mid": {m}' if ok else ""
        for m, ok in zip(json_floats(np.where(mid_present, tape.mid, 0.0)), mid_present.tolist())
    ]
    for lit, ts, price, size, side, venue, mid, own, truth in zip(
        tape.is_lit.tolist(),
        tape.ts.tolist(),
        json_floats(tape.price),
        json_floats(tape.size),
        tape.side.tolist(),
        tape.venue.tolist(),
        mids,
        (tape.own + 1).tolist(),
        tape.truth.tolist(),
    ):
        line = (
            f'{{"kind": {_KIND_TEXT[lit]}, "ts": {ts}, "symbol": {symbol}, '
            f'"price": {price}, "size": {size}, "side": {SIDE_JSON[side]}'
            f"{venues[venue]}{mid}{_OWN_TEXT[own]}"
        )
        if truth is not None:
            line += f', "truth": {json.dumps(truth)}}}'
        else:
            line += "}"
        yield line


def path_to_lines(path: PricePath) -> Iterator[str]:
    """``darkscope.slippage.path_lines``' lines, a sample at a time."""
    for t, v in zip(path.ts.tolist(), path.log_mid.tolist()):
        yield f'{{"kind": "mid", "ts": {t}, "log_mid": {v!r}}}'


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


def chisq_survival_even(x: float, dof: int) -> float:
    """Survival probability of chi-squared with even dof at x.

    Closed form for dof = 2k: exp(-x/2) * sum_{j<k} (x/2)^j / j!, accumulated
    with a running-term recurrence. When exp(-x/2) would underflow the terms
    are summed in log space instead, so deep-tail values stay accurate.
    """
    k = dof // 2
    half = 0.5 * x
    if half == 0.0:
        return 1.0
    if half < 700.0:
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


# ---------------------------------------------------------------------------
# Policy


def replay_walk(tape: Tape, cfg: PolicyConfig) -> BacktestReport:
    """``policy.replay`` as a walk over the dark fills in tape order.

    Each venue (by name) keeps an ``EvidenceLedger`` and its trigger count.
    A fill of a paused venue, or below the venue's floor, is rejected; an
    accepted fill with a forward p-value goes through ``ledger_update``, and
    an update with k >= k_min is a decision. A decision with combined p below
    alpha triggers: the venue pauses once ``pause_after`` raises are spent,
    else its floor rises to ``ladder[min(raises + 1, top)]``, before the
    next fill is read.
    """
    dark = np.flatnonzero(~tape.is_lit)
    if dark.size < cfg.k_min:
        raise ValueError(
            f"insufficient fills: tape has {dark.size} dark fills, need >= {cfg.k_min}"
        )
    cols = score_columns(tape, cfg.window_size, cfg.horizon_mult)
    p_fwd = [None] * dark.size
    for i, p in zip(cols.skipped + np.flatnonzero(cols.fwd), cols.p_fwd[cols.fwd].tolist()):
        p_fwd[i] = p

    names = (*tape.venues, "")
    ladder = cfg.min_fill_ladder
    orders: dict[tuple[str, str], list[int]] = {}
    accepted = set()
    ledgers: dict[str, EvidenceLedger] = {}
    raises: dict[str, int] = {}
    floor: dict[str, float] = {}
    paused = set()
    actions = []
    decisions = 0
    for i, row in enumerate(dark.tolist()):
        venue = names[int(tape.venue[row])]
        ts = int(tape.ts[row])
        truth = tape.truth[row] or {}
        order = str(truth["order"]) if "order" in truth else f"{venue}:f@{ts}"
        orders.setdefault((venue, order), []).append(row)
        ledger = ledgers.setdefault(venue, EvidenceLedger(venue, cfg.k_max))
        if venue in paused or (venue in floor and float(tape.size[row]) < floor[venue]):
            continue
        accepted.add(row)
        if p_fwd[i] is None:
            continue
        current = ledger_update(ledger, ts, p_fwd[i]).current
        if current.k < cfg.k_min:
            continue
        decisions += 1
        if current.combined_p >= cfg.alpha:
            continue
        n = raises.get(venue, 0)
        if n >= cfg.pause_after:
            paused.add(venue)
            actions.append(PolicyAction(ts, venue, ActionKind.PAUSE_VENUE, None, current))
        else:
            raises[venue] = n + 1
            floor[venue] = ladder[min(n + 1, len(ladder) - 1)]
            actions.append(PolicyAction(ts, venue, ActionKind.RAISE_MIN_FILL, floor[venue], current))

    outcomes = []
    for (venue, order), rows in orders.items():
        on = [r for r in rows if r in accepted]
        outcomes.append(
            OrderOutcome(
                venue=venue,
                order=order,
                side=SIDE_OF_SIGN[int(tape.side[rows[0]])],
                fills_off=len(rows),
                fills_on=len(on),
                slip_off=arrival_slippage(tape, np.array(rows)),
                slip_on=arrival_slippage(tape, np.array(on)) if on else None,
            )
        )

    def mean_stderr(values):
        if not values:
            return math.nan, math.nan
        arr = np.array(values)
        stderr = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else math.nan
        return float(arr.mean()), stderr

    abs_off = [abs(o.slip_off) for o in outcomes]
    abs_on = [abs(o.slip_on) for o in outcomes if o.slip_on is not None]
    (mean_off, se_off), (mean_on, se_on) = mean_stderr(abs_off), mean_stderr(abs_on)
    return BacktestReport(
        orders=tuple(outcomes),
        actions=tuple(actions),
        decisions=decisions,
        triggers=len(actions),
        mean_abs_off=mean_off,
        mean_abs_on=mean_on,
        stderr_abs_off=se_off,
        stderr_abs_on=se_on,
        n_off=len(abs_off),
        n_on=len(abs_on),
    )
