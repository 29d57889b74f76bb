"""Unified event tape: columnar data model, parsing, merging, validation.

A tape is one symbol's strictly ordered stream of lit-market prints and
dark-venue fills. Timestamps are integer nanoseconds so duration arithmetic
is exact; durations become floating seconds only inside the statistics
layer. Events at equal timestamps order lit-before-dark, which keeps every
duration non-negative and errs toward flagging.

Layout: a ``Tape`` is a struct of equal-length numpy columns, one row per
event, held in that one form from parse (or simulation) to report:

* ``ts`` int64 nanoseconds and ``is_lit`` bool;
* ``price``, ``size`` and ``mid`` float64; a NaN ``mid`` means absent;
* ``side`` int8: +1 buy, -1 sell, 0 unknown;
* ``venue`` int32 codes into the ``venues`` name table, -1 when absent;
* ``own`` int8: 1 true, 0 false, -1 absent;
* ``truth``: a side table {row: simulator ground-truth dict};
* ``symbol`` and ``meta`` once per tape. Rows built by ``from_events`` from
  events of another symbol keep theirs in the ``symbols`` side table, so
  ``validate_tape`` can report them.

``TapeEvent`` is a row view: ``Tape.events``, ``Tape.rows(index)`` and
iteration build them on demand for tests, demos, error messages and the
per-order fill lists of the policy replay.

Wire format: one JSON object per line with fields
``kind`` ("lit" | "dark"), ``ts`` (int ns), ``symbol``, ``price``, ``size``,
``side`` ("buy" | "sell" | "unknown"), and optional ``venue``, ``mid``,
``own``, ``truth``. An optional leading ``{"kind": "meta", ...}`` line
carries tape provenance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import chain, count
from operator import itemgetter
from sys import intern
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "EventKind",
    "Side",
    "TapeEvent",
    "Tape",
    "TapeFormatError",
    "ValidationIssue",
    "parse_tape",
    "serialize_tape",
    "merge_streams",
    "concat_tapes",
    "validate_tape",
]

# Duration floor, in nanoseconds: equal-timestamp events yield this instead of 0.
DURATION_FLOOR_NS = 1

_INT64_MAX = 2**63 - 1


class EventKind(str, Enum):
    LIT = "lit"
    DARK = "dark"

    @property
    def sort_rank(self) -> int:
        # Lit prints order before dark fills at equal timestamps.
        return 0 if self is EventKind.LIT else 1


class Side(str, Enum):
    BUY = "buy"
    SELL = "sell"
    UNKNOWN = "unknown"

    @property
    def sign(self) -> int:
        """Buy/sell indicator: +1 buy, -1 sell, 0 unknown."""
        if self is Side.BUY:
            return 1
        if self is Side.SELL:
            return -1
        return 0

    def opposite(self) -> "Side":
        if self is Side.BUY:
            return Side.SELL
        if self is Side.SELL:
            return Side.BUY
        return Side.UNKNOWN


SIDE_OF_SIGN = {1: Side.BUY, -1: Side.SELL, 0: Side.UNKNOWN}


class TapeFormatError(ValueError):
    """Raised for malformed tape input; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class TapeEvent:
    """One print or fill: a row view of a Tape.

    ``size`` is notional in currency units; ``mid`` is the mid price at event
    time when known; ``own`` marks own fills on lit feeds (recorded, no
    filtering semantics); ``truth`` holds simulator ground-truth flags.
    """

    kind: EventKind
    ts: int
    symbol: str
    price: float
    size: float
    side: Side = Side.UNKNOWN
    venue: str | None = None
    mid: float | None = None
    own: bool | None = None
    truth: dict[str, Any] | None = None

    @property
    def sort_key(self) -> tuple[int, int]:
        return (self.ts, self.kind.sort_rank)

    def is_lit(self) -> bool:
        return self.kind is EventKind.LIT

    def is_dark(self) -> bool:
        return self.kind is EventKind.DARK


def _column(values, dtype, n: int, fill) -> np.ndarray:
    if values is None:
        return np.full(n, fill, dtype=dtype)
    arr = np.asarray(values, dtype=dtype)
    if arr.shape != (n,):
        raise ValueError(f"tape column has shape {arr.shape}, expected ({n},)")
    return arr


@dataclass(frozen=True, eq=False)
class Tape:
    """One symbol's events as numpy columns (see the module docstring).

    Columns left as None default to absent values; ``Tape(symbol)`` is an
    empty tape. Rows are kept in the order given: ``parse_tape`` and
    ``merge_streams`` sort, ``from_events`` does not. Treat the columns as
    read-only; derived tapes share them.
    """

    symbol: str
    ts: np.ndarray | None = None
    is_lit: np.ndarray | None = None
    price: np.ndarray | None = None
    size: np.ndarray | None = None
    side: np.ndarray | None = None
    venue: np.ndarray | None = None
    venues: tuple[str, ...] = ()
    mid: np.ndarray | None = None
    own: np.ndarray | None = None
    truth: dict[int, dict[str, Any]] = field(default_factory=dict)
    meta: dict[str, Any] = field(default_factory=dict)
    symbols: dict[int, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        ts = np.asarray(self.ts if self.ts is not None else (), dtype=np.int64)
        if ts.ndim != 1:
            raise ValueError("ts must be a 1-d column")
        n = ts.size
        set_ = object.__setattr__
        set_(self, "ts", ts)
        set_(self, "is_lit", _column(self.is_lit, bool, n, True))
        set_(self, "price", _column(self.price, np.float64, n, np.nan))
        set_(self, "size", _column(self.size, np.float64, n, np.nan))
        set_(self, "side", _column(self.side, np.int8, n, 0))
        set_(self, "venue", _column(self.venue, np.int32, n, -1))
        set_(self, "mid", _column(self.mid, np.float64, n, np.nan))
        set_(self, "own", _column(self.own, np.int8, n, -1))
        set_(self, "venues", tuple(self.venues))

    @classmethod
    def from_events(
        cls, symbol: str, events: Iterable[TapeEvent], meta: dict[str, Any] | None = None
    ) -> "Tape":
        """Columns from TapeEvent rows, kept in the given order (no checks)."""
        events = list(events)
        names: dict[str, int] = {}
        return cls(
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
            symbols={i: e.symbol for i, e in enumerate(events) if e.symbol != symbol},
        )

    def __len__(self) -> int:
        return int(self.ts.size)

    def __iter__(self) -> Iterator[TapeEvent]:
        return iter(self.rows())

    @property
    def events(self) -> tuple[TapeEvent, ...]:
        """Every row as a TapeEvent (built on each access)."""
        return tuple(self.rows())

    def rows(self, index: Sequence[int] | np.ndarray | None = None) -> list[TapeEvent]:
        """TapeEvent views of the rows at ``index`` (default: all, in order)."""
        every = np.arange(len(self))
        index = every if index is None else every[np.asarray(index, dtype=np.intp)]
        venues = self.venues
        truth = self.truth.get
        symbol = self.symbols.get
        lit, dark = EventKind.LIT, EventKind.DARK
        return [
            TapeEvent(
                kind=lit if is_lit else dark,
                ts=ts,
                symbol=symbol(i, self.symbol),
                price=price,
                size=size,
                side=SIDE_OF_SIGN[side],
                venue=venues[venue] if venue >= 0 else None,
                mid=None if mid != mid else mid,
                own=None if own < 0 else bool(own),
                truth=truth(i),
            )
            for i, is_lit, ts, price, size, side, venue, mid, own in zip(
                index.tolist(),
                self.is_lit[index].tolist(),
                self.ts[index].tolist(),
                self.price[index].tolist(),
                self.size[index].tolist(),
                self.side[index].tolist(),
                self.venue[index].tolist(),
                self.mid[index].tolist(),
                self.own[index].tolist(),
            )
        ]

    def sorted(self) -> "Tape":
        """Stable sort by timestamp, lit before dark at equal timestamps."""
        order = np.lexsort((~self.is_lit, self.ts))
        if np.array_equal(order, np.arange(len(self))):
            return self
        inverse = np.empty_like(order)
        inverse[order] = np.arange(order.size)

        def remap(table: dict) -> dict:
            return dict(zip(inverse[list(table)].tolist(), table.values())) if table else {}

        return replace(
            self,
            ts=self.ts[order],
            is_lit=self.is_lit[order],
            price=self.price[order],
            size=self.size[order],
            side=self.side[order],
            venue=self.venue[order],
            mid=self.mid[order],
            own=self.own[order],
            truth=remap(self.truth),
            symbols=remap(self.symbols),
        )


def concat_tapes(symbol: str, parts: Sequence[Tape], meta: dict[str, Any] | None = None) -> Tape:
    """Rows of ``parts`` end to end under ``symbol``, venue tables merged.

    Rows of a part with another symbol keep theirs in the ``symbols`` table.
    """
    names: dict[str, int] = {}
    venue_cols = []
    truth: dict[int, dict[str, Any]] = {}
    symbols: dict[int, str] = {}
    offset = 0
    for part in parts:
        codes = np.array([names.setdefault(v, len(names)) for v in part.venues] + [-1], dtype=np.int32)
        venue_cols.append(codes[part.venue])
        truth.update((offset + i, t) for i, t in part.truth.items())
        if part.symbol != symbol and len(part):
            symbols.update((offset + i, part.symbol) for i in range(len(part)))
        symbols.update((offset + i, s) for i, s in part.symbols.items())
        offset += len(part)

    def cat(name: str) -> np.ndarray:
        return np.concatenate([getattr(p, name) for p in parts]) if parts else None

    return Tape(
        symbol=symbol,
        ts=cat("ts"),
        is_lit=cat("is_lit"),
        price=cat("price"),
        size=cat("size"),
        side=cat("side"),
        venue=np.concatenate(venue_cols) if parts else None,
        venues=tuple(names),
        mid=cat("mid"),
        own=cat("own"),
        truth=truth,
        meta=dict(meta or {}),
        symbols={i: s for i, s in symbols.items() if s != symbol},
    )


@dataclass(frozen=True)
class ValidationIssue:
    """One invariant violation found by validate_tape (data, not an error)."""

    index: int
    code: str
    message: str


_REQUIRED_FIELDS = ("kind", "ts", "symbol", "price", "size")
_required = itemgetter(*_REQUIRED_FIELDS)
_SIDES = {s.value: s for s in Side}
_KINDS = {k.value: k for k in EventKind}
_SIDE_CODE = {"buy": 1, "sell": -1, "unknown": 0}
_CONSTANT_STR = {s: s for s in ("lit", "dark", "buy", "sell", "unknown")}
_OWN_CODE = {None: -1, False: 0, True: 1}


def _event_from_obj(obj: dict[str, Any], line_no: int) -> TapeEvent:
    """The per-record validator: one decoded line to an event, or the error."""
    for name in _REQUIRED_FIELDS:
        if name not in obj:
            raise TapeFormatError(line_no, f"missing field '{name}'")
    kind = _KINDS.get(obj["kind"]) if isinstance(obj["kind"], str) else None
    if kind is None:
        raise TapeFormatError(line_no, f"unknown kind '{obj['kind']}'")
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
    side_raw = obj.get("side", "unknown")
    side = _SIDES.get(side_raw) if isinstance(side_raw, str) else None
    if side is None:
        raise TapeFormatError(line_no, f"unknown side '{side_raw}'")
    venue = obj.get("venue")
    if venue is not None and not isinstance(venue, str):
        raise TapeFormatError(line_no, f"venue must be a string, got {venue!r}")
    if kind is EventKind.DARK:
        if not venue:
            raise TapeFormatError(line_no, "dark fill missing venue")
        if side is Side.UNKNOWN:
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
    return TapeEvent(
        kind=kind,
        ts=ts,
        symbol=str(obj["symbol"]),
        price=price,
        size=size,
        side=side,
        venue=venue,
        mid=mid,
        own=own,
        truth=truth,
    )


def _decoded(numbered_lines: Iterable[tuple[int, str]]) -> Iterator[tuple[int, Any]]:
    for line_no, line in numbered_lines:
        line = line.strip()
        if not line:
            continue
        try:
            yield line_no, json.loads(line)
        except json.JSONDecodeError as exc:
            raise TapeFormatError(line_no, f"invalid JSON ({exc.msg})") from None


def _parse_records(records: Iterable[tuple[int, Any]], meta: dict[str, Any]) -> Tape:
    """Scalar parse of decoded (line number, record) pairs, one at a time."""
    events: list[TapeEvent] = []
    tape_symbol: str | None = None
    for line_no, obj in records:
        if not isinstance(obj, dict):
            raise TapeFormatError(line_no, "record must be a JSON object")
        if obj.get("kind") == "meta":
            meta.update({k: v for k, v in obj.items() if k != "kind"})
            continue
        event = _event_from_obj(obj, line_no)
        if tape_symbol is None:
            tape_symbol = event.symbol
        elif event.symbol != tape_symbol:
            raise TapeFormatError(
                line_no,
                f"mixed symbols: expected '{tape_symbol}', got '{event.symbol}'",
            )
        events.append(event)
    return Tape.from_events(tape_symbol or "", events, meta).sorted()


def parse_tape_scalar(lines: Iterable[str]) -> Tape:
    """parse_tape through the per-record validator only (the reference path)."""
    return _parse_records(_decoded(enumerate(lines, start=1)), {})


class _Columns:
    """Decoded field values of well-formed records, one list per field."""

    FIELDS = ("kind", "ts", "symbol", "price", "size", "side", "venue", "mid", "own", "truth")

    def __init__(self) -> None:
        for name in self.FIELDS:
            setattr(self, name, [])
        self.skipped: list[int] = []  # line numbers of blank and meta lines

    def records(self) -> Iterator[tuple[int, dict[str, Any]]]:
        """The rows as records again, for the per-record validator.

        Absent optionals come back as None, which the validator treats as
        absent, and an absent side as "unknown", its default.
        """
        skipped = set(self.skipped)
        line_nos = (n for n in count(1) if n not in skipped)
        columns = [getattr(self, name) for name in self.FIELDS]
        for line_no, values in zip(line_nos, zip(*columns)):
            yield line_no, dict(zip(self.FIELDS, values))


def _only(values: list, *types: type) -> bool:
    return set(map(type, values)) <= set(types)


def _to_tape(cols: _Columns, meta: dict[str, Any]) -> Tape | None:
    """Columns checked and converted as wholes; None when any row fails a check."""
    n = len(cols.ts)
    kinds, sides, mids, owns, venues = cols.kind, cols.side, cols.mid, cols.own, cols.venue
    none = type(None)
    if kinds.count("lit") + kinds.count("dark") != n:
        return None
    if sides.count("buy") + sides.count("sell") + sides.count("unknown") != n:
        return None
    if not (
        _only(cols.ts, int)
        and _only(cols.price, float, int)
        and _only(cols.size, float, int)
        and _only(mids, float, int, none)
        and _only(owns, bool, none)
        and _only(cols.truth, dict, none)
    ):
        return None
    tape_symbol = cols.symbol[0] if n else None
    if n and set(cols.symbol) != {tape_symbol}:
        return None
    try:
        ts = np.array(cols.ts, dtype=np.int64)
        price = np.array(cols.price, dtype=np.float64)
        size = np.array(cols.size, dtype=np.float64)
        mid = np.array(mids, dtype=np.float64)  # None -> NaN
    except OverflowError:
        return None
    absent = np.isnan(mid)
    present = mid[~absent]
    if (
        np.any(ts < 0)
        or not np.all((price > 0) & np.isfinite(price))
        or not np.all((size > 0) & np.isfinite(size))
        or int(absent.sum()) != mids.count(None)
        or not np.all((present > 0) & np.isfinite(present))
    ):
        return None
    is_lit = np.fromiter(map("lit".__eq__, kinds), dtype=bool, count=n)
    side = np.fromiter(map(_SIDE_CODE.__getitem__, sides), dtype=np.int8, count=n)
    names = {v: i for i, v in enumerate(v for v in dict.fromkeys(venues) if v is not None)}
    names_empty = np.array([not v for v in names] + [True])  # [-1] is the absent venue
    names_code = {**names, None: -1}
    venue = np.fromiter(map(names_code.__getitem__, venues), dtype=np.int32, count=n)
    if np.any(~is_lit & (names_empty[venue] | (side == 0))):
        return None
    own = np.fromiter(map(_OWN_CODE.__getitem__, owns), dtype=np.int8, count=n)
    truth = {i: t for i, t in enumerate(cols.truth) if t is not None}
    return Tape(
        symbol=tape_symbol or "",
        ts=ts,
        is_lit=is_lit,
        price=price,
        size=size,
        side=side,
        venue=venue,
        venues=tuple(names),
        mid=mid,
        own=own,
        truth=truth,
        meta=meta,
    ).sorted()


def parse_tape(lines: Iterable[str]) -> Tape:
    """Parse line-delimited tape text into a validated, sorted Tape.

    Blank lines are skipped. Errors name the offending 1-based line number.
    All fields round-trip bit-exactly through serialize_tape.

    Each line is decoded straight into column lists and the domain checks run
    once over whole columns. Input those checks do not pass (an error, or a
    form they do not take, such as a numeric string) goes through the
    per-record validator from the first line, so errors and accepted values
    are exactly the scalar path's (``parse_tape_scalar``).
    """
    cols = _Columns()
    meta: dict[str, Any] = {}
    decode = json.JSONDecoder().raw_decode
    kinds, tss, syms, prices, sizes = cols.kind, cols.ts, cols.symbol, cols.price, cols.size
    sides, venues, mids, owns, truths = cols.side, cols.venue, cols.mid, cols.own, cols.truth
    skipped = cols.skipped
    # Repeated strings are kept once: the known kinds and sides as constants,
    # symbols and venue names interned (a non-string one takes the scalar path).
    constant = _CONSTANT_STR.get
    numbered = enumerate(lines, start=1)
    for line_no, line in numbered:
        line = line.strip()
        if not line:
            skipped.append(line_no)
            continue
        try:
            obj, end = decode(line)
            if end != len(line):
                raise ValueError("extra data")
            if obj.get("kind") == "meta":
                meta.update({k: v for k, v in obj.items() if k != "kind"})
                skipped.append(line_no)
                continue
            kind, ts, sym, price, size = _required(obj)
            side = obj.get("side", "unknown")
            venue = obj.get("venue")
            kind, side, sym = constant(kind, kind), constant(side, side), intern(sym)
            if venue is not None:
                venue = intern(venue)
        except (ValueError, AttributeError, KeyError, TypeError):
            rest = _decoded(chain([(line_no, line)], numbered))
            return _parse_records(chain(cols.records(), rest), meta)
        kinds.append(kind)
        tss.append(ts)
        syms.append(sym)
        prices.append(price)
        sizes.append(size)
        sides.append(side)
        venues.append(venue)
        mids.append(obj.get("mid"))
        owns.append(obj.get("own"))
        truths.append(obj.get("truth"))
    tape = _to_tape(cols, meta)
    if tape is None:
        return _parse_records(cols.records(), meta)
    return tape


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


def _float_texts(column: np.ndarray) -> list[str]:
    """JSON text of each float: repr, or json's spelling when not finite."""
    values = column.tolist()
    if np.all(np.isfinite(column)):
        return list(map(float.__repr__, values))
    return list(map(json.dumps, values))


_KIND_TEXT = ('"dark"', '"lit"')
_SIDE_TEXT = {1: '"buy"', -1: '"sell"', 0: '"unknown"'}
_OWN_TEXT = ("", ', "own": false', ', "own": true')


def serialize_tape(tape: Tape) -> Iterator[str]:
    """Yield tape lines (no trailing newline); inverse of parse_tape.

    Each line equals ``json.dumps(event_to_obj(row))``: rows are formatted
    from the columns, with every string JSON-encoded once.
    """
    if tape.meta:
        yield json.dumps({"kind": "meta", **tape.meta}, sort_keys=True)
    symbol = json.dumps(tape.symbol)
    symbols = {i: json.dumps(s) for i, s in tape.symbols.items()}
    venues = [f', "venue": {json.dumps(v)}' for v in tape.venues] + [""]
    mid_present = ~np.isnan(tape.mid)
    mids = [
        f', "mid": {m}' if ok else ""
        for m, ok in zip(_float_texts(np.where(mid_present, tape.mid, 0.0)), mid_present.tolist())
    ]
    truth = tape.truth
    for i, (lit, ts, price, size, side, venue, mid, own) in enumerate(
        zip(
            tape.is_lit.tolist(),
            tape.ts.tolist(),
            _float_texts(tape.price),
            _float_texts(tape.size),
            tape.side.tolist(),
            tape.venue.tolist(),
            mids,
            (tape.own + 1).tolist(),
        )
    ):
        line = (
            f'{{"kind": {_KIND_TEXT[lit]}, "ts": {ts}, "symbol": {symbols.get(i, symbol)}, '
            f'"price": {price}, "size": {size}, "side": {_SIDE_TEXT[side]}'
            f"{venues[venue]}{mid}{_OWN_TEXT[own]}"
        )
        if i in truth:
            line += f', "truth": {json.dumps(truth[i])}}}'
        else:
            line += "}"
        yield line


def merge_streams(lit: Tape, dark: Tape) -> Tape:
    """Stable merge of two same-symbol tapes, lit-first at equal timestamps."""
    if lit.symbol and dark.symbol and lit.symbol != dark.symbol:
        raise ValueError(f"symbol mismatch: '{lit.symbol}' vs '{dark.symbol}'")
    merged = concat_tapes(lit.symbol or dark.symbol, (lit, dark), {**lit.meta, **dark.meta})
    return merged.sorted()


def validate_tape(tape: Tape) -> list[ValidationIssue]:
    """Audit every tape invariant; returns all violations, mutating nothing.

    Empty report iff the tape is valid.
    """
    issues: list[ValidationIssue] = []
    prev_key: tuple[int, int] | None = None
    for i, e in enumerate(tape.events):
        if e.ts < 0:
            issues.append(ValidationIssue(i, "ts_negative", f"ts {e.ts} < 0"))
        if not e.price > 0:
            issues.append(ValidationIssue(i, "price_domain", f"price {e.price} <= 0"))
        if not e.size > 0:
            issues.append(ValidationIssue(i, "size_domain", f"size {e.size} <= 0"))
        if e.symbol != tape.symbol:
            issues.append(
                ValidationIssue(
                    i, "symbol_mismatch", f"event symbol '{e.symbol}' != tape '{tape.symbol}'"
                )
            )
        if e.is_dark():
            if not e.venue:
                issues.append(ValidationIssue(i, "dark_venue", "dark fill missing venue"))
            if e.side is Side.UNKNOWN:
                issues.append(ValidationIssue(i, "dark_side", "dark fill with side unknown"))
        key = e.sort_key
        if prev_key is not None and key < prev_key:
            issues.append(
                ValidationIssue(
                    i,
                    "ordering",
                    f"event at index {i} out of order: {key} after {prev_key}",
                )
            )
        prev_key = key
    return issues
