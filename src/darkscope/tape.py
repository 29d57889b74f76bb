"""Unified event tape: columnar data model, validating parse, merging.

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
* ``symbol`` and ``meta`` once per tape: every row is of that symbol.

``TapeEvent`` is a row view: ``Tape.events``, ``Tape.rows(index)`` and
iteration build them on demand, a row form kept for callers outside
``src/`` (tests, demos, the benchmark). No command builds one: every command
reads the columns, and the parser fills them without one.

Wire format: one JSON object per line with fields
``kind`` ("lit" | "dark"), ``ts`` (int ns), ``symbol``, ``price``, ``size``,
``side`` ("buy" | "sell" | "unknown"), and optional ``venue``, ``mid``,
``own``, ``truth``. An optional leading ``{"kind": "meta", ...}`` line
carries tape provenance.

Column cache: ``<file>.cols`` beside a text file holds what parsing that
text returns. Line 1 is a JSON header: ``version``, ``sha256`` (the hex
digest of the text file's bytes) and, for a tape, ``symbol``, ``venues``,
``meta`` and ``truth`` as ``[[row, obj], ...]``. Then each column follows by
``np.save``: a tape's ts, is_lit, price, size, side, venue, mid, own; a price
path's ts, log_mid. A reader trusts the cache only when the digest matches
the text, every column has its dtype and one length, and the columns pass
parse_tape's domain checks; otherwise it parses the text.
"""

from __future__ import annotations

import json
import math
import os
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
    "parse_tape",
    "serialize_tape",
    "merge_streams",
    "file_digest",
    "write_columns",
    "read_columns",
    "cache_columns",
    "read_tape_cache",
]

# Duration floor, in nanoseconds: equal-timestamp events yield this instead of 0.
DURATION_FLOOR_NS = 1

_INT64_MAX = 2**63 - 1


class EventKind(str, Enum):
    LIT = "lit"
    DARK = "dark"


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
    ``merge_streams`` sort, the constructor does not. Treat the columns as
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
        lit, dark = EventKind.LIT, EventKind.DARK
        return [
            TapeEvent(
                kind=lit if is_lit else dark,
                ts=ts,
                symbol=self.symbol,
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
        truth = self.truth
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
            truth=dict(zip(inverse[list(truth)].tolist(), truth.values())) if truth else {},
        )


_REQUIRED_FIELDS = ("kind", "ts", "symbol", "price", "size")
_required = itemgetter(*_REQUIRED_FIELDS)
_SIDE_CODE = {"buy": 1, "sell": -1, "unknown": 0}
_CONSTANT_STR = {s: s for s in ("lit", "dark", "buy", "sell", "unknown")}
_OWN_CODE = {None: -1, False: 0, True: 1}


def _row_from_obj(obj: dict[str, Any], line_no: int) -> tuple:
    """The per-record validator: one decoded line to its normalised row, in
    ``_Columns.FIELDS`` order (numbers as floats, ``kind``, ``side`` and
    ``symbol`` as strings), or the error."""
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
    """Scalar parse of decoded (line number, record) pairs: each record is
    validated on its own and appended to the columns."""
    cols = _Columns()
    columns = [getattr(cols, name) for name in cols.FIELDS]
    tape_symbol: str | None = None
    for line_no, obj in records:
        if not isinstance(obj, dict):
            raise TapeFormatError(line_no, "record must be a JSON object")
        if obj.get("kind") == "meta":
            meta.update({k: v for k, v in obj.items() if k != "kind"})
            continue
        row = _row_from_obj(obj, line_no)
        symbol = row[2]  # FIELDS order
        if tape_symbol is None:
            tape_symbol = symbol
        elif symbol != tape_symbol:
            raise TapeFormatError(line_no, f"mixed symbols: expected '{tape_symbol}', got '{symbol}'")
        for column, value in zip(columns, row):
            column.append(value)
    tape = _to_tape(cols, meta)
    if tape is None:  # not an assert, which -O would strip
        raise RuntimeError("internal error: the column checks rejected rows the record validator accepted")
    return tape


def parse_tape_scalar(lines: Iterable[str]) -> Tape:
    """parse_tape through the per-record validator only (the reference path)."""
    return _parse_records(_decoded(enumerate(lines, start=1)), {})


class _Columns:
    """Field values of decoded or validated records, one list per field."""

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
    if int(np.isnan(mid).sum()) != mids.count(None):  # a NaN mid, not an absent one
        return None
    names = {v: i for i, v in enumerate(v for v in dict.fromkeys(venues) if v is not None)}
    names_code = {**names, None: -1}
    tape = Tape(
        symbol=tape_symbol or "",
        ts=ts,
        is_lit=np.fromiter(map("lit".__eq__, kinds), dtype=bool, count=n),
        price=price,
        size=size,
        side=np.fromiter(map(_SIDE_CODE.__getitem__, sides), dtype=np.int8, count=n),
        venue=np.fromiter(map(names_code.__getitem__, venues), dtype=np.int32, count=n),
        venues=tuple(names),
        mid=mid,
        own=np.fromiter(map(_OWN_CODE.__getitem__, owns), dtype=np.int8, count=n),
        truth={i: t for i, t in enumerate(cols.truth) if t is not None},
        meta=meta,
    )
    return tape.sorted() if _valid(tape) else None


def _valid(tape: Tape) -> bool:
    """The whole-column domain checks that every tape parse_tape returns passes."""
    venue, side, own, mid = tape.venue, tape.side, tape.own, tape.mid[~np.isnan(tape.mid)]
    names_empty = np.array([not v for v in tape.venues] + [True])  # [-1] is the absent venue
    return not (
        not all(isinstance(v, str) for v in tape.venues)
        or np.any((venue < -1) | (venue >= len(tape.venues)))  # before names_empty[venue]
        or np.any((side < -1) | (side > 1) | (own < -1) | (own > 1))
        or np.any(tape.ts < 0)
        or not np.all((tape.price > 0) & np.isfinite(tape.price))
        or not np.all((tape.size > 0) & np.isfinite(tape.size))
        or not np.all((mid > 0) & np.isfinite(mid))
        or np.any(~tape.is_lit & (names_empty[venue] | (side == 0)))
    )


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


def json_floats(column: np.ndarray) -> list[str]:
    """JSON text of each float: repr, or json's spelling when not finite."""
    values = column.tolist()
    if np.all(np.isfinite(column)):
        return list(map(float.__repr__, values))
    return list(map(json.dumps, values))


_KIND_TEXT = ('"dark"', '"lit"')
# JSON text of each side code.
SIDE_JSON = {1: '"buy"', -1: '"sell"', 0: '"unknown"'}
_OWN_TEXT = ("", ', "own": false', ', "own": true')


def serialize_tape(tape: Tape) -> Iterator[str]:
    """Yield tape lines (no trailing newline); inverse of parse_tape.

    Each line is ``json.dumps`` of the row's flat object (kind, ts, symbol,
    price, size and side, then venue, mid, own and truth where present),
    formatted from the columns with every string JSON-encoded once.
    """
    if tape.meta:
        yield json.dumps({"kind": "meta", **tape.meta}, sort_keys=True)
    symbol = json.dumps(tape.symbol)
    venues = [f', "venue": {json.dumps(v)}' for v in tape.venues] + [""]
    mid_present = ~np.isnan(tape.mid)
    mids = [
        f', "mid": {m}' if ok else ""
        for m, ok in zip(json_floats(np.where(mid_present, tape.mid, 0.0)), mid_present.tolist())
    ]
    truth = tape.truth
    for i, (lit, ts, price, size, side, venue, mid, own) in enumerate(
        zip(
            tape.is_lit.tolist(),
            tape.ts.tolist(),
            json_floats(tape.price),
            json_floats(tape.size),
            tape.side.tolist(),
            tape.venue.tolist(),
            mids,
            (tape.own + 1).tolist(),
        )
    ):
        line = (
            f'{{"kind": {_KIND_TEXT[lit]}, "ts": {ts}, "symbol": {symbol}, '
            f'"price": {price}, "size": {size}, "side": {SIDE_JSON[side]}'
            f"{venues[venue]}{mid}{_OWN_TEXT[own]}"
        )
        if i in truth:
            line += f', "truth": {json.dumps(truth[i])}}}'
        else:
            line += "}"
        yield line


def merge_streams(*parts: Tape) -> Tape:
    """Rows of ``parts`` end to end, then a stable sort, lit-first at equal timestamps.

    Venue tables, ``truth`` and ``meta`` merge in part order. The parts must
    share one symbol; an empty symbol matches any.
    """
    symbols = list(dict.fromkeys(p.symbol for p in parts if p.symbol))
    if len(symbols) > 1:
        raise ValueError("symbol mismatch: " + " vs ".join(f"'{s}'" for s in symbols))
    names: dict[str, int] = {}
    venue_cols = []
    truth: dict[int, dict[str, Any]] = {}
    meta: dict[str, Any] = {}
    offset = 0
    for part in parts:
        codes = np.array([names.setdefault(v, len(names)) for v in part.venues] + [-1], dtype=np.int32)
        venue_cols.append(codes[part.venue])
        truth.update((offset + i, t) for i, t in part.truth.items())
        meta.update(part.meta)
        offset += len(part)

    def cat(name: str) -> np.ndarray | None:
        return np.concatenate([getattr(p, name) for p in parts]) if parts else None

    return Tape(
        symbol=symbols[0] if symbols else "",
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
        meta=meta,
    ).sorted()


CACHE_SUFFIX = ".cols"
_CACHE_VERSION = 1
# A tape cache's columns in file order, with their dtypes.
_CACHE_COLUMNS = {"ts": np.int64, "is_lit": np.bool_, "price": np.float64, "size": np.float64,
                  "side": np.int8, "venue": np.int32, "mid": np.float64, "own": np.int8}


def file_digest(path) -> str:
    """Hex sha256 of the file's bytes, read in chunks."""
    import hashlib  # here, not at module load: commands that meet no cache never hash

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            h.update(chunk)
    return h.hexdigest()


def write_columns(file, digest: str, header: dict[str, Any], arrays: Sequence[np.ndarray]) -> None:
    """Write a column cache keyed by ``digest``: the JSON header line, then
    each array by ``np.save``, which stores no timestamp."""
    with open(file, "wb") as fh:
        fh.write(json.dumps({"version": _CACHE_VERSION, "sha256": digest, **header}).encode() + b"\n")
        for column in arrays:
            np.save(fh, column, allow_pickle=False)


def read_columns(file, digest: str, dtypes: Sequence) -> tuple[dict[str, Any], list[np.ndarray]]:
    """The header and columns of a column cache written by write_columns.

    Raises ValueError unless the header is this version's and keyed by
    ``digest`` and the columns are 1-d, of ``dtypes`` and one length, with
    nothing after them. Each npy header is checked before any data is read,
    so a bad dtype or shape loads (or unpickles) nothing."""
    with open(file, "rb") as fh:
        header = json.loads(fh.readline())
        if not (isinstance(header, dict) and header.get("version") == _CACHE_VERSION
                and header.get("sha256") == digest):
            raise ValueError("the header is not this version's or not of this file")
        size = os.fstat(fh.fileno()).st_size
        columns = []
        for dtype in map(np.dtype, dtypes):
            if np.lib.format.read_magic(fh) != (1, 0):
                raise ValueError("column is not npy format 1.0")
            shape, _, got = np.lib.format.read_array_header_1_0(fh)
            if got != dtype or len(shape) != 1 or shape[0] * dtype.itemsize > size - fh.tell():
                raise ValueError(f"column {len(columns)} is {got} of shape {shape}, expected {dtype}")
            columns.append(np.fromfile(fh, dtype, count=shape[0]))
        if fh.read(1) or len({c.size for c in columns}) > 1:
            raise ValueError("columns differ in length or are followed by more data")
    return header, columns


def cache_columns(tape: Tape) -> tuple[dict[str, Any], list[np.ndarray]] | None:
    """write_columns' header and arrays for the text ``serialize_tape(tape)``:
    what parse_tape returns for that text, not ``tape`` (venues numbered by
    first appearance, unused ones dropped; ``meta`` and ``truth`` as JSON
    decodes them; rows sorted; symbol "" with no rows). None when parse_tape
    would reject the columns, so that such a tape gets no cache."""
    codes, first = np.unique(tape.venue[tape.venue >= 0], return_index=True)
    names: dict[str, int] = {}
    remap = np.full(len(tape.venues) + 1, -1, dtype=np.int32)  # [-1]: no venue
    for code in codes[np.argsort(first)].tolist():
        remap[code] = names.setdefault(tape.venues[code], len(names))
    meta = json.loads(json.dumps(tape.meta, sort_keys=True))  # as its meta line decodes
    symbol = tape.symbol if len(tape) else ""
    parsed = replace(tape, symbol=symbol, venue=remap[tape.venue], venues=tuple(names), meta=meta)
    if not _valid(parsed):
        return None
    parsed = parsed.sorted()
    truth = [[row, parsed.truth[row]] for row in sorted(parsed.truth)]
    header = {"symbol": parsed.symbol, "venues": list(parsed.venues), "meta": parsed.meta, "truth": truth}
    return header, [getattr(parsed, name) for name in _CACHE_COLUMNS]


def read_tape_cache(file, digest: str) -> Tape:
    """The tape in column cache ``file``. Raises ValueError where read_columns
    does, on a malformed header, and when the columns fail parse_tape's checks."""
    header, columns = read_columns(file, digest, _CACHE_COLUMNS.values())
    symbol, venues, meta, truth = map(header.get, ("symbol", "venues", "meta", "truth"))
    rows = range(len(columns[0]))
    if not (
        isinstance(symbol, str) and isinstance(venues, list) and isinstance(meta, dict)
        and isinstance(truth, list)
        and all(isinstance(p, list) and len(p) == 2 and type(p[0]) is int and p[0] in rows
                and isinstance(p[1], dict) for p in truth)
    ):
        raise ValueError("malformed tape header")
    tape = Tape(symbol, venues=venues, meta=meta, truth=dict(truth), **dict(zip(_CACHE_COLUMNS, columns)))
    if not _valid(tape):
        raise ValueError("columns fail the tape checks")
    return tape.sorted()
