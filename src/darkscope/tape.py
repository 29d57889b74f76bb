"""Unified event tape: columnar data model, validating parse, serialization.

A tape is one symbol's strictly ordered stream of lit-market prints and
dark-venue fills. Timestamps are integer nanoseconds so duration arithmetic
is exact; durations become floating seconds only inside the statistics
layer. Events at equal timestamps order lit-before-dark, which keeps every
duration non-negative and errs toward flagging.

Layout: a ``Tape`` is a struct of equal-length numpy columns, one row per
event, held in that one form from parse (or simulation) to report. ``COLUMNS``
lists them, with each one's dtype and absent value; the last, ``truth``, is an
object column holding each row's simulator ground-truth dict or None. Beside
them, ``venues`` names the venue codes, and ``symbol`` and ``meta`` are held
once per tape.

``TapeEvent`` is a row view: ``Tape.events``, ``Tape.rows(index)`` and
iteration build them on demand, a row form kept for callers outside
``src/`` (tests, demos, the benchmark). No command builds one: every command
reads the columns, and the parser fills them without one.

Wire format: one JSON object per line with fields
``kind`` ("lit" | "dark"), ``ts`` (int ns), ``symbol``, ``price``, ``size``,
``side`` ("buy" | "sell" | "unknown"), and optional ``venue``, ``mid``,
``own``, ``truth``. An optional leading ``{"kind": "meta", ...}`` line
carries tape provenance.

Parsing: ``parse_tape`` reads the text in one pass. Each line is decoded as
``json.loads`` would, and each record is checked once, field by field in a
fixed order, so an error names the first bad line and its first failed
check. The accepted rows become the columns once, at the end.

Column cache: ``<file>.cols`` beside a text file holds what parsing that
text returns. Line 1 is a JSON header: ``version``, ``sha256`` (the hex
digest of the text file's bytes) and, for a tape, ``symbol``, ``venues``,
``meta`` and ``truth`` as ``[[row, obj], ...]`` over the rows that have one.
Then each column follows by ``np.save``: a tape's in ``COLUMNS`` order but
truth, which as an object column ``np.save`` would pickle, and a price path's
ts and log_mid.
The writer hashes the text file by ``file_digest`` once it is written,
reading it back; a reader hashes the file again and trusts the cache only
when that digest matches, every column has its dtype and one length, and
the columns pass parse_tape's domain checks; otherwise it parses the text.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace
from enum import Enum
from operator import itemgetter
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "EventKind",
    "Side",
    "TapeEvent",
    "Tape",
    "TapeFormatError",
    "COLUMNS",
    "parse_tape",
    "serialize_tape",
    "file_digest",
    "write_columns",
    "read_columns",
    "cache_columns",
    "read_tape_cache",
]

# Duration floor, in nanoseconds: equal-timestamp events yield this instead of 0.
DURATION_FLOOR_NS = 1
BP = 1e4  # basis points per unit log return

_INT64_MAX = 2**63 - 1


class EventKind(str, Enum):
    LIT = "lit"
    DARK = "dark"


# Each side's text and its code in the side column; the other side tables derive from it.
_SIDE_CODE = {"buy": 1, "sell": -1, "unknown": 0}


class Side(str, Enum):
    BUY = "buy"
    SELL = "sell"
    UNKNOWN = "unknown"

    @property
    def sign(self) -> int:
        """Buy/sell indicator: +1 buy, -1 sell, 0 unknown."""
        return _SIDE_CODE[self.value]


SIDE_OF_SIGN = {code: Side(text) for text, code in _SIDE_CODE.items()}


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


# A tape's columns in cache-file order, truth last (a cache holds it in its
# header): name -> (dtype, value of an omitted column's rows). An omitted ts
# makes an empty tape.
COLUMNS = {
    "ts": (np.int64, 0),  # nanoseconds
    "is_lit": (np.bool_, True),
    "price": (np.float64, np.nan),
    "size": (np.float64, np.nan),
    "side": (np.int8, 0),  # +1 buy, -1 sell, 0 unknown
    "venue": (np.int32, -1),  # a code into the venues table; -1 no venue
    "mid": (np.float64, np.nan),  # NaN: absent
    "own": (np.int8, -1),  # 1 true, 0 false, -1 absent
    "truth": (object, None),  # a ground-truth dict; None: absent
}


@dataclass(frozen=True, eq=False)
class Tape:
    """One symbol's events as numpy columns (see the module docstring).

    Columns left as None default to absent values; ``truth`` takes one dict
    or None per row. ``Tape(symbol)`` is an empty tape. Rows are kept in the
    order given: ``parse_tape`` sorts, the constructor does not. Treat the
    columns as read-only; derived tapes share them.
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
    truth: np.ndarray | None = None
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        ts = np.asarray(self.ts if self.ts is not None else (), dtype=np.int64)
        if ts.ndim != 1:
            raise ValueError("ts must be a 1-d column")
        n = ts.size
        for name, (dtype, absent) in COLUMNS.items():
            values = getattr(self, name)
            column = np.full(n, absent, dtype) if values is None else np.asarray(values, dtype)
            if column.shape != (n,):
                raise ValueError(f"tape column has shape {column.shape}, expected ({n},)")
            object.__setattr__(self, name, column)
        object.__setattr__(self, "venues", tuple(self.venues))

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
                truth=truth,
            )
            for is_lit, ts, price, size, side, venue, mid, own, truth in zip(
                self.is_lit[index].tolist(),
                self.ts[index].tolist(),
                self.price[index].tolist(),
                self.size[index].tolist(),
                self.side[index].tolist(),
                self.venue[index].tolist(),
                self.mid[index].tolist(),
                self.own[index].tolist(),
                self.truth[index].tolist(),
            )
        ]

    def sorted(self) -> "Tape":
        """Stable sort by timestamp, lit before dark at equal timestamps."""
        order = np.lexsort((~self.is_lit, self.ts))
        if np.array_equal(order, np.arange(len(self))):
            return self
        return replace(self, **{name: getattr(self, name)[order] for name in COLUMNS})


_REQUIRED_FIELDS = ("kind", "ts", "symbol", "price", "size")
_required = itemgetter(*_REQUIRED_FIELDS)
_OWN_CODE = {None: -1, False: 0, True: 1}


def _row_from_obj(obj: dict[str, Any], line_no: int) -> tuple:
    """One decoded record checked and normalised, or the TapeFormatError of
    the first check it fails: the symbol as a string, and the row (its
    ``COLUMNS`` values, with the venue's name for its code)
    with numbers as floats and an absent mid as NaN. The checks run in a
    fixed order: the required fields, kind, ts, price and size (both through
    ``float`` first), side, venue, a dark fill's venue and side, mid, own,
    truth."""
    try:
        kind, ts, symbol, price, size = _required(obj)
    except KeyError:
        name = next(name for name in _REQUIRED_FIELDS if name not in obj)
        raise TapeFormatError(line_no, f"missing field '{name}'") from None
    is_lit = kind == "lit"
    if not is_lit and kind != "dark":
        raise TapeFormatError(line_no, f"unknown kind '{kind}'")
    if type(ts) is not int or not 0 <= ts <= _INT64_MAX:
        if not isinstance(ts, int) or isinstance(ts, bool):
            raise TapeFormatError(line_no, f"ts must be an integer, got {ts!r}")
        if ts < 0:
            raise TapeFormatError(line_no, f"negative ts {ts}")
        raise TapeFormatError(line_no, f"ts {ts} exceeds the int64 range")
    try:
        price = float(price)
        size = float(size)
    except (TypeError, ValueError, OverflowError):
        raise TapeFormatError(line_no, "price/size must be numeric") from None
    if not (0.0 < price < math.inf and 0.0 < size < math.inf):
        for name, value in (("price", price), ("size", size)):
            if not value > 0:
                raise TapeFormatError(line_no, f"{name} must be > 0, got {value}")
            if not math.isfinite(value):
                raise TapeFormatError(line_no, f"{name} must be finite, got {value}")
    side = obj.get("side", "unknown")
    if type(side) is not str or side not in _SIDE_CODE:
        raise TapeFormatError(line_no, f"unknown side '{side}'")
    venue = obj.get("venue")
    if venue is not None and type(venue) is not str:
        raise TapeFormatError(line_no, f"venue must be a string, got {venue!r}")
    if not is_lit:
        if not venue:
            raise TapeFormatError(line_no, "dark fill missing venue")
        if side == "unknown":
            raise TapeFormatError(line_no, "dark fill missing side")
    mid = obj.get("mid")
    if mid is None:
        mid = math.nan
    else:
        try:
            mid = float(mid)
        except (TypeError, ValueError, OverflowError):
            raise TapeFormatError(line_no, f"mid must be numeric, got {mid!r}") from None
        if not 0.0 < mid < math.inf:
            if not mid > 0:
                raise TapeFormatError(line_no, f"mid must be > 0, got {mid}")
            raise TapeFormatError(line_no, f"mid must be finite, got {mid}")
    own = obj.get("own")
    if own is not None and type(own) is not bool:
        raise TapeFormatError(line_no, f"own must be a boolean, got {own!r}")
    truth = obj.get("truth")
    if truth is not None and type(truth) is not dict:
        raise TapeFormatError(line_no, f"truth must be an object, got {truth!r}")
    return str(symbol), (ts, is_lit, price, size, _SIDE_CODE[side], venue, mid, _OWN_CODE[own], truth)


def _loads(line: str, line_no: int) -> Any:
    """json.loads of one line, its errors as TapeFormatError."""
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise TapeFormatError(line_no, f"invalid JSON ({exc.msg})") from None
    except RecursionError as exc:  # nested past the interpreter's recursion limit
        raise TapeFormatError(line_no, f"invalid JSON ({exc})") from None


def _check_columns(tape: Tape) -> None:
    """Raise ValueError with the first whole-column domain check that ``tape``
    fails; every tape parse_tape returns passes them all."""
    venue, side, own, mid = tape.venue, tape.side, tape.own, tape.mid[~np.isnan(tape.mid)]
    names_empty = np.array([not v for v in tape.venues] + [True])  # [-1] is the absent venue
    # (name, first value) of each of price, size and mid holding a value not finite and > 0
    bad = [(name, col[~((col > 0) & np.isfinite(col))]) for name, col in
           (("price", tape.price), ("size", tape.size), ("mid", mid))]
    bad = [(name, float(col[0])) for name, col in bad if col.size]
    bad_truth = [t for t in tape.truth.tolist() if t is not None and not isinstance(t, dict)]
    if not all(isinstance(v, str) for v in tape.venues):
        why = "venue names must be strings"
    elif np.any((venue < -1) | (venue >= len(tape.venues))):  # before names_empty[venue]
        why = "venue code out of range"
    elif np.any((side < -1) | (side > 1) | (own < -1) | (own > 1)):
        why = "side or own code out of range"
    elif np.any(tape.ts < 0):
        why = "negative ts"
    elif bad:
        name, value = bad[0]
        why = f"{name} must be {'finite' if value > 0 else '> 0'}, got {value}"
    elif np.any(~tape.is_lit & (names_empty[venue] | (side == 0))):
        why = "dark fill missing venue or side"
    elif bad_truth:
        why = f"truth must be a dict or None, got {bad_truth[0]!r}"
    else:
        return
    raise ValueError(f"tape fails parse_tape's checks: {why}")


def parse_tape(lines: Iterable[str]) -> Tape:
    """Parse line-delimited tape text into a validated, sorted Tape.

    Each line is stripped and decoded as ``json.loads`` would (blank lines
    are skipped); a meta record's fields fold into ``meta``; every other
    record is checked by ``_row_from_obj`` and must carry the first record's
    symbol. Errors name the offending 1-based line number: the first line
    that fails a check, with the first check it fails. The columns are built
    once at the end, venues numbered by first appearance, and the rows
    sorted. All fields round-trip bit-exactly through serialize_tape.
    """
    meta: dict[str, Any] = {}
    rows: list[tuple] = []
    symbol = None
    decode = json.JSONDecoder().raw_decode
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj, end = decode(line)
        except (ValueError, RecursionError):
            end = -1
        if end != len(line):  # json.loads raises its own error ("Extra data", ...)
            obj = _loads(line, line_no)
        if type(obj) is not dict:
            raise TapeFormatError(line_no, "record must be a JSON object")
        if obj.get("kind") == "meta":
            meta.update({k: v for k, v in obj.items() if k != "kind"})
            continue
        row_symbol, row = _row_from_obj(obj, line_no)
        if row_symbol != symbol:
            if symbol is not None:
                raise TapeFormatError(line_no, f"mixed symbols: expected '{symbol}', got '{row_symbol}'")
            symbol = row_symbol
        rows.append(row)
    n = len(rows)

    def field(i: int) -> Iterator:  # the rows' values at position i
        return map(itemgetter(i), rows)

    venues = dict.fromkeys(field(5))  # numbered by first appearance
    venues.pop(None, None)
    code = {name: i for i, name in enumerate(venues)}
    code[None] = -1
    columns = {name: np.fromiter(field(i), dtype, n)
               for i, (name, (dtype, _)) in enumerate(COLUMNS.items()) if name != "venue"}
    return Tape(
        symbol=symbol or "",
        venue=np.fromiter(map(code.__getitem__, field(5)), np.int32, n),
        venues=tuple(venues),
        meta=meta,
        **columns,
    ).sorted()


def json_floats(column: np.ndarray) -> list[str]:
    """JSON text of each float: repr, or json's spelling when not finite."""
    values = column.tolist()
    if np.all(np.isfinite(column)):
        return list(map(float.__repr__, values))
    return list(map(json.dumps, values))


# Rows the serializers format, join and write at a time: enough that the
# per-block costs vanish, few enough that a block's text (about 0.2 MB of
# tape) adds little to peak memory. Larger blocks are no faster and raise
# the writers' peak RSS (by 2-3 MB at 4096 rows on a 29 k-event tape).
BLOCK_ROWS = 1024
_KIND_TEXT = ('"dark"', '"lit"')
# JSON text of each side code.
SIDE_JSON = {code: f'"{text}"' for text, code in _SIDE_CODE.items()}
_OWN_TEXT = ("", ', "own": false', ', "own": true')


def serialize_tape(tape: Tape) -> Iterator[str]:
    """Yield tape lines (no trailing newline), which parse_tape reads back.

    Each line is ``json.dumps`` of the row's flat object (kind, ts, symbol,
    price, size and side, then venue, mid, own and truth where present),
    after the meta line if the tape has meta. The rows are formatted
    ``BLOCK_ROWS`` at a time from slices of the columns, with every string
    JSON-encoded once. A row's mid reuses its price's text when the two are
    bit-identical, as on every simulated row.
    """
    if tape.meta:
        yield json.dumps({"kind": "meta", **tape.meta}, sort_keys=True)
    symbol = json.dumps(tape.symbol)
    venues = [f', "venue": {json.dumps(v)}' for v in tape.venues] + [""]
    n = len(tape)
    for start in range(0, n, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, n)
        s = slice(start, stop)
        price, mid = tape.price[s], tape.mid[s]
        prices = json_floats(price)
        mids = [', "mid": ' + p for p in prices]
        absent = np.isnan(mid)
        for k in np.flatnonzero(absent | (mid.view(np.int64) != price.view(np.int64))).tolist():
            mids[k] = "" if absent[k] else f', "mid": {json.dumps(float(mid[k]))}'
        tails = ["}" if t is None else f', "truth": {json.dumps(t)}}}' for t in tape.truth[s].tolist()]
        yield from [
            f'{{"kind": {_KIND_TEXT[lit]}, "ts": {ts}, "symbol": {symbol}, '
            f'"price": {p}, "size": {size}, "side": {SIDE_JSON[side]}'
            f"{venues[venue]}{m}{_OWN_TEXT[own]}{tail}"
            for lit, ts, p, size, side, venue, m, own, tail in zip(
                tape.is_lit[s].tolist(),
                tape.ts[s].tolist(),
                prices,
                json_floats(tape.size[s]),
                tape.side[s].tolist(),
                tape.venue[s].tolist(),
                mids,
                (tape.own[s] + 1).tolist(),
                tails,
            )
        ]


CACHE_SUFFIX = ".cols"
_CACHE_VERSION = 1


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


def cache_columns(tape: Tape) -> tuple[dict[str, Any], list[np.ndarray]]:
    """write_columns' header and arrays for the text ``serialize_tape(tape)``:
    what parse_tape returns for that text, not ``tape`` (venues numbered by
    first appearance, unused ones dropped; ``meta`` and ``truth`` as JSON
    decodes them; rows sorted; symbol "" with no rows). Raises ValueError,
    by _check_columns, when parse_tape would reject the columns."""
    codes, first = np.unique(tape.venue[tape.venue >= 0], return_index=True)
    names: dict[str, int] = {}
    remap = np.full(len(tape.venues) + 1, -1, dtype=np.int32)  # [-1]: no venue
    for code in codes[np.argsort(first)].tolist():
        remap[code] = names.setdefault(tape.venues[code], len(names))
    meta = json.loads(json.dumps(tape.meta, sort_keys=True))  # as its meta line decodes
    symbol = tape.symbol if len(tape) else ""
    parsed = replace(tape, symbol=symbol, venue=remap[tape.venue], venues=tuple(names), meta=meta)
    _check_columns(parsed)
    parsed = parsed.sorted()
    rows = np.flatnonzero(parsed.truth != None)  # noqa: E711 (elementwise)
    truth = [[row, t] for row, t in zip(rows.tolist(), parsed.truth[rows].tolist())]
    header = {"symbol": parsed.symbol, "venues": list(parsed.venues), "meta": parsed.meta, "truth": truth}
    return header, [getattr(parsed, name) for name in COLUMNS if name != "truth"]


def read_tape_cache(file, digest: str) -> Tape:
    """The tape in column cache ``file``. Raises ValueError where read_columns
    does, on a malformed header, and when the columns fail parse_tape's checks."""
    header, columns = read_columns(file, digest, [dtype for name, (dtype, _) in COLUMNS.items() if name != "truth"])
    symbol, venues, meta, truth = map(header.get, ("symbol", "venues", "meta", "truth"))
    rows = range(len(columns[0]))
    if not (
        isinstance(symbol, str) and isinstance(venues, list) and isinstance(meta, dict)
        and isinstance(truth, list)
        and all(isinstance(p, list) and len(p) == 2 and type(p[0]) is int and p[0] in rows for p in truth)
    ):
        raise ValueError("malformed tape header")
    column = np.full(len(rows), None, object)  # filled in place: np.asarray of a list checks every item
    for row, obj in truth:
        column[row] = obj
    tape = Tape(symbol, venues=venues, meta=meta, truth=column, **dict(zip(COLUMNS, columns)))
    _check_columns(tape)
    return tape.sorted()
