import json

import numpy as np
import pytest

from darkscope.tape import (
    COLUMNS,
    EventKind,
    Side,
    Tape,
    TapeEvent,
    TapeFormatError,
    parse_tape,
    serialize_tape,
)
from oracle import parse_tape_scalar, tape_from_events


def lit(ts, symbol="SYM", price=100.0, size=500.0, side=Side.BUY, **kw):
    return TapeEvent(EventKind.LIT, ts, symbol, price, size, side, **kw)


def dark(ts, symbol="SYM", price=100.0, size=500.0, side=Side.BUY, venue="V1", **kw):
    return TapeEvent(EventKind.DARK, ts, symbol, price, size, side, venue=venue, **kw)


class TestParse:
    def test_three_valid_lines_round_trip(self):
        lines = [
            '{"kind": "lit", "ts": 1000, "symbol": "SYM", "price": 100.0, "size": 250.0, "side": "buy"}',
            '{"kind": "dark", "ts": 1500, "symbol": "SYM", "price": 100.5, "size": 5000.0, "side": "sell", "venue": "V1"}',
            '{"kind": "lit", "ts": 2000, "symbol": "SYM", "price": 99.5, "size": 125.0, "side": "unknown"}',
        ]
        tape = parse_tape(lines)
        assert len(tape) == 3
        assert [e.ts for e in tape] == [1000, 1500, 2000]
        assert tape.events[1].venue == "V1"
        assert tape.symbol == "SYM"

    def test_empty_input(self):
        assert len(parse_tape([])) == 0
        assert len(parse_tape(["", "   "])) == 0

    def test_zero_size_names_line(self):
        lines = [
            '{"kind": "lit", "ts": 1, "symbol": "S", "price": 1.0, "size": 10.0, "side": "buy"}',
            '{"kind": "lit", "ts": 2, "symbol": "S", "price": 1.0, "size": 0, "side": "buy"}',
        ]
        with pytest.raises(TapeFormatError, match="line 2"):
            parse_tape(lines)

    def test_dark_missing_venue(self):
        line = '{"kind": "dark", "ts": 1, "symbol": "S", "price": 1.0, "size": 1.0, "side": "buy"}'
        with pytest.raises(TapeFormatError, match="venue"):
            parse_tape([line])

    def test_dark_unknown_side(self):
        line = '{"kind": "dark", "ts": 1, "symbol": "S", "price": 1.0, "size": 1.0, "side": "unknown", "venue": "V"}'
        with pytest.raises(TapeFormatError, match="side"):
            parse_tape([line])

    def test_mixed_symbols(self):
        lines = [
            '{"kind": "lit", "ts": 1, "symbol": "A", "price": 1.0, "size": 1.0, "side": "buy"}',
            '{"kind": "lit", "ts": 2, "symbol": "B", "price": 1.0, "size": 1.0, "side": "buy"}',
        ]
        with pytest.raises(TapeFormatError, match="mixed symbols"):
            parse_tape(lines)

    def test_malformed_json_names_line(self):
        with pytest.raises(TapeFormatError, match="line 1"):
            parse_tape(["{nope"])

    def test_negative_price(self):
        line = '{"kind": "lit", "ts": 1, "symbol": "S", "price": -3.0, "size": 1.0, "side": "buy"}'
        with pytest.raises(TapeFormatError, match="price"):
            parse_tape([line])

    def test_parse_sorts_with_lit_first_tie_break(self):
        lines = [
            '{"kind": "dark", "ts": 5, "symbol": "S", "price": 1.0, "size": 1.0, "side": "buy", "venue": "V"}',
            '{"kind": "lit", "ts": 5, "symbol": "S", "price": 1.0, "size": 1.0, "side": "sell"}',
            '{"kind": "lit", "ts": 1, "symbol": "S", "price": 1.0, "size": 1.0, "side": "buy"}',
        ]
        tape = parse_tape(lines)
        assert [(e.ts, e.kind) for e in tape] == [
            (1, EventKind.LIT),
            (5, EventKind.LIT),
            (5, EventKind.DARK),
        ]


def record(**fields):
    obj = {"kind": "lit", "ts": 1, "symbol": "S", "price": 1.0, "size": 1.0, "side": "buy"}
    obj.update(fields)
    return json.dumps(obj)


@pytest.mark.parametrize(
    "line, message",
    [
        (record() + " x", "Extra data"),
        (record() + "{}", "Extra data"),
        ("\ufeff" + record(), "Unexpected UTF-8 BOM (decode using utf-8-sig)"),
        ("{nope", "Expecting property name enclosed in double quotes"),
    ],
    ids=["trailing-text", "two-objects", "bom", "bad-json"],
)
def test_undecodable_line_names_json_loads_message(line, message):
    with pytest.raises(TapeFormatError) as raised:
        parse_tape([record(), line])
    assert str(raised.value) == f"line 2: invalid JSON ({message})"


class TestParseRejectsBadNumbers:
    @pytest.mark.parametrize("name", ["price", "size", "mid"])
    def test_infinite_value_names_line(self, name):
        lines = [record(), record(ts=2, **{name: float("inf")})]
        with pytest.raises(TapeFormatError, match=f"line 2: {name} must be finite, got inf"):
            parse_tape(lines)

    @pytest.mark.parametrize("name", ["price", "size", "mid"])
    def test_nan_and_negative_infinity_rejected(self, name):
        for bad in (float("nan"), float("-inf")):
            with pytest.raises(TapeFormatError, match=f"line 1: {name} must be > 0"):
                parse_tape([record(**{name: bad})])

    def test_ts_beyond_int64_names_line(self):
        lines = [record(), record(ts=2**63)]
        with pytest.raises(TapeFormatError, match="line 2: ts 9223372036854775808 exceeds the int64"):
            parse_tape(lines)

    def test_ts_at_int64_max_accepted(self):
        assert parse_tape([record(ts=2**63 - 1)]).ts[0] == 2**63 - 1

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"price": 0, "size": 0}, "price must be > 0, got 0.0"),
            ({"price": float("inf"), "size": 0}, "price must be finite, got inf"),
            ({"price": 0, "size": "x"}, "price/size must be numeric"),
            ({"ts": -1, "price": 0}, "negative ts -1"),
            ({"kind": "x", "ts": -1}, "unknown kind 'x'"),
            ({"side": "up", "venue": 5}, "unknown side 'up'"),
            ({"kind": "dark", "venue": "", "side": "unknown"}, "dark fill missing venue"),
            ({"mid": "x", "own": "yes"}, "mid must be numeric, got 'x'"),
            ({"own": "yes", "truth": [1]}, "own must be a boolean, got 'yes'"),
            ({"ts": None, "price": None}, "missing field 'ts'"),
        ],
    )
    def test_first_failed_check_names_the_error(self, fields, message):
        obj = json.loads(record())
        obj.update(fields)
        line = json.dumps({k: v for k, v in obj.items() if v is not None})
        for parse in (parse_tape, parse_tape_scalar):
            with pytest.raises(TapeFormatError) as raised:
                parse([line])
            assert str(raised.value) == f"line 1: {message}"

    def test_numeric_strings_and_booleans_accepted_as_before(self):
        tape = parse_tape([record(price="2.5", size=True, mid=3)])
        assert (tape.price[0], tape.size[0], tape.mid[0]) == (2.5, 1.0, 3.0)


class TestSerialize:
    def test_round_trip_field_exact(self):
        events = (
            lit(1, price=100.123456789012345, size=0.1, mid=99.87654321),
            dark(2, price=3.0000000000000004, size=12345.6789, side=Side.SELL, own=False,
                 truth={"fill": "V1:f0", "leaked": True}),
            lit(3, side=Side.UNKNOWN),
        )
        tape = tape_from_events("SYM", events, meta={"scenario": "unit", "seed": 7})
        text = list(serialize_tape(tape))
        back = parse_tape(text)
        assert back.events == tape.events
        assert back.meta == tape.meta

    def test_floats_survive_bit_exact(self):
        e = lit(1, price=0.1 + 0.2, size=1e-15)
        back = parse_tape(serialize_tape(tape_from_events("SYM", (e,))))
        assert back.events[0].price == 0.30000000000000004
        assert back.events[0].size == 1e-15


class TestSorted:
    def test_interleaves_by_ts(self):
        tape = tape_from_events("SYM", (lit(1), lit(3), dark(2))).sorted()
        assert [(e.ts, e.kind) for e in tape] == [
            (1, EventKind.LIT),
            (2, EventKind.DARK),
            (3, EventKind.LIT),
        ]

    def test_tie_break_lit_first(self):
        tape = tape_from_events("SYM", (dark(5), lit(5))).sorted()
        assert [e.kind for e in tape] == [EventKind.LIT, EventKind.DARK]

    def test_keeps_every_row_stably(self):
        # rows of one ts and kind keep their given order
        events = (dark(4, price=1.0), lit(2, price=2.0), dark(4, price=3.0), lit(4, price=4.0), lit(2, price=5.0))
        tape = tape_from_events("SYM", events).sorted()
        assert len(tape) == len(events)
        assert tape.price.tolist() == [2.0, 5.0, 4.0, 1.0, 3.0]


class TestFromEvents:
    def test_foreign_symbol_raises(self):
        with pytest.raises(ValueError, match="event symbol 'SYM' != tape symbol 'OTHER'"):
            tape_from_events("OTHER", (lit(1),))


def test_event_objects_are_flat_key_value(tmp_path):
    tape = tape_from_events("SYM", (dark(2, truth={"fill": "V:f0"}),))
    line = list(serialize_tape(tape))[0]
    obj = json.loads(line)
    assert obj["kind"] == "dark"
    assert set(obj) <= {"kind", "ts", "symbol", "price", "size", "side", "venue", "mid", "own", "truth"}


@pytest.mark.parametrize("name", COLUMNS)
def test_constructor_fills_and_checks_each_column(name):
    dtype, absent = COLUMNS[name]
    tape = Tape("SYM", ts=[5, 3, 9])
    column = getattr(tape, name)
    assert column.dtype == np.dtype(dtype)
    if name == "ts":  # given, kept in order; an omitted ts is an empty tape
        assert column.tolist() == [5, 3, 9]
        assert Tape("SYM").ts.dtype == np.dtype(dtype) and len(Tape("SYM")) == 0
        with pytest.raises(ValueError, match=r"^tape column has shape \(3,\), expected \(2,\)$"):
            Tape("SYM", ts=[1, 2], price=[1.0, 2.0, 3.0])
    else:
        np.testing.assert_array_equal(column, np.full(3, absent, dtype))
        with pytest.raises(ValueError, match=r"^tape column has shape \(2,\), expected \(3,\)$"):
            Tape("SYM", ts=[5, 3, 9], **{name: np.ones(2, dtype)})


@pytest.mark.parametrize("truth", [{}, {0: {"fill": "V:f0"}}, {0: {"fill": "V:f0"}, 1: {}, 2: {"order": "o"}}])
def test_constructor_refuses_a_row_keyed_truth_mapping(truth):
    # truth is a column, one dict or None per row: a {row: dict} mapping is one object, of shape ()
    with pytest.raises(ValueError, match=r"^tape column has shape \(\), expected \(3,\)$"):
        Tape("SYM", ts=[5, 3, 9], truth=truth)
