import json

import pytest

from darkscope.tape import (
    EventKind,
    Side,
    Tape,
    TapeEvent,
    TapeFormatError,
    merge_streams,
    parse_tape,
    serialize_tape,
)
from oracle import tape_from_events


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


class TestMerge:
    def test_interleaves_by_ts(self):
        a = tape_from_events("SYM", (lit(1), lit(3)))
        b = tape_from_events("SYM", (dark(2),))
        merged = merge_streams(a, b)
        assert [(e.ts, e.kind) for e in merged] == [
            (1, EventKind.LIT),
            (2, EventKind.DARK),
            (3, EventKind.LIT),
        ]

    def test_tie_break_lit_first(self):
        merged = merge_streams(tape_from_events("SYM", (lit(5),)), tape_from_events("SYM", (dark(5),)))
        assert [e.kind for e in merged] == [EventKind.LIT, EventKind.DARK]

    def test_merge_with_empty_is_identity(self):
        a = tape_from_events("SYM", (lit(1), dark(2), lit(3)))
        merged = merge_streams(a, Tape("SYM"))
        assert merged.events == a.events

    def test_symbol_mismatch(self):
        with pytest.raises(ValueError, match="symbol mismatch"):
            merge_streams(tape_from_events("A", (lit(1, symbol="A"),)), tape_from_events("B", (dark(1, symbol="B"),)))

    def test_preserves_event_multiset_and_count(self):
        a = tape_from_events("SYM", (lit(1), lit(2), lit(2)))
        b = tape_from_events("SYM", (dark(1), dark(4)))
        merged = merge_streams(a, b)
        assert len(merged) == len(a) + len(b)
        assert sorted(e.ts for e in merged) == [1, 1, 2, 2, 4]

    def test_associative_up_to_tie_break(self):
        a = tape_from_events("SYM", (lit(1), lit(5)))
        b = tape_from_events("SYM", (dark(2),))
        c = tape_from_events("SYM", (dark(5), dark(9)))
        left = merge_streams(merge_streams(a, b), c)
        right = merge_streams(a, merge_streams(Tape("SYM"), merge_streams(b, c)))
        assert left.events == right.events

    def test_three_parts_equal_two_nested_merges(self):
        a = tape_from_events("SYM", (lit(1), dark(4, venue="V2", truth={"fill": "V2:f0"})),
                             meta={"scenario": "a", "seed": 1})
        b = tape_from_events("SYM", (dark(2), lit(4, truth={"injected_by": "V1:f0"})),
                             meta={"seed": 2})
        c = tape_from_events("SYM", (dark(4, venue="V3"), dark(0, truth={"fill": "V1:f1"})),
                             meta={"part": "c"})
        flat = merge_streams(a, b, c)
        nested = merge_streams(merge_streams(a, b), c)
        assert flat.events == nested.events
        assert flat.venues == nested.venues == ("V2", "V1", "V3")
        assert flat.truth == nested.truth
        assert flat.meta == nested.meta == {"scenario": "a", "seed": 2, "part": "c"}


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
