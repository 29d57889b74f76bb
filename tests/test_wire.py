"""Wire-format pins: exact bytes of simulated tapes and paths, the parse /
serialize round trip, and parse errors against the per-record reference parser."""

import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darkscope import simulator
from darkscope.options import PRESETS
from darkscope.cli import main
from darkscope.tape import (
    EventKind,
    Side,
    TapeEvent,
    TapeFormatError,
    cache_columns,
    parse_tape,
    serialize_tape,
    write_columns,
)
from oracle import event_to_obj, parse_tape_scalar, path_to_lines, tape_from_events


def digest(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def pinned_scenarios():
    cases = {name: simulator.preset(name, seed=3, duration=600.0) for name in PRESETS}
    cases["fleet"] = simulator.fleet(simulator.preset("leaky", seed=5), 4, 120.0, 60.0, tail_s=30.0)
    cases["ties"] = simulator.parse_scenario(TIES)
    return cases


# Three concurrently active venues with latent fills and sweeps: many fills
# share a timestamp with another fill and many lit prints with another print,
# so the pins fix the simulator's row order at equal timestamps.
TIES = """name=ties
seed=4
duration=300
dark_fill_rate=1
fills_per_order=3
price.leak_impact=1.5
venue.A.latent_prob=1
venue.A.sweep_prob=1
venue.B.latent_prob=0.7
venue.B.leak_prob=0.5
venue.B.leak_latency_kind=fixed
venue.C.latent_prob=1
venue.C.sweep_prob=0.5
venue.C.active=50:200
"""


# (events, sha256 of the tape lines, sha256 of the path lines, sha256 of the
# tape's column cache), each line newline-terminated as the CLI writes it; the
# line digests recorded from the per-event implementation that preceded the
# columnar tape, the cache digests from the tape that kept its truth in a
# {row: dict} side table; the ties pin from the simulator that merged one tape
# per venue and stage.
PINNED = {
    "null": (1194, "375113ec11262767e865406d8f5d8ede727af6a6937046e841bcb964d9fa9693",
             "d81666a46627ad77d812c1f3a2c1e6c6a9d8afc485939439e069a8de7b3b0bce",
             "46b6203416048bfff36b610657e14161f5b27b938df290ac3d905c745518d381"),
    "leaky": (648, "8dc445e355f9898c031f5804f5d21835a6f06e63df287246d9b9e7ee9a8558f6",
              "c736d53e0407b6eee340c3a5f331db07714b5ea4c6e009e49cf71a83c2d463d5",
              "ac25f08bcdb21adbff26413af40b46c5e6b69f7aacbf590ac6e131e34403e26b"),
    "sweep": (645, "b245fda59426c93e742e6c2a08e503a9a2cbb49818da0fea9c9c8207d9ea84c9",
              "66d497efe499f3f0725da9f8f1d2dca8f09809311c831d7c2c238fcbb7cd817c",
              "2cf6f509aa92efa0997f0cc11065f482f9b24d4eeaedb5a6834f1328509676b7"),
    "latent": (630, "783a0dc95d9b81ab5113836b64cfc524de9a4cb7ad7fa545db0eca267b4e88a5",
               "d81666a46627ad77d812c1f3a2c1e6c6a9d8afc485939439e069a8de7b3b0bce",
               "99e41ec6b7c27bc185afe1a4b762b7e2220def15ac2a785a704a30d0918274ed"),
    "competing": (630, "a42eb0d03856c6694ca4988abf9047563f40daf23cc8c9484f190625137ad453",
                  "1fdf90e945ba6a875d2d8c7d5a8025fdf02c42111c198ae362d044d7917ca94c",
                  "e72e9163575c66ffa2b57fa30399ce1664b10b3b926656804fc72e1e9f23955a"),
    "size_knee": (681, "e33f5d33982d91437f8e173fd0c4c3dc809fe3992e8b3aa4c3d8b5ea336e9db3",
                  "bd0b3feabd4aa691401ac2172de764947475a1be6be324bd90a190de4879807a",
                  "fef7d4de525df039ce46f6eebe8525cc5826ccb3d345a37988266168668c1a3d"),
    "fleet": (401, "d84cceff56d3ea8b16eda3ae869d5628fbc08b96e69fd67dbd31913207e06d8f",
              "eb8f5dff6b193c94412d0753e4e8fa2905e7da1df0c41ad553fc75411f03f160",
              "f082dac31def58ffbab9369f4125461b9440f56fbf6d23b632d599aaf48846e6"),
    "ties": (1580, "baee699897133c6ab4310ebda6a7a7bb8c62f5388ddecc878c4b1516461b5649",
             "d56e1a029fa7091bd8a4555d915f308c867353daac32eb87808933011a24552e",
             "a69a9ed1d56404b78720bd11773e7f8df9cf01e3b59ff06f42e83bc58b2b9c36"),
}


@pytest.mark.parametrize("name, scenario", pinned_scenarios().items())
def test_simulated_bytes_pinned(name, scenario, tmp_path):
    tape, path = simulator.simulate_scenario(scenario)
    lines = list(serialize_tape(tape))
    cache = tmp_path / "tape.jsonl.cols"
    write_columns(cache, digest(lines), *cache_columns(tape))
    got = (len(tape), digest(lines), digest(path_to_lines(path)), hashlib.sha256(cache.read_bytes()).hexdigest())
    assert got == PINNED[name]
    assert lines[1:] == [json.dumps(event_to_obj(e)) for e in tape.events]
    assert digest(serialize_tape(parse_tape(lines))) == PINNED[name][1]


# sha256 of each preset's own scenario text (format_scenario at seed 1), which
# the pins above, at duration 600, do not cover; recorded from the Scenario(...)
# constructors that preceded the preset text in darkscope.options.
PRESET_TEXT = {
    "null": "de88ab9b7f4f9b82ea20253e02739467cf4b59f6ace2157cc87a6157795448d3",
    "leaky": "bdf4d76225dd3f334eb24a46915176135182c14dec403246945d788016bfc298",
    "sweep": "a2c1c4c1d5cfb03be91af5fd86bb75623623c131ef9f90ae08512b7c0907322a",
    "latent": "d16663c149019df2492b9bb7223a670ad08ef079836562c3a87104dcbe623804",
    "competing": "159da84afc602b7b954831c554e6f675c494240755154f71b8b84b3bcd49ab2d",
    "size_knee": "7498b4201d94eb00371f763368b3999669b6fbd686158b06fce9a4f1b9bd40fa",
}


def test_preset_text_pinned():
    assert tuple(PRESETS) == tuple(PRESET_TEXT)
    for name, want in PRESET_TEXT.items():
        text = simulator.format_scenario(simulator.preset(name, seed=1))
        assert hashlib.sha256(text.encode()).hexdigest() == want, name


def format_grid():
    """Scenarios over three venues that set every key the presets leave at
    its default: fills_per_order, a two-segment lit_schedule, size_leak_knee
    with leak_prob_large, active and leak_latency_kind=fixed."""
    for fills, knee, active in itertools.product((None, 15), (None, 25000.0), (None, (10.0, 250.5))):
        venues = tuple(
            simulator.VenueProfile(
                f"D{i}", leak_prob=0.125 * i, leak_latency_mean=0.002 * (i + 1),
                leak_latency_kind=("exp", "fixed")[i % 2], size_log_mu=8.0 + i, size_log_sigma=0.5,
                size_leak_knee=knee if i != 1 else None, leak_prob_large=0.375 if knee and i != 1 else 0.0,
                sweep_prob=0.0625 * i, latent_prob=0.03125 * i, active=active if i != 2 else None,
            )
            for i in range(3)
        )
        yield simulator.Scenario(
            symbol="XYZ", seed=7, duration=1234.5, lit_schedule=((0.0, 0.5), (600.0, 2.0)), dark_fill_rate=0.2,
            venues=venues, price=simulator.PriceModel(1.5, 0.25, -0.125, 50.0), fills_per_order=fills,
            lit_size_log_mu=8.5, lit_size_log_sigma=0.75, name="grid",
        )


def test_format_grid_text_pinned():
    # sha256 of the grid's texts end to end, recorded from the hand-written
    # format_scenario that preceded the key tables
    text = "".join(map(simulator.format_scenario, format_grid()))
    assert hashlib.sha256(text.encode()).hexdigest() == "910acc0e55e09456964a09977964e26d76cba97a0a36cd77d9006e196781ca94"


# (lines, sha256) of ``darkscope score``'s scored.jsonl on each pinned tape,
# recorded from the per-fill scorer, ledger fold and json.dumps lines that
# preceded the columnar ones (the ties pin from the columnar scorer).
SCORED = {
    "null": (2970, "6aa833121379bc61ba7bc6467750c37ac55b39ba2f82a0b7ed9abe90682b3b5e"),
    "leaky": (175, "5c3973f92c68911442cbf1a10230256c55f0bbc2303d89de0ccdc4620a3a07a1"),
    "sweep": (175, "9820afd4b84818175cfc7be45c5fd18ad706f535506816f71e3ee0d6997bc0d9"),
    "latent": (175, "f0a91466aff7f92679062a99d065c276223e2c7c2371ef6f0c4eaca6d7c31f11"),
    "competing": (175, "db2c94d0c3860ff1e65300fbda7aa021aa1e7b499a22d47b4b3f597d84deae48"),
    "size_knee": (290, "29d89da0571c8de7fa31ad6dd5030e1bb82f614ba8d8db7040195793b3a49ecc"),
    "fleet": (125, "34f2bbbf742417d619d26d24735930b12415cd4018d3b793a4034c2d01faa318"),
    "ties": (3808, "5167edd9ac69da3c600ba84c2955748f1ded3fe20eedf8ab398997e06873975f"),
}


@pytest.mark.parametrize("name, scenario", pinned_scenarios().items())
def test_scored_bytes_pinned(tmp_path, name, scenario):
    tape, _ = simulator.simulate_scenario(scenario)
    (tmp_path / "tape.jsonl").write_text("".join(line + "\n" for line in serialize_tape(tape)))
    assert main(["score", "--input", str(tmp_path / "tape.jsonl"), "--output", str(tmp_path)]) == 0
    data = (tmp_path / "scored.jsonl").read_bytes()
    assert (data.count(b"\n"), hashlib.sha256(data).hexdigest()) == SCORED[name]


# ---------------------------------------------------------------------------
# Round trip

finite = st.floats(min_value=1e-12, max_value=1e12, allow_nan=False, allow_infinity=False)
names = st.text(alphabet="AZéü东京 -_:0", min_size=1, max_size=6)
truths = st.none() | st.dictionaries(
    st.sampled_from(["fill", "order", "leaked", "injected_by"]),
    st.booleans() | st.integers(-5, 5) | names,
    max_size=3,
)


@st.composite
def events(draw):
    kind = draw(st.sampled_from([EventKind.LIT, EventKind.DARK]))
    dark = kind is EventKind.DARK
    sides = [Side.BUY, Side.SELL] if dark else list(Side)
    return TapeEvent(
        kind=kind,
        ts=draw(st.integers(0, 4) | st.integers(0, 2**63 - 1)),  # small range: ties
        symbol="SYM",
        price=draw(finite),
        size=draw(finite),
        side=draw(st.sampled_from(sides)),
        venue=draw(names) if dark else draw(st.none() | names),
        mid=draw(st.none() | finite),
        own=draw(st.none() | st.booleans()),
        truth=draw(truths),
    )


metas = st.dictionaries(st.sampled_from(["scenario", "seed", "note"]), st.integers(0, 9) | names)


def sorted_tape(evs, meta):
    return tape_from_events("SYM", evs, meta).sorted()


@given(evs=st.lists(events(), max_size=25), meta=metas)
@settings(max_examples=150, deadline=None)
def test_serialize_parse_serialize_is_identity(evs, meta):
    text = [json.dumps({"kind": "meta", **meta}, sort_keys=True)] if meta else []
    text += [json.dumps(event_to_obj(e)) for e in sorted_tape(evs, meta).events]
    assert list(serialize_tape(parse_tape(text))) == text


@given(evs=st.lists(events(), max_size=25), meta=metas)
@settings(max_examples=150, deadline=None)
def test_parse_of_serialize_gives_equal_columns(evs, meta):
    tape = sorted_tape(evs, meta)
    back = parse_tape(serialize_tape(tape))
    for column in ("ts", "is_lit", "price", "size", "side", "own"):
        assert np.array_equal(getattr(back, column), getattr(tape, column)), column
    assert np.array_equal(back.mid, tape.mid, equal_nan=True)
    names_of = lambda t: [t.venues[c] if c >= 0 else None for c in t.venue.tolist()]  # noqa: E731
    assert names_of(back) == names_of(tape)
    assert back.truth.tolist() == tape.truth.tolist() and back.meta == tape.meta
    assert back.symbol == (tape.symbol if len(tape) else "")
    assert back.events == tape.events


def test_non_finite_values_serialize_as_json_spells_them():
    evs = [
        TapeEvent(EventKind.LIT, 1, "SYM", math.inf, math.nan, Side.BUY, mid=-math.inf),
        TapeEvent(EventKind.LIT, 2, "SYM", 1.0, 2.0, Side.BUY),
    ]
    lines = list(serialize_tape(tape_from_events("SYM", evs)))
    assert lines == [json.dumps(event_to_obj(e)) for e in evs]


def test_equal_timestamp_ties_sort_lit_first_stably():
    evs = [
        TapeEvent(EventKind.DARK, 5, "SYM", 1.0, 1.0, Side.BUY, venue="A"),
        TapeEvent(EventKind.LIT, 5, "SYM", 2.0, 1.0, Side.SELL),
        TapeEvent(EventKind.DARK, 5, "SYM", 3.0, 1.0, Side.SELL, venue="B"),
        TapeEvent(EventKind.LIT, 5, "SYM", 4.0, 1.0, Side.BUY),
    ]
    tape = parse_tape(json.dumps(event_to_obj(e)) for e in evs)
    assert tape.price.tolist() == [2.0, 4.0, 1.0, 3.0]


# ---------------------------------------------------------------------------
# Errors: parse_tape against the per-record reference parser (oracle.parse_tape_scalar)

BAD_VALUES = {
    "kind": ["meta-ish", "", None, 3, ["lit"]],
    "ts": [-1, 2**63, 1.5, True, "7", None],
    "symbol": ["OTHER", 5, None],
    "price": [0, -1.0, math.inf, -math.inf, math.nan, "2.5", "x", True, None, 10**400, [1]],
    "size": [0, math.inf, math.nan, "1e3", False, None],
    "side": ["up", None, 1, "unknown"],
    "venue": ["", 5, None],
    "mid": [0, math.inf, math.nan, "4", "x", True, [1]],
    "own": ["yes", 1, None],
    "truth": [[1], "t", 0],
}


@st.composite
def adversarial_lines(draw):
    evs = draw(st.lists(events(), min_size=1, max_size=8))
    objs = [event_to_obj(e) for e in evs]
    raw: dict[int, str] = {}
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(objs) - 1))
        how = draw(st.sampled_from(["set", "drop", "raw"]))
        name = draw(st.sampled_from(sorted(BAD_VALUES)))
        if how == "raw":
            raw[i] = draw(st.sampled_from(["{nope", "[1, 2]", "7", '"text"', "", "  ",
                                           '{"kind": "meta", "note": 1}']))
        elif how == "drop":
            objs[i].pop(name, None)
        else:
            objs[i][name] = draw(st.sampled_from(BAD_VALUES[name]))
    return [raw.get(i, json.dumps(obj)) for i, obj in enumerate(objs)]


def outcome(parse, lines):
    try:
        tape = parse(lines)
    except TapeFormatError as exc:
        return ("rejected", str(exc))
    except (ValueError, TypeError) as exc:
        return ("raised", type(exc).__name__, str(exc))
    return ("accepted", list(serialize_tape(tape)))


@pytest.mark.parametrize(
    "name, value", [(name, value) for name, values in BAD_VALUES.items() for value in values]
)
@pytest.mark.parametrize("row", [0, 2])
def test_each_bad_value_matches_per_record_validator(name, value, row):
    evs = [
        TapeEvent(EventKind.LIT, 1, "SYM", 1.0, 2.0, Side.BUY, mid=1.5),
        TapeEvent(EventKind.DARK, 2, "SYM", 1.0, 2.0, Side.SELL, venue="V", own=True, truth={}),
        TapeEvent(EventKind.DARK, 2, "SYM", 1.0, 2.0, Side.BUY, venue="W"),
    ]
    objs = [event_to_obj(e) for e in evs]
    objs[row][name] = value
    lines = [json.dumps(obj) for obj in objs]
    assert outcome(parse_tape, lines) == outcome(parse_tape_scalar, lines)
    del objs[row][name]
    lines = [json.dumps(obj) for obj in objs]
    assert outcome(parse_tape, lines) == outcome(parse_tape_scalar, lines)


@given(lines=adversarial_lines())
@settings(max_examples=400, deadline=None)
def test_errors_match_per_record_validator(lines):
    assert outcome(parse_tape, lines) == outcome(parse_tape_scalar, lines)
    assert outcome(parse_tape, iter(lines)) == outcome(parse_tape_scalar, lines)
