"""Column caches: ``simulate`` writes ``tape.jsonl.cols`` and ``path.jsonl.cols``,
and ``score``, ``backtest`` and ``report`` read them in place of the text.

A cache must load exactly what parsing its text returns, and a cache that
does not hold its text (stale, truncated, malformed or crafted) must give
the same exit code, stderr and output bytes as having no cache at all.
"""

import contextlib
import io
import json
import re
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darkscope import cli, simulator, slippage, tape
from darkscope.options import PRESETS
from darkscope.tape import Tape, cache_columns, serialize_tape
from oracle import tape_from_events
from test_wire import events, metas

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import pipeline  # noqa: E402

COLUMNS = ("ts", "is_lit", "price", "size", "side", "venue", "mid", "own")
TAPE_DTYPES = (np.int64, np.bool_, np.float64, np.float64, np.int8, np.int32, np.float64, np.int8)
COMMANDS = ("score", "backtest", "report")


def refuse(*args, **kwargs):
    raise AssertionError("the text was parsed")


def assert_same_tape(got: Tape, want: Tape) -> None:
    for name in COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), name
    assert (got.symbol, got.venues, got.meta) == (want.symbol, want.venues, want.meta)
    assert got.truth.tolist() == want.truth.tolist()
    assert list(serialize_tape(got)) == list(serialize_tape(want))


def simulate(scenario_text: str, seed: int, out: Path) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    (out / "scenario.txt").write_text(scenario_text)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["simulate", "--scenario", str(out / "scenario.txt"), "--seed", str(seed),
                         "--output", str(out / "sim")])
    assert code == 0
    return out / "sim"


def run_commands(sim: Path, out: Path) -> dict:
    """Exit code, stderr and output files of score, backtest and report on ``sim``."""
    results = {}
    for command in COMMANDS:
        args = [command, "--input", sim / "tape.jsonl", "--output", out / command]
        if command != "score":
            args += ["--path", sim / "path.jsonl"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([str(a) for a in args])
        files = sorted((out / command).glob("*"))
        results[command] = code, err.getvalue(), {f.name: f.read_bytes() for f in files}
    return results


# ---------------------------------------------------------------------------
# A cache holds what parsing its text returns


def scenarios():
    cases = {
        f"{name}-{seed}": (simulator.format_scenario(simulator.preset(name, seed=seed, duration=2000.0)), seed)
        for name in PRESETS
        for seed in (0, 1)
    }
    for name, workload in pipeline.WORKLOADS.items():
        for seed in (0, 1):
            cases[f"{name}-{seed}"] = workload(seed, smoke=False), seed
    return cases


@pytest.mark.parametrize("text, seed", scenarios().values(), ids=list(scenarios()))
def test_cache_loads_what_the_text_parses_to(tmp_path, text, seed):
    sim = simulate(text, seed, tmp_path)
    with open(sim / "tape.jsonl") as fh:
        want_tape = tape.parse_tape(fh)
    with open(sim / "path.jsonl") as fh:
        want_path = slippage.path_from_lines(fh)
    with mock.patch.object(tape, "parse_tape", refuse), mock.patch.object(slippage, "path_from_lines", refuse):
        got_tape = cli._read_tape(sim / "tape.jsonl")
        got_path = cli._read_path(sim / "path.jsonl")
    assert_same_tape(got_tape, want_tape)
    for name in ("ts", "log_mid"):
        a, b = getattr(got_path, name), getattr(want_path, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@given(evs=st.lists(events(), max_size=25), meta=metas, sort=st.booleans(), unused=st.booleans())
@settings(max_examples=150, deadline=None)
def test_cache_of_any_valid_tape_loads_what_the_text_parses_to(evs, meta, sort, unused):
    tp = tape_from_events("SYM", evs, meta)
    tp = tp.sorted() if sort else tp
    if unused:  # a venue no row uses, numbered first: parse drops it and renumbers
        tp = replace(tp, venues=("unused", *tp.venues), venue=np.where(tp.venue >= 0, tp.venue + 1, -1))
    columns = cache_columns(tp)
    assert columns is not None
    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / "tape.jsonl"
        cli._write_cached(file, tape.serialize_tape(tp), columns)
        with open(file) as fh:
            want = tape.parse_tape(fh)
        with mock.patch.object(tape, "parse_tape", refuse):
            assert_same_tape(cli._read_tape(file), want)


# ---------------------------------------------------------------------------
# The commands read the caches, and give the text's results without them


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    text = simulator.format_scenario(simulator.preset("leaky", seed=3, duration=1500.0))
    return simulate(text, 3, tmp_path_factory.mktemp("leaky"))


def test_commands_read_the_caches(sim_dir, tmp_path, monkeypatch):
    assert sorted(f.name for f in sim_dir.iterdir()) == [
        "path.jsonl", "path.jsonl.cols", "scenario.txt", "tape.jsonl", "tape.jsonl.cols"
    ]
    plain = tmp_path / "plain"
    shutil.copytree(sim_dir, plain, ignore=shutil.ignore_patterns("*.cols"))
    with monkeypatch.context() as m:
        m.setattr(tape, "file_digest", refuse)  # no cache, no hashing
        want = run_commands(plain, tmp_path / "parsed")
    assert sorted(f.name for f in plain.iterdir()) == ["path.jsonl", "scenario.txt", "tape.jsonl"]
    assert [code for code, _, _ in want.values()] == [0, 0, 0]
    monkeypatch.setattr(tape, "parse_tape", refuse)
    monkeypatch.setattr(slippage, "path_from_lines", refuse)
    assert run_commands(sim_dir, tmp_path / "cached") == want


def replace_bytes(file: Path, old: bytes, new: bytes) -> None:
    data = file.read_bytes()
    assert old in data
    file.write_bytes(data.replace(old, new, 1))


def header_line(sim: Path) -> bytes:
    return (sim / "tape.jsonl.cols").read_bytes().split(b"\n", 1)[0]


def rewrite(cache: Path, digest: str, dtypes, change) -> None:
    """Write the cache again, keyed by ``digest``, after ``change(header, arrays)``."""
    header, arrays = tape.read_columns(cache, digest, dtypes)
    change(header, arrays)
    tape.write_columns(cache, digest, {k: v for k, v in header.items() if k not in ("version", "sha256")}, arrays)


def change_tape_cache(change):
    def corrupt(sim):
        rewrite(sim / "tape.jsonl.cols", tape.file_digest(sim / "tape.jsonl"), TAPE_DTYPES, change)
    return corrupt


def change_path_cache(change):
    def corrupt(sim):
        rewrite(sim / "path.jsonl.cols", tape.file_digest(sim / "path.jsonl"), (np.int64, np.float64), change)
    return corrupt


def truncate(where):
    """The tape cache cut (or, past its end, padded with zero bytes) to ``where(data)`` bytes."""
    def corrupt(sim):
        cache = sim / "tape.jsonl.cols"
        data = cache.read_bytes()
        cache.write_bytes(data[: where(data)].ljust(where(data), b"\0"))
    return corrupt


def set_item(index, row, value):
    def change(header, arrays):
        arrays[index] = arrays[index].copy()
        arrays[index][row] = value
    return change


def set_column(index, value):
    def change(header, arrays):
        arrays[index] = value(arrays[index])
    return change


def write_npy_header(shape):
    """A ts column whose npy header claims ``shape``: nothing may be allocated for it."""
    def corrupt(sim):
        cache = sim / "tape.jsonl.cols"
        first = header_line(sim)
        with open(cache, "wb") as fh:
            fh.write(first + b"\n")
            np.lib.format.write_array_header_1_0(fh, {"descr": "<i8", "fortran_order": False, "shape": shape})
            fh.write(b"\0" * 64)
    return corrupt


def pickled_side(sim):
    cache = sim / "tape.jsonl.cols"
    header, arrays = tape.read_columns(cache, tape.file_digest(sim / "tape.jsonl"), TAPE_DTYPES)
    with open(cache, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        for i, column in enumerate(arrays):
            np.save(fh, column.astype(object) if i == 4 else column, allow_pickle=True)


CORRUPTIONS = {
    "text changed, still valid": lambda sim: replace_bytes(sim / "tape.jsonl", b'"price": 99.9', b'"price": 99.8'),
    "text changed, now invalid": lambda sim: replace_bytes(sim / "tape.jsonl", b'"price": 99.9', b'"price": -9.9'),
    "path text changed": lambda sim: replace_bytes(sim / "path.jsonl", b'"log_mid": 4.6', b'"log_mid": 4.5'),
    "empty cache": truncate(lambda data: 0),
    "cut in the header": truncate(lambda data: 40),
    "cut after the header": truncate(lambda data: data.index(b"\n") + 1),
    "cut in an npy header": truncate(lambda data: data.index(b"\n") + 30),
    "cut in the first column": truncate(lambda data: data.index(b"\n") + 300),
    "last byte cut": truncate(lambda data: len(data) - 1),
    "trailing byte": truncate(lambda data: len(data) + 1),
    "header not JSON": lambda sim: replace_bytes(sim / "tape.jsonl.cols", b'{"version": 1', b'{"version"; 1'),
    "header not an object": lambda sim: replace_bytes(sim / "tape.jsonl.cols", header_line(sim), b"[1, 2]"),
    "header nested past the recursion limit": lambda sim: replace_bytes(
        sim / "tape.jsonl.cols", header_line(sim), b"[" * 10**5
    ),
    "wrong version": lambda sim: replace_bytes(sim / "tape.jsonl.cols", b'{"version": 1', b'{"version": 2'),
    "truth row out of range": change_tape_cache(lambda h, a: h["truth"].append([len(a[0]), {}])),
    "truth object not a dict": change_tape_cache(lambda h, a: h["truth"][0].__setitem__(1, "x")),
    "venues not strings": change_tape_cache(lambda h, a: h.update(venues=[7])),
    "price float32": change_tape_cache(set_column(2, lambda c: c.astype(np.float32))),
    "ts one short": change_tape_cache(set_column(0, lambda c: c[:-1])),
    "venue 2-d": change_tape_cache(set_column(5, lambda c: c.reshape(-1, 1))),
    "nan price": change_tape_cache(set_item(2, 5, np.nan)),
    "negative ts": change_tape_cache(set_item(0, 0, -1)),
    "venue code past the table": change_tape_cache(set_item(5, -1, 1)),
    "venue code -2": change_tape_cache(set_item(5, -1, -2)),
    "side 2": change_tape_cache(set_item(4, 3, 2)),
    "pickled side": pickled_side,
    "npy header claims 1e12 rows": write_npy_header((10**12,)),
    "path ts not increasing": change_path_cache(set_item(0, 1, 0)),
    "path nan log_mid": change_path_cache(set_item(1, 2, np.nan)),
    "path ts int32": change_path_cache(set_column(0, lambda c: c.astype(np.int32))),
}


@pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=list(CORRUPTIONS))
def test_an_unusable_cache_gives_the_text_results(sim_dir, tmp_path, corrupt, monkeypatch):
    sim = tmp_path / "sim"
    shutil.copytree(sim_dir, sim)
    corrupt(sim)
    monkeypatch.setenv("DARKSCOPE_LOG", "DEBUG")
    with_cache = run_commands(sim, tmp_path / "with")
    debug = re.compile(r"DEBUG:darkscope\.cli:parsing .*: its column cache is not used: .*\n")
    assert any(debug.search(err) for _, err, _ in with_cache.values())
    with_cache = {command: (code, debug.sub("", err), files) for command, (code, err, files) in with_cache.items()}
    for cache in sim.glob("*.cols"):
        cache.unlink()
    assert run_commands(sim, tmp_path / "without") == with_cache
    assert not any("Traceback" in err for _, err, _ in with_cache.values())


def test_simulate_writes_no_cache_for_a_tape_the_parser_refuses(tmp_path, capsys):
    # nor any other file: simulate exits 1 before it makes its output directory.
    # These paths once reached the tape as mids of inf and 0; simulate now refuses
    # the path by its price.* keys, and cache_columns still refuses such a tape.
    good, _ = simulator.simulate_scenario(simulator.parse_scenario("seed=1\nduration=200\n"))
    for n, (lines, price, error) in enumerate([
        ("price.competing_drift=1e300\n", np.inf, "price must be finite, got inf"),
        ("price.leak_impact=1e308\nvenue.D.leak_prob=1\n", 0.0, "price must be > 0, got 0.0"),
    ]):
        scenario = tmp_path / f"scenario{n}.txt"
        scenario.write_text("seed=1\nduration=200\n" + lines)
        out = tmp_path / f"sim{n}"
        assert cli.main(["simulate", "--scenario", str(scenario), "--output", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: price path leaves the float range: check price.sigma_per_trade, "
            "price.competing_drift, price.leak_impact and price.start_mid"
        ]
        assert not out.exists()
        tp = replace(good, price=np.where(np.arange(len(good)) == 3, price, good.price))
        with pytest.raises(ValueError, match=f"^tape fails parse_tape's checks: {re.escape(error)}$"):
            cache_columns(tp)


def test_cache_columns_refuses_a_truth_that_is_not_a_dict():
    # parse_tape refuses the line this row serializes to, so no cache may hold it
    tp = Tape("S", ts=[1], is_lit=[True], price=[1.0], size=[1.0], truth=["x"])
    with pytest.raises(tape.TapeFormatError, match="^line 1: truth must be an object, got 'x'$"):
        tape.parse_tape(serialize_tape(tp))
    with pytest.raises(ValueError, match="^tape fails parse_tape's checks: truth must be a dict or None, got 'x'$"):
        cache_columns(tp)
