"""The CLI contract, run in-process on small tapes of extreme but valid values.

Each command exits 0, 1 or 2, prints an ``error:`` line exactly when it exits
non-zero, raises nothing and writes no ``nan``/``inf``, except a ``nan`` in a
``summary.tsv`` column that a stderr ``warning: <column> nan:`` line names.
As the tapes are valid, a command may fail only for want of data:
``backtest`` on fewer than three dark fills. A command's ``--output`` exists
exactly when it exits 0. With the column caches ``simulate`` would write
beside the tape and path, each command gives the same exit code, stderr and
output bytes as without them. Shifted so that the last timestamp is
2**63 - 1, the same tapes exit 0 or 1, with exactly one ``error:`` line on
exit 1. Extreme values of the float options exit 0 or 1, with exactly one
``error:`` line on exit 1 and an ``--output`` only on exit 0; so do the
integer options at, around and far beyond their bounds, exiting 1 outside
them.
"""

import contextlib
import dataclasses
import io
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darkscope.cli import _write_cached, main
from darkscope.options import MAX_CROSSING_SEEDS, MAX_KMAX, MAX_WINDOW
from darkscope.slippage import PricePath, path_lines
from darkscope.tape import EventKind, Side, Tape, TapeEvent, cache_columns, serialize_tape
from oracle import path_to_lines, tape_from_events

S = 1_000_000_000
EXTREMES = [5e-324, 1e-300, 1.0, 100.0, 1e300, 1e308]
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)
WARNED_NAN = re.compile(r"^warning: (\S+) nan:", re.MULTILINE)
INT64_MAX = 2**63 - 1

values = st.sampled_from(EXTREMES)


@st.composite
def events(draw):
    lit = draw(st.booleans())
    return TapeEvent(
        kind=EventKind.LIT if lit else EventKind.DARK,
        # a coarse grid, so lit/dark ties are common
        ts=draw(st.integers(0, 40)) * S // 4,
        symbol="SYM",
        price=draw(values),
        size=draw(values),
        side=draw(st.sampled_from([Side.BUY, Side.SELL])),
        venue=None if lit else draw(st.sampled_from(["A", "B"])),
        mid=draw(st.none() | values),
        truth=None if lit else draw(st.none() | st.builds(lambda o: {"order": o}, st.sampled_from("xyz"))),
    )


paths = st.tuples(values, values).map(
    lambda mids: PricePath([0, 12 * S], [math.log(m) for m in mids])
)


def write(path: Path, lines) -> None:
    path.write_text("".join(line + "\n" for line in lines))


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


@given(
    evs=st.lists(events(), min_size=4, max_size=60),
    path=paths,
    window_n=st.sampled_from(["1", "10"]),
)
@settings(max_examples=150, deadline=None)
def test_cli_contract_on_extreme_tapes(evs, path, window_n):
    tape = tape_from_events("SYM", evs).sorted()
    dark = ~tape.is_lit
    too_little = {  # score and report write their tables (warning when empty) for any tape
        "score": False,
        "backtest": np.count_nonzero(dark) < 3,
        "report": False,
    }
    with tempfile.TemporaryDirectory() as tmp:
        without = outcomes(Path(tmp) / "plain", tape, path, window_n, cached=False)
        for command, (code, err, files) in without.items():
            lines = err.splitlines()
            assert code in (0, 1, 2), (command, code, err)
            assert (code != 0) == too_little[command], (command, code, err)
            assert any(x.startswith("error:") for x in lines) == (code != 0), (command, err)
            assert (Path(tmp) / "plain" / command).exists() == (code == 0), (command, code, err)
            assert_nan_only_where_warned(command, files, err)
        assert outcomes(Path(tmp) / "cached", tape, path, window_n, cached=True) == without


def assert_nan_only_where_warned(command: str, files: dict, err: str) -> None:
    """No output file holds a nan or inf, but for a nan in a ``summary.tsv``
    column that a ``warning: <column> nan:`` line on stderr names."""
    warned = set(WARNED_NAN.findall(err))
    for name, data in files.items():
        text = data.decode()
        if name == "summary.tsv":
            header, *rows = (line.split("\t") for line in text.splitlines())
            assert warned <= set(header), (command, warned, header)
            for row in rows:
                for column, value in zip(header, row, strict=True):
                    if value != "nan" or column not in warned:
                        assert not NON_FINITE.search(value), (command, name, column, err)
        else:
            assert not NON_FINITE.search(text), (command, name, err)


@given(
    evs=st.lists(events(), min_size=4, max_size=60),
    path=paths,
    window_n=st.sampled_from(["1", "10"]),
)
@settings(max_examples=50, deadline=None)
def test_cli_contract_near_the_int64_limit(evs, path, window_n):
    tape = tape_from_events("SYM", evs).sorted()
    shift = INT64_MAX - max(int(tape.ts[-1]), int(path.ts[-1]))
    tape = dataclasses.replace(tape, ts=tape.ts + shift)
    path = PricePath(path.ts + shift, path.log_mid)
    with tempfile.TemporaryDirectory() as tmp:
        for cached in (False, True):
            results = outcomes(Path(tmp) / str(cached), tape, path, window_n, cached=cached)
            for command, (code, err, _) in results.items():
                errors = [line for line in err.splitlines() if line.startswith("error:")]
                assert code in (0, 1), (command, cached, code, err)
                assert len(errors) == code, (command, cached, err)
                assert "Traceback" not in err, (command, cached, err)


def outcomes(tmp: Path, tape: Tape, path: PricePath, window_n: str, cached: bool) -> dict:
    """Exit code, stderr and output files of each command on ``tape`` and
    ``path`` written into ``tmp``, with simulate's column caches if ``cached``."""
    tmp.mkdir()
    if cached:
        _write_cached(tmp / "tape.jsonl", serialize_tape(tape), cache_columns(tape))
        _write_cached(tmp / "path.jsonl", path_lines(path), ({}, [path.ts, path.log_mid]))
        assert (tmp / "tape.jsonl.cols").exists() and (tmp / "path.jsonl.cols").exists()
    else:
        write(tmp / "tape.jsonl", serialize_tape(tape))
        write(tmp / "path.jsonl", path_to_lines(path))
    inputs = ["--input", tmp / "tape.jsonl", "--window-n", window_n]
    commands = {
        "score": inputs,
        "backtest": [*inputs, "--path", tmp / "path.jsonl"],
        "report": [*inputs, "--path", tmp / "path.jsonl"],
    }
    results = {}
    for command, args in commands.items():
        out = tmp / command
        code, err = run([command, *args, "--output", out])
        files = {f.name: f.read_bytes() for f in sorted(out.glob("*"))} if out.exists() else {}
        results[command] = code, err, files
    return results


# The commands that take each float option, and the values drawn for it.
FLOAT_OPTIONS = {
    "--tau": ("report",),
    "--horizon-mult": ("score", "backtest", "report"),
    "--alpha": ("backtest", "report"),
}
FLOAT_VALUES = ["5e-324", "1e-300", "1e300", "1.7e308", "inf", "nan", "-1"]


@pytest.mark.parametrize("value", FLOAT_VALUES)
@pytest.mark.parametrize("option", list(FLOAT_OPTIONS))
@given(evs=st.lists(events(), min_size=4, max_size=40), path=paths)
@settings(max_examples=10, deadline=None)
def test_extreme_float_options_exit_cleanly(option, value, evs, path):
    tape = tape_from_events("SYM", evs).sorted()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write(tmp / "tape.jsonl", serialize_tape(tape))
        write(tmp / "path.jsonl", path_to_lines(path))
        for command in FLOAT_OPTIONS[option]:
            argv = [command, "--input", tmp / "tape.jsonl", "--output", tmp / command, option, value]
            if command != "score":
                argv += ["--path", tmp / "path.jsonl"]
            code, err = run(argv)
            errors = [line for line in err.splitlines() if line.startswith("error:")]
            assert code in (0, 1), (command, code, err)
            assert len(errors) == code, (command, err)
            assert (tmp / command).exists() == (code == 0), (command, code, err)


# The commands that take each integer option, its bound, and the power
# arguments under which every walk crosses in its first block.
INT_OPTIONS = {
    "--window-n": (("score", "backtest", "report"), MAX_WINDOW),
    "--kmax": (("score", "backtest"), MAX_KMAX),
    "--seeds": (("power",), MAX_CROSSING_SEEDS),
}
QUICK_POWER = ["--mu", "5", "--sigma", "12", "--seed", "1"]


class GuardedSeedSequence:
    """np.random.SeedSequence that refuses to spawn more children than the
    cap, so that no walk over more seeds than the cap starts."""

    real = np.random.SeedSequence

    def __init__(self, entropy):
        self.seq = self.real(entropy)

    def spawn(self, n):
        assert n <= MAX_CROSSING_SEEDS, f"asked for {n} generators"
        return self.seq.spawn(n)


@pytest.mark.parametrize(
    "option, value",
    [(option, value) for option, (_, cap) in INT_OPTIONS.items() for value in (-1, 0, 1, cap, cap + 1, 10**20)],
)
@given(evs=st.lists(events(), min_size=4, max_size=40), path=paths)
@settings(max_examples=5, deadline=None)
def test_extreme_int_options_exit_cleanly(option, value, evs, path):
    commands, cap = INT_OPTIONS[option]
    tape = tape_from_events("SYM", evs).sorted()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.random, "SeedSequence", GuardedSeedSequence)
        tmp = Path(tmp)
        write(tmp / "tape.jsonl", serialize_tape(tape))
        write(tmp / "path.jsonl", path_to_lines(path))
        for command in commands:
            if command == "power":
                argv = ["power", *QUICK_POWER]
            else:
                argv = [command, "--input", tmp / "tape.jsonl", "--output", tmp / command]
                if command != "score":
                    argv += ["--path", tmp / "path.jsonl"]
            code, err = run([*argv, option, value])
            errors = [line for line in err.splitlines() if line.startswith("error:")]
            assert code in (0, 1), (command, code, err)
            assert len(errors) == code, (command, err)
            if command != "power":
                assert (tmp / command).exists() == (code == 0), (command, code, err)
            if not 1 <= value <= cap:
                assert code == 1, (command, err)
