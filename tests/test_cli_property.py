"""The CLI contract, run in-process on small tapes of extreme but valid values.

Each command exits 0, 1 or 2, prints an ``error:`` line exactly when it exits
non-zero, raises nothing and writes no ``nan``/``inf`` without a stderr
``warning:``. As the tapes are valid, a command may fail only for want of
data: ``backtest`` on fewer than three dark fills, ``report`` when no fill
has two lit prints ahead of it.
"""

import contextlib
import io
import math
import re
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from darkscope.cli import main
from darkscope.slippage import PricePath, path_to_lines
from darkscope.tape import EventKind, Side, Tape, TapeEvent, serialize_tape

S = 1_000_000_000
EXTREMES = [5e-324, 1e-300, 1.0, 100.0, 1e300, 1e308]
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)

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
    tape = Tape.from_events("SYM", evs).sorted()
    dark = ~tape.is_lit
    too_little = {
        "score": False,
        "backtest": np.count_nonzero(dark) < 3,
        "report": not np.any(dark & (np.cumsum(tape.is_lit) >= 2)),
    }
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write(tmp / "tape.jsonl", serialize_tape(tape))
        write(tmp / "path.jsonl", path_to_lines(path))
        inputs = ["--input", tmp / "tape.jsonl", "--window-n", window_n]
        commands = {
            "score": inputs,
            "backtest": [*inputs, "--path", tmp / "path.jsonl"],
            "report": [*inputs, "--path", tmp / "path.jsonl"],
        }
        for command, args in commands.items():
            out = tmp / command
            code, err = run([command, *args, "--output", out])
            lines = err.splitlines()
            assert code in (0, 1, 2), (command, code, err)
            assert (code != 0) == too_little[command], (command, code, err)
            assert any(x.startswith("error:") for x in lines) == (code != 0), (command, err)
            if any(x.startswith("warning:") for x in lines):
                continue
            for file in out.glob("*") if out.exists() else ():
                text = file.read_text()
                assert not NON_FINITE.search(text), (command, file.name, err)
