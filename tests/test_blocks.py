"""The block serializers and writer: ``serialize_blocks`` and ``path_blocks``
give the row-at-a-time lines of ``oracle`` at every block boundary, and
``simulate`` keys its caches by the digest of the bytes it wrote.

Also: each command imports only the modules it runs (``--help`` loads
``cli`` and ``options`` and no numpy), and each public name has one home,
the module that defines it.
"""

import ast
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
from darkscope import cli, simulator
from darkscope.slippage import PricePath, path_blocks
from darkscope.tape import (
    BLOCK_ROWS,
    CACHE_SUFFIX,
    Tape,
    file_digest,
    serialize_blocks,
    serialize_tape,
)

B = BLOCK_ROWS
LENGTHS = (0, 1, B - 1, B, B + 1, 2 * B + 1)
ROOT = Path(__file__).resolve().parents[1]


def block_tape(n: int, meta: dict) -> Tape:
    """``n`` rows of every form the serializer meets, truth on the rows at
    each block's edges."""
    rng = np.random.default_rng(n)
    i = np.arange(n)
    price = rng.lognormal(4.6, 0.01, n)
    mid = price.copy()
    mid[i % 7 == 1] = np.nan  # absent
    mid[i % 7 == 2] = price[i % 7 == 2] * (1 + 2**-52)  # one ulp off
    mid[i % 7 == 3] = rng.lognormal(4.6, 0.01, (i % 7 == 3).sum())
    price[i % 11 == 5], mid[i % 11 == 5] = 0.0, -0.0  # equal, not bit-identical
    price[i % 13 == 6], mid[i % 13 == 6] = np.inf, np.inf  # bit-identical, json's spelling
    mid[i % 23 == 9] = -np.inf  # its own text, json's spelling
    price[i % 17 == 7], mid[i % 17 == 7] = np.nan, np.nan  # an absent mid beside a NaN price
    size = rng.lognormal(9.0, 1.0, n)
    size[i % 19 == 8] = -np.inf
    edges = {r for k in range(0, n + 1, B) for r in (k - 1, k, k + 1) if 0 <= r < n}
    return Tape(
        "Sé",
        ts=i * 1000,
        is_lit=i % 3 != 0,
        price=price,
        size=size,
        side=(i % 3 - 1).astype(np.int8),
        venue=np.where(i % 3 == 0, i % 2, -1),
        venues=("D1", "D\"2"),
        mid=mid,
        own=(i % 4 - 1).astype(np.int8).clip(-1, 1),
        truth={r: {"row": r, "edge": r % B} for r in sorted(edges)},
        meta=meta,
    )


@pytest.mark.parametrize("meta", [{}, {"seed": 3, "note": "m"}], ids=["no-meta", "meta"])
@pytest.mark.parametrize("n", LENGTHS)
def test_tape_blocks_equal_the_row_at_a_time_lines(n, meta):
    tp = block_tape(n, meta)
    blocks = list(serialize_blocks(tp))
    want = list(oracle.serialize_tape(tp))
    assert [line for block in blocks for line in block] == want
    assert list(serialize_tape(tp)) == want
    assert all(0 < len(block) <= B for block in blocks)
    assert len(blocks) == bool(meta) + math.ceil(n / B)
    if n > 20:  # every form above is on some row
        text = "\n".join(want)
        forms = ('"price": NaN', '"mid": Infinity', '"mid": -Infinity', '"size": -Infinity', '"mid": -0.0',
                 '"truth"')
        for form in forms:
            assert form in text, form


@pytest.mark.parametrize("n", LENGTHS)
def test_path_blocks_equal_the_row_at_a_time_lines(n):
    rng = np.random.default_rng(n)
    path = PricePath(np.arange(n, dtype=np.int64) * 7 - 3, rng.normal(4.6, 1.0, n))
    blocks = list(path_blocks(path))
    want = list(oracle.path_to_lines(path))
    assert [line for block in blocks for line in block] == want
    assert all(0 < len(block) <= B for block in blocks)


@pytest.mark.parametrize("n", (0, 1, B + 1))
def test_cache_is_keyed_by_the_digest_of_the_bytes_written(tmp_path, n):
    tp = block_tape(n, {"seed": 1})
    text = tmp_path / "tape.jsonl"
    cli._write_cached(text, serialize_tape(tp), ({}, [tp.ts]))
    assert text.read_text() == "".join(line + "\n" for line in oracle.serialize_tape(tp))
    with open(str(text) + CACHE_SUFFIX, "rb") as fh:
        assert json.loads(fh.readline())["sha256"] == file_digest(text)


def test_simulate_caches_carry_the_digest_of_their_text(tmp_path):
    out = tmp_path / "sim"
    scenario = simulator.format_scenario(simulator.preset("leaky", seed=2, duration=5000.0))
    (tmp_path / "scn.txt").write_text(scenario)
    assert cli.main(["simulate", "--scenario", str(tmp_path / "scn.txt"), "--output", str(out)]) == 0
    assert len((out / "tape.jsonl").read_text().splitlines()) > B  # more than one block
    for name in ("tape.jsonl", "path.jsonl"):
        with open(out / (name + CACHE_SUFFIX), "rb") as fh:
            assert json.loads(fh.readline())["sha256"] == file_digest(out / name)


# Library modules reported besides darkscope's own: numpy, which --help does
# not load; numpy.ma, which power's median does without; json, which cli
# imports where a command writes JSON; and logging, which cli never loads.
_LIBRARIES = ("numpy", "numpy.ma", "json", "logging")


@pytest.mark.parametrize(
    "command, unloaded",
    [
        ("simulate", ("darkscope.policy", "darkscope.evidence", "darkscope.surprise", "logging")),
        ("power", ("darkscope.simulator", "darkscope.policy", "darkscope.evidence", "darkscope.surprise",
                   "darkscope.slippage", "darkscope.tape", "numpy.ma", "json", "logging")),
        ("help", ("darkscope.simulator", "darkscope.policy", "darkscope.evidence", "darkscope.slippage",
                  "darkscope.surprise", "darkscope.tape", "json", "logging")),
    ],
)
def test_each_command_imports_only_the_modules_it_runs(tmp_path, command, unloaded):
    argv = {
        "simulate": ["simulate", "--preset", "leaky", "--seed", "1", "--output", str(tmp_path / "sim")],
        "power": ["power", "--mu", "0.5", "--sigma", "12", "--seeds", "5", "--seed", "1"],
        "help": ["--help"],
    }[command]
    code = (
        "import sys\n"
        "from darkscope import cli\n"
        f"code = cli.main({argv!r})\n"
        f"print(' '.join(m for m in sys.modules if m.startswith('darkscope.') or m in {_LIBRARIES!r}))\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.splitlines()[-1].split()
    assert "darkscope.cli" in loaded
    assert not set(unloaded) & set(loaded), loaded
    if command == "help":  # the parser reads options alone, which imports nothing
        assert sorted(loaded) == ["darkscope.cli", "darkscope.options"]


# bench/layers.py calls these two through slippage; ROADMAP item 11 removes them.
_BENCH_HELD = {("slippage", "min_fills_bound"), ("slippage", "empirical_crossing")}


def test_each_public_name_has_one_home():
    package = ROOT / "src" / "darkscope"
    init = ast.parse((package / "__init__.py").read_text())
    assert [type(node).__name__ for node in init.body] == ["Expr", "Assign"]
    assert ast.get_docstring(init) and ast.unparse(init.body[1].targets[0]) == "__version__"
    reexported = set()
    for file in sorted(package.glob("[!_]*.py")):  # every module but __init__
        module = importlib.import_module(f"darkscope.{file.stem}")
        imported = {
            alias.asname or alias.name
            for node in ast.parse(file.read_text()).body
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names
        }
        for name in getattr(module, "__all__", ()):
            home = getattr(getattr(module, name), "__module__", module.__name__)
            if name in imported or (home.startswith("darkscope.") and home != module.__name__):
                reexported.add((file.stem, name))
    assert reexported == _BENCH_HELD
    assert not hasattr(simulator, "PRESET_NAMES")
