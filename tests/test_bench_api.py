"""The library API the benchmark's traced run (bench/layers.py) calls.

A smoke-size desk-day run directory is written through the CLI, then every
command's traced replay and the growth replay run on it, so an API change
that would crash the benchmark fails here. No timing is asserted.
"""

import sys
from pathlib import Path

import pytest

from darkscope import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import layers  # noqa: E402
import pipeline  # noqa: E402

SEED = 0


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("desk-day")
    (run_dir / "scenario.txt").write_text(pipeline.desk_day(SEED, smoke=True))
    for command in ("simulate", "score", "backtest", "report"):
        assert cli.main(pipeline.command_args(command, run_dir, SEED)) == 0
    return run_dir


def test_every_traced_command_runs(run_dir):
    traces = {}
    for command in (*pipeline.COMMANDS, "growth"):
        rec = layers.Recorder()
        counts = layers.traced_command(command, run_dir, SEED, rec)
        traces[command] = {"spans": rec.spans, "counts": counts, "span_cost_s": 0.0}
    wall = {command: 1.0 for command in pipeline.COMMANDS}
    metrics = layers.layer_metrics(traces, wall, dict(wall), tape_bytes=1)
    with open(run_dir / "sim/tape.jsonl") as fh:
        events = sum(1 for line in fh if '"kind": "meta"' not in line)
    assert metrics["simulator.events"] == events
    assert metrics["surprise.fills_scored"] > 0
    assert metrics["evidence.updates"] > 0
    assert metrics["policy.orders"] > 0
    assert 0 < metrics["slippage.covered_share"] <= 1
