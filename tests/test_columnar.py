"""Every command works on the tape's columns.

No command path builds a ``TapeEvent`` or a ``SurpriseRecord``, whether the
tape comes from its column cache, from the text or through the parser's
per-record fallback. The report's column functions equal their scalar
oracles and their row-form adapters with ``==``.
"""

import contextlib
import io
import json
import math
import shutil
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darkscope import surprise, tape
from darkscope.cli import main
from darkscope.simulator import PRESET_NAMES, preset, simulate_scenario
from darkscope.slippage import (
    CensoredFillError,
    PricePath,
    SlippageConfig,
    bucket_report,
    bucket_rows,
    fill_slippages,
    size_threshold_report,
    slippages,
    threshold_rows,
)
from darkscope.surprise import SurpriseRecord, score_columns, score_tape
from darkscope.tape import EventKind, Side, TapeEvent
from oracle import bucket_report as oracle_bucket_report
from oracle import post_fill_slippage

S = 1_000_000_000
SCENARIO = "duration=1500\nfills_per_order=5\nvenue.D1.leak_prob=0.5\nvenue.D2.leak_prob=0\n"
THRESHOLDS = [0.0, 5e3, 1e4, 3e4]


# ---------------------------------------------------------------------------
# No row objects on any command path


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def outcomes(sim: Path, work: Path) -> dict:
    """Exit code, stdout, stderr and output bytes of the five commands, with
    ``sim`` as their input and ``work/<command>`` as their output."""
    shutil.rmtree(work, ignore_errors=True)
    tape_file = ["--input", sim / "tape.jsonl"]
    path_file = ["--path", sim / "path.jsonl"]
    commands = {
        "simulate": ["--scenario", sim / "scenario.txt", "--seed", "4", "--output", work / "simulate"],
        "score": [*tape_file, "--output", work / "score"],
        "backtest": [*tape_file, *path_file, "--output", work / "backtest"],
        "report": [*tape_file, *path_file, "--output", work / "report"],
        "power": ["--mu", "0.5", "--sigma", "12", "--seeds", "20", "--seed", "1"],
    }
    results = {}
    for command, args in commands.items():
        code, stdout, stderr = run([command, *args])
        written = {f.name: f.read_bytes() for f in sorted((work / command).glob("*"))}
        results[command] = code, stdout, stderr, written
    return results


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    (root / "scenario.txt").write_text(SCENARIO)
    cached = root / "cached"
    assert run(["simulate", "--scenario", root / "scenario.txt", "--seed", "4", "--output", cached])[0] == 0
    plain = root / "plain"
    shutil.copytree(cached, plain)
    for cache in plain.glob("*.cols"):
        cache.unlink()
    fallback = root / "fallback"
    shutil.copytree(plain, fallback)
    lines = (fallback / "tape.jsonl").read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if '"kind": "dark"' in line)
    price = json.loads(lines[i])["price"]
    lines[i] = lines[i].replace(f'"price": {price!r}', f'"price": "{price!r}"')
    assert f'"price": "{price!r}"' in lines[i]
    (fallback / "tape.jsonl").write_text("\n".join(lines) + "\n")
    return {"cached": cached, "plain": plain, "fallback": fallback}


@pytest.mark.parametrize("name", ["cached", "plain", "fallback"])
def test_commands_build_no_row_objects(inputs, tmp_path, monkeypatch, name):
    want = outcomes(inputs[name], tmp_path / "work")
    assert all(code == 0 for code, *_ in want.values()), want

    def refuse(*args, **kwargs):
        raise AssertionError("a command built a row object")

    monkeypatch.setattr(tape, "TapeEvent", refuse)
    monkeypatch.setattr(surprise, "SurpriseRecord", refuse)
    with mock.patch.object(tape, "_parse_records", wraps=tape._parse_records) as fallback:
        assert outcomes(inputs[name], tmp_path / "work") == want
    assert fallback.called == (name == "fallback")


# ---------------------------------------------------------------------------
# Column functions against the oracles and the adapters


def check_report_columns(tp, path: PricePath, horizon_mult: float) -> None:
    """Every report column function on ``tp`` equals its oracle and its adapter."""
    cfg = SlippageConfig(tau=5.0)
    scores = score_columns(tp, 10, horizon_mult)
    records = score_tape(tp, 10, horizon_mult)
    fills = [r.fill for r in records]
    row = scores.row
    slip, covered = fill_slippages(tp.ts[row], tp.side[row], tp.mid[row], path, cfg)
    for fill, value, ok in zip(fills, slip.tolist(), covered.tolist()):
        if ok:
            assert value == post_fill_slippage(fill, path, cfg)
        else:
            assert math.isnan(value)
            with pytest.raises(CensoredFillError):
                post_fill_slippage(fill, path, cfg)
    values, also_covered = slippages(fills, path, cfg)
    assert np.array_equal(values, slip, equal_nan=True) and np.array_equal(also_covered, covered)

    keep = scores.fwd & covered
    pairs = [(r, v) for r, v, ok in zip(records, slip.tolist(), covered.tolist()) if ok]
    rows = bucket_rows(scores.p_fwd[keep], slip[keep], 10)
    assert rows == oracle_bucket_report(pairs, 10) == bucket_report(pairs, 10)

    shares = threshold_rows(scores.p_fwd, scores.fwd, tp.size[row], THRESHOLDS, 0.05)
    assert shares == size_threshold_report([(r, r.fill.size) for r in records], THRESHOLDS, 0.05)
    for threshold, got in zip(THRESHOLDS, shares):
        cohort = [r for r in records if r.p_fwd is not None and r.fill.size >= threshold]
        flagged = sum(r.p_fwd < 0.05 for r in cohort)
        assert (got.threshold, got.n) == (threshold, len(cohort))
        assert got.share == (flagged / len(cohort) if cohort else None)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_report_columns_match_the_oracles_on_presets(name, seed):
    tp, path = simulate_scenario(preset(name, seed=seed, duration=3000.0))
    check_report_columns(tp, path, 50.0)
    # every other mid absent, a path that covers the middle third only, and a
    # short horizon: many fills take the path's mid, are uncovered or censored
    tp = replace(tp, mid=np.where(np.arange(len(tp)) % 2 == 0, np.nan, tp.mid))
    middle = (path.ts >= 1000 * S) & (path.ts <= 2000 * S)
    check_report_columns(tp, PricePath(path.ts[middle], path.log_mid[middle]), 0.5)


p_values = st.none() | st.floats(0.0, 1.0)  # None: a censored fill
slip_values = st.floats(-1e6, 1e6)


@given(st.lists(st.tuples(p_values, slip_values), max_size=60), st.integers(1, 12))
@settings(max_examples=200, deadline=None)
def test_bucket_rows_match_the_loop(scored, buckets):
    fill = TapeEvent(EventKind.DARK, 0, "SYM", 1.0, 1.0, Side.BUY, venue="V")
    pairs = [(SurpriseRecord(fill, None, None, p, None, 1, 1.0), slip) for p, slip in scored]
    fwd = [(p, slip) for p, slip in scored if p is not None]
    p_fwd, slip = (np.array([x[i] for x in fwd], dtype=np.float64) for i in (0, 1))
    rows = bucket_rows(p_fwd, slip, buckets)
    assert rows == oracle_bucket_report(pairs, buckets) == bucket_report(pairs, buckets)
    assert sum(r.n for r in rows) == len(fwd)


@given(
    st.lists(st.tuples(p_values, st.floats(1e-3, 1e5)), min_size=1, max_size=60),
    st.lists(st.floats(0.0, 1e5), max_size=5),
    st.floats(1e-3, 0.999),
)
@settings(max_examples=200, deadline=None)
def test_threshold_rows_match_a_direct_count(scored, thresholds, alpha):
    fill = TapeEvent(EventKind.DARK, 0, "SYM", 1.0, 1.0, Side.BUY, venue="V")
    pairs = [(SurpriseRecord(fill, None, None, p, None, 1, 1.0), size) for p, size in scored]
    fwd = np.array([p is not None for p, _ in scored])
    p_fwd = np.array([0.0 if p is None else p for p, _ in scored])
    size = np.array([size for _, size in scored])
    rows = threshold_rows(p_fwd, fwd, size, thresholds, alpha)
    assert rows == size_threshold_report(pairs, thresholds, alpha)
    for threshold, got in zip(thresholds, rows):
        cohort = [p for p, s in scored if p is not None and s >= threshold]
        assert got.n == len(cohort)
        assert got.share == (sum(p < alpha for p in cohort) / len(cohort) if cohort else None)


fill_events = st.builds(
    lambda ts, side, mid: TapeEvent(EventKind.DARK, ts, "SYM", 100.0, 1.0, side, venue="V", mid=mid),
    st.integers(0, 40).map(lambda q: q * S // 2),
    st.sampled_from([Side.BUY, Side.SELL]),
    st.none() | st.floats(1e-3, 1e3),
)


@given(
    st.lists(fill_events, max_size=30),
    st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=8),
    st.integers(0, 10),
)
@settings(max_examples=200, deadline=None)
def test_fill_slippages_match_post_fill_slippage(fills, log_mids, start):
    # samples every 2 s from start s: fills before it or within tau of the end are uncovered
    path = PricePath(np.arange(len(log_mids)) * 2 * S + start * S, log_mids)
    cfg = SlippageConfig(tau=5.0)
    ts = np.array([f.ts for f in fills], dtype=np.int64)
    side = np.array([f.side.sign for f in fills], dtype=np.int8)
    mid = np.array([np.nan if f.mid is None else f.mid for f in fills])
    values, covered = fill_slippages(ts, side, mid, path, cfg)
    also = slippages(fills, path, cfg)
    assert np.array_equal(also[0], values, equal_nan=True) and np.array_equal(also[1], covered)
    for fill, value, ok in zip(fills, values.tolist(), covered.tolist()):
        if ok:
            assert value == post_fill_slippage(fill, path, cfg)
        else:
            assert math.isnan(value)
            with pytest.raises(CensoredFillError):
                post_fill_slippage(fill, path, cfg)
