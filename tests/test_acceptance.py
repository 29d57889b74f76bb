"""End-to-end acceptance suite.

Each test exercises one headline claim at desk scale, prints a PASS/FAIL
line, and enforces its runtime budget. Run verbosely with:

    pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from darkscope.cli import main as cli_main
from darkscope.evidence import chisq_survival_even, combine
from darkscope.policy import PolicyConfig, replay
from darkscope.simulator import fleet, preset, simulate_scenario
from darkscope.slippage import (
    SlippageConfig,
    bucket_rows,
    empirical_crossing,
    fill_slippages,
    min_fills_bound,
    threshold_rows,
)
from darkscope.surprise import score_columns


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {name} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


def test_criterion_1_null_uniformity():
    t0 = time.perf_counter()
    tape, _ = simulate_scenario(preset("null", seed=7))
    scores = score_columns(tape, window_size=10)
    ps = scores.p_fwd[scores.fwd][:10_000]
    elapsed = time.perf_counter() - t0
    d_stat = scipy.stats.kstest(ps, "uniform").statistic
    ok = ps.size == 10_000 and d_stat < 0.0163 and elapsed < 10.0
    report(
        1,
        "null p_fwd uniformity (KS at 1%)",
        ok,
        f"n={ps.size}, D={d_stat:.5f} < 0.0163, {elapsed:.1f}s < 10s",
    )


def test_criterion_2_chisq_survival_exactness():
    t0 = time.perf_counter()

    def oracle(x: float, k: int) -> float:
        def pdf(t):
            return math.exp((k - 1) * math.log(t) - t / 2 - k * math.log(2) - math.lgamma(k))

        # split at the density mode so quad cannot miss a distant peak
        cut = max(x + 1.0, 2.0 * (k - 1), 1.0)
        head, _ = scipy.integrate.quad(pdf, x, cut, epsabs=1e-14, epsrel=1e-13, limit=300)
        tail, _ = scipy.integrate.quad(pdf, cut, np.inf, epsabs=1e-14, epsrel=1e-13, limit=300)
        return head + tail

    xs = [0.0, 0.5, 2.0, 10.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 1500.0, 2000.0]
    worst = 0.0
    for k in range(1, 129):
        for x in xs:
            err = abs(chisq_survival_even(x, 2 * k) - (1.0 if x == 0 else oracle(x, k)))
            worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 5.0
    report(
        2,
        "chi-squared survival vs quadrature oracle",
        ok,
        f"max |err| = {worst:.2e} over k=1..128 x x in [0, 2000], {elapsed:.1f}s < 5s",
    )


def test_criterion_3_fisher_round_trip():
    worst = max(abs(combine([p]).combined_p - p) for p in (0.001, 0.05, 0.5, 0.99))
    ok = worst < 1e-12
    report(3, "single-p Fisher round trip", ok, f"max |combined_p - p| = {worst:.2e} < 1e-12")


def test_criterion_4_five_fill_detection_power():
    t0 = time.perf_counter()

    def firing_rate(name: str) -> float:
        fired = total = 0
        for seed in range(1000):
            scenario = preset(name, seed=seed, duration=400.0, dark_fill_rate=0.05)
            tape, _ = simulate_scenario(scenario)
            scores = score_columns(tape, window_size=10)
            ps = scores.p_fwd[scores.fwd][:5].tolist()
            if len(ps) < 5:
                continue
            total += 1
            fired += combine(ps).combined_p < 0.05
        return fired / total

    leaky_rate = firing_rate("leaky")
    null_rate = firing_rate("null")
    elapsed = time.perf_counter() - t0
    ok = leaky_rate >= 0.80 and null_rate <= 0.07 and elapsed < 60.0
    report(
        4,
        "5-fill detection power",
        ok,
        f"leaky {leaky_rate:.3f} >= 0.80, null {null_rate:.3f} <= 0.07, {elapsed:.1f}s < 60s",
    )


def test_criterion_5_slippage_by_pvalue_buckets():
    t0 = time.perf_counter()
    scenario = preset("leaky", seed=11, duration=200_000.0, dark_fill_rate=0.1, fills_per_order=None)
    tape, path = simulate_scenario(scenario)
    scores = score_columns(tape, window_size=10)
    row = scores.row
    values, covered = fill_slippages(tape.ts[row], tape.side[row], tape.mid[row], path, SlippageConfig(tau=5.0))
    keep = scores.fwd & covered
    rows = bucket_rows(scores.p_fwd[keep], values[keep], buckets=10)
    low, high = rows[0], rows[-1]
    elapsed = time.perf_counter() - t0
    n_fills = int(np.count_nonzero(~tape.is_lit))
    ok = (
        n_fills >= 20_000 * 0.97
        and low.n >= 500
        and high.n >= 500
        and low.mean >= 2 * high.mean
        and elapsed < 60.0
    )
    report(
        5,
        "low-p bucket slippage at least twice the high-p bucket",
        ok,
        f"fills={n_fills}, low mean {low.mean:.2f} bp (n={low.n}) >= 2 x "
        f"high mean {high.mean:.2f} bp (n={high.n}), {elapsed:.1f}s < 60s",
    )


def test_criterion_6_signalling_share_vs_min_size():
    t0 = time.perf_counter()
    scenario = preset("size_knee", seed=23, duration=300_000.0)
    tape, _ = simulate_scenario(scenario)
    scores = score_columns(tape, window_size=10)
    thresholds = [0.0, 5e3, 10e3, 15e3, 20e3, 25e3, 30e3, 35e3, 40e3, 45e3]
    rows = threshold_rows(scores.p_fwd, scores.fwd, tape.size[scores.row], thresholds, alpha=0.05)
    elapsed = time.perf_counter() - t0
    shares = [r.share for r in rows]
    knee_index = thresholds.index(30e3)
    unrestricted_ok = 0.45 <= shares[0] <= 0.55
    above_ok = all(0.15 <= s <= 0.25 for s in shares[knee_index:])
    monotone_ok = all(a >= b for a, b in zip(shares[: knee_index + 1], shares[1 : knee_index + 1]))
    flat_ok = all(abs(s - shares[knee_index]) <= 0.03 for s in shares[knee_index + 1 :])
    ok = unrestricted_ok and above_ok and monotone_ok and flat_ok and elapsed < 60.0
    report(
        6,
        "signalling share vs minimum fill size",
        ok,
        f"share(0)={shares[0]:.3f} in [0.45, 0.55], above-knee "
        f"{[f'{s:.3f}' for s in shares[knee_index:]]} in [0.15, 0.25], "
        f"monotone={monotone_ok}, flat={flat_ok}, {elapsed:.1f}s < 60s",
    )


def test_criterion_7_power_bound_and_crossing():
    t0 = time.perf_counter()
    bound = min_fills_bound(0.5, 12.0)
    crossing = empirical_crossing(0.5, 12.0, seeds=200, seed=5, t_target=2.0)
    elapsed = time.perf_counter() - t0
    ok = bound == 576.0 and 2 * bound <= crossing <= 8 * bound
    report(
        7,
        "minimum-fills bound and t=2 crossing",
        ok,
        f"T={bound:g} (= 576 exactly), crossing={crossing} in [{2 * bound:g}, {8 * bound:g}] "
        f"(4T={4 * bound:g}), {elapsed:.1f}s",
    )


def test_criterion_8_policy_backtest():
    t0 = time.perf_counter()

    def run(name: str):
        base = preset(name, seed=101, dark_fill_rate=0.05)
        scenario = fleet(base, n_venues=150, venue_span_s=600.0, stagger_s=300.0)
        tape, path = simulate_scenario(scenario)
        return replay(tape, path, PolicyConfig())

    leaky = run("leaky")
    competing = run("competing")
    elapsed = time.perf_counter() - t0
    reduction = 1.0 - leaky.abs_ratio
    comp_diff = abs(competing.mean_abs_on - competing.mean_abs_off)
    leaky_ok = reduction >= 0.20
    competing_ok = comp_diff < 2 * competing.diff_stderr
    ok = leaky_ok and competing_ok and elapsed < 120.0
    report(
        8,
        "policy replay: cuts leaky slippage, leaves competing alone",
        ok,
        f"leaky |slip| {leaky.mean_abs_off:.2f} -> {leaky.mean_abs_on:.2f} bp "
        f"({reduction:.0%} reduction >= 20%), competing diff {comp_diff:.2f} "
        f"< 2se {2 * competing.diff_stderr:.2f}, {elapsed:.1f}s < 120s",
    )


def test_criterion_9_cli_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    outputs = {}
    for run in ("a", "b"):
        sim = tmp_path / run / "sim"
        score = tmp_path / run / "score"
        back = tmp_path / run / "bt"
        rep = tmp_path / run / "rep"
        assert cli_main(["simulate", "--preset", "leaky", "--seed", "42", "--output", str(sim)]) == 0
        assert cli_main(["score", "--input", str(sim / "tape.jsonl"), "--output", str(score)]) == 0
        assert (
            cli_main(
                ["backtest", "--input", str(sim / "tape.jsonl"), "--path", str(sim / "path.jsonl"), "--output", str(back)]
            )
            == 0
        )
        assert (
            cli_main(
                ["report", "--input", str(sim / "tape.jsonl"), "--path", str(sim / "path.jsonl"), "--output", str(rep)]
            )
            == 0
        )
        capsys.readouterr()  # drop file-command chatter (mentions differing tmp dirs)
        assert cli_main(["power", "--mu", "0.5", "--sigma", "12", "--seed", "3", "--seeds", "50"]) == 0
        files = {}
        for d in (sim, score, back, rep):
            for f in sorted(d.iterdir()):
                files[f"{d.name}/{f.name}"] = f.read_bytes()
        files["power/stdout"] = capsys.readouterr().out.encode()
        outputs[run] = files
    elapsed = time.perf_counter() - t0
    same = outputs["a"].keys() == outputs["b"].keys() and all(
        outputs["a"][k] == outputs["b"][k] for k in outputs["a"]
    )
    report(
        9,
        "every CLI command byte-identical across reruns",
        same,
        f"{len(outputs['a'])} artifacts compared, {elapsed:.1f}s",
    )
