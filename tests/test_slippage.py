import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from darkscope.options import MAX_BUCKETS
from darkscope.power import MAX_CROSSING_FILLS, empirical_crossing, min_fills_bound, seed_median
from darkscope.policy import arrival_slippage
from darkscope.slippage import (
    CensoredFillError,
    PricePath,
    SlippageConfig,
    bucket_report,
    path_from_lines,
    size_threshold_report,
    slippages,
)
from darkscope.surprise import SurpriseRecord
from darkscope.tape import BP, EventKind, Side, TapeEvent
from oracle import path_to_lines, post_fill_slippage, tape_from_events

S = 1_000_000_000


def fill(ts_ns, side=Side.BUY, mid=None, price=100.0, size=1000.0):
    return TapeEvent(EventKind.DARK, ts_ns, "SYM", price, size, side, venue="V1", mid=mid)


def flat_path(value=100.0, t0=0, t1=100 * S):
    return PricePath(np.array([t0, t1]), np.log(np.array([value, value])))


def step_path(points, extend_to=100 * S):
    # hold the last value out to extend_to so short horizons stay covered
    if extend_to is not None and points[-1][0] < extend_to:
        points = list(points) + [(extend_to, points[-1][1])]
    ts = np.array([t for t, _ in points], dtype=np.int64)
    vals = np.log(np.array([v for _, v in points]))
    return PricePath(ts, vals)


def record_with_p(p, size=1000.0, ts=0):
    f = fill(ts, size=size)
    return SurpriseRecord(
        fill=f, delta_fwd=0.1, delta_bwd=None, p_fwd=p, p_bwd=None, n_used=10, mean_used=1.0
    )


CFG = SlippageConfig(tau=5.0)


class TestSlippageConfig:
    @pytest.mark.parametrize("tau", [9.3e9, 1e300, 1.7e308])
    def test_tau_whose_ns_overflow_int64_rejected(self, tau):
        with pytest.raises(ValueError, match="^tau must be below 9.22337e.09 s, so that its ns fit in int64"):
            SlippageConfig(tau=tau)

    def test_largest_tau_fits_int64(self):
        assert SlippageConfig(tau=9.2e9).tau_ns == 9_200_000_000_000_000_000

    @pytest.mark.parametrize("tau", [5e-324, 1e-10, 4e-10])
    def test_tau_below_1_ns_rejected(self, tau):
        # it rounded to a horizon of 0 ns, over which no fill's mid can move
        with pytest.raises(ValueError, match=f"^tau must round to at least 1 ns, got {tau}$"):
            SlippageConfig(tau=tau)

    def test_smallest_tau_is_1_ns(self):
        assert SlippageConfig(tau=6e-10).tau_ns == SlippageConfig(tau=1e-9).tau_ns == 1


class TestPricePath:
    def test_locf_lookup(self):
        path = step_path([(0, 100.0), (10 * S, 101.0)])
        assert path.log_mid_at(5 * S) == pytest.approx(math.log(100.0))
        assert path.log_mid_at(10 * S) == pytest.approx(math.log(101.0))
        assert path.log_mid_at(50 * S) == pytest.approx(math.log(101.0))

    def test_before_first_sample_raises(self):
        path = step_path([(10, 100.0)])
        with pytest.raises(CensoredFillError):
            path.log_mid_at(5)

    def test_requires_increasing_ts(self):
        with pytest.raises(ValueError):
            PricePath(np.array([5, 5]), np.array([0.0, 0.0]))

    def test_round_trip_lines(self):
        path = step_path([(0, 100.0), (7, 100.5), (12345678, 99.25)])
        back = path_from_lines(path_to_lines(path))
        assert np.array_equal(back.ts, path.ts)
        assert np.array_equal(back.log_mid, path.log_mid)

    def test_lines_match_json_dumps_and_other_layouts_parse(self):
        path = step_path([(0, 100.0), (7, 100.5), (12345678, 99.25)])
        lines = list(path_to_lines(path))
        assert lines == [
            json.dumps({"kind": "mid", "ts": int(t), "log_mid": float(v)})
            for t, v in zip(path.ts, path.log_mid)
        ]
        other = ['{"log_mid":%r,"ts":%d,"kind":"mid"}' % (float(v), t)
                 for t, v in zip(path.ts, path.log_mid)]
        back = path_from_lines(["", lines[0], *other[1:], "  "])
        assert np.array_equal(back.ts, path.ts)
        assert np.array_equal(back.log_mid, path.log_mid)
        with pytest.raises(ValueError, match="expected kind 'mid'"):
            path_from_lines([lines[0], lines[1].replace('"mid"', '"lit"')])

    @pytest.mark.parametrize("ts", [2**63, -(2**63) - 1])
    @pytest.mark.parametrize("layout", ['{"kind": "mid", "ts": %d, "log_mid": 4.6}',
                                        '{"ts": %d, "kind": "mid", "log_mid": 4.6}'],
                             ids=["own-layout", "other-layout"])
    def test_ts_outside_int64_names_the_line(self, ts, layout):
        lines = ['{"kind": "mid", "ts": 0, "log_mid": 4.6}', "", layout % ts]
        with pytest.raises(ValueError, match="path line 3: ts .* outside int64"):
            path_from_lines(lines)

    @pytest.mark.parametrize("ts, log_mid, message", [
        (0, "4.6", "timestamps must be strictly increasing, got 0 after 0"),
        (-5, "4.6", "timestamps must be strictly increasing, got -5 after 0"),
        (7, "NaN", "log_mid must be finite, got nan"),
        (7, "-Infinity", "log_mid must be finite, got -inf"),
        (7, "1e999", "log_mid must be finite, got inf"),
    ])
    @pytest.mark.parametrize("layout", ['{"kind": "mid", "ts": %d, "log_mid": %s}',
                                        '{"ts": %d, "kind": "mid", "log_mid": %s}'],
                             ids=["own-layout", "other-layout"])
    def test_bad_sample_names_the_line(self, ts, log_mid, message, layout):
        lines = ['{"kind": "mid", "ts": 0, "log_mid": 4.6}', "", layout % (ts, log_mid)]
        with pytest.raises(ValueError, match=f"^path line 3: {message}$"):
            path_from_lines(lines)


class TestPostFillSlippage:
    def test_flat_path_zero_both_sides(self):
        for side in (Side.BUY, Side.SELL):
            assert post_fill_slippage(fill(10 * S, side), flat_path(), CFG) == 0.0

    def test_buy_one_tick_adverse(self):
        path = step_path([(0, 100.0), (12 * S, 100.01)])
        slip = post_fill_slippage(fill(10 * S, Side.BUY), path, SlippageConfig(tau=5.0))
        assert slip == pytest.approx(BP * math.log(100.01 / 100.0), abs=1e-12)
        assert slip == pytest.approx(1.0, abs=0.01)

    def test_sell_sign_antisymmetry(self):
        path = step_path([(0, 100.0), (12 * S, 100.01)])
        buy = post_fill_slippage(fill(10 * S, Side.BUY), path, CFG)
        sell = post_fill_slippage(fill(10 * S, Side.SELL), path, CFG)
        assert sell == -buy

    def test_own_mid_preferred_over_locf(self):
        path = step_path([(0, 100.0), (12 * S, 100.01)])
        slip = post_fill_slippage(fill(10 * S, Side.BUY, mid=100.005), path, CFG)
        assert slip == pytest.approx(BP * math.log(100.01 / 100.005), rel=1e-9)

    def test_uncovered_horizon_censored(self):
        path = step_path([(0, 100.0), (12 * S, 100.0)], extend_to=None)
        with pytest.raises(CensoredFillError):
            post_fill_slippage(fill(10 * S), path, SlippageConfig(tau=5.0))

    def test_horizon_past_int64_limit_censored(self):
        # ts + tau would wrap in int64 and look covered
        path = PricePath(np.array([0, 9223372036854775000]), np.zeros(2))
        late = fill(9223372036854775000)
        values, covered = slippages([fill(0), late], path, CFG)
        assert covered.tolist() == [True, False] and math.isnan(values[1])
        with pytest.raises(CensoredFillError):
            post_fill_slippage(late, path, CFG)

    def test_unknown_side_rejected(self):
        event = TapeEvent(EventKind.LIT, 10 * S, "SYM", 100.0, 1.0, Side.UNKNOWN)
        with pytest.raises(ValueError):
            post_fill_slippage(event, flat_path(), CFG)

    def test_price_scale_invariance(self):
        path_a = step_path([(0, 100.0), (12 * S, 100.25)])
        path_b = step_path([(0, 1700.0), (12 * S, 1700.0 * 100.25 / 100.0)])
        a = post_fill_slippage(fill(10 * S), path_a, CFG)
        b = post_fill_slippage(fill(10 * S), path_b, CFG)
        assert a == pytest.approx(b, rel=1e-12)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        points = [(i * S, 100.0 * math.exp(rng.normal(0, 3e-4))) for i in range(40)]
        path = step_path(points)
        fills = [
            fill(int((2 + i) * S + 137), side=Side.BUY if i % 2 else Side.SELL)
            for i in range(25)
        ]
        values, covered = slippages(fills, path, CFG)
        for f, v, ok in zip(fills, values, covered):
            if ok:
                assert v == pytest.approx(post_fill_slippage(f, path, CFG), rel=1e-12)
            else:
                with pytest.raises(CensoredFillError):
                    post_fill_slippage(f, path, CFG)


def t_stat(fills, path):
    """Mean slippage and t = mean * sqrt(k) / std over the k covered fills."""
    values, covered = slippages(fills, path, CFG)
    sample = values[covered]
    return sample.mean(), sample.mean() * math.sqrt(sample.size) / sample.std(ddof=1)


class TestMeanSlippage:
    def test_symmetric_pair(self):
        path = step_path([(0, 100.0), (12 * S, 100.01)])
        mean, t = t_stat([fill(10 * S, Side.BUY), fill(10 * S, Side.SELL)], path)
        assert mean == 0.0
        assert t == 0.0

    def test_t_statistic_near_one_at_the_bound(self):
        # mean t over seeds at T = (sigma/mu)^2 fills sits near 1
        mu, sigma, fills_n = 0.5, 12.0, 576
        rng_root = np.random.SeedSequence(11)
        t_values = []
        for child in rng_root.spawn(200):
            rng = np.random.Generator(np.random.Philox(child))
            sample = rng.normal(mu, sigma, size=fills_n)
            t = sample.mean() * math.sqrt(fills_n) / sample.std(ddof=1)
            t_values.append(t)
        assert np.mean(t_values) == pytest.approx(1.0, abs=0.25)

    def test_driftless_walk_rarely_exceeds_t2(self):
        # one-sided false-positive rate of t > 2 stays ~2.5%, well under 5%
        exceed = 0
        n_seeds = 1000
        for child in np.random.SeedSequence(2024).spawn(n_seeds):
            rng = np.random.Generator(np.random.Philox(child))
            steps = rng.normal(0.0, 3e-4, size=600)
            log_mid = math.log(100.0) + np.concatenate(([0.0], np.cumsum(steps)))
            ts = (np.arange(601) * S).astype(np.int64)
            path = PricePath(ts, log_mid)
            fill_ts = rng.integers(0, 590 * S, size=150)
            sides = rng.integers(0, 2, size=150)
            fills = [
                fill(int(t), Side.BUY if b else Side.SELL) for t, b in zip(fill_ts, sides)
            ]
            if t_stat(fills, path)[1] > 2.0:
                exceed += 1
        assert exceed / n_seeds <= 0.05


class TestMinFillsBound:
    def test_worked_example_is_576_exactly(self):
        assert min_fills_bound(0.5, 12.0) == 576.0

    def test_equal_mu_sigma(self):
        assert min_fills_bound(3.0, 3.0) == 1.0

    def test_direct(self):
        assert min_fills_bound(1.0, 3.0) == 9.0

    def test_zero_mu_unbounded(self):
        assert min_fills_bound(0.0, 3.0) == math.inf

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            min_fills_bound(1.0, 0.0)

    @pytest.mark.parametrize("mu, sigma", [(1e-300, 1.0), (1e-300, 1e300), (-1e-300, 1e300), (1e-160, 1.0)])
    def test_bound_beyond_the_float_range_raises(self, mu, sigma):
        # infinite only at mu = 0: a finite mu whose bound overflows is an error
        with pytest.raises(ValueError, match=r"^the bound \(sigma/mu\)\^2 overflows a float"):
            min_fills_bound(mu, sigma)

    def test_largest_bound_is_finite(self):
        assert min_fills_bound(1e-154, 1.0) == pytest.approx(1e308, rel=1e-12)

    @given(mu=st.floats(0.01, 100.0), sigma=st.floats(0.01, 100.0))
    @settings(max_examples=200, deadline=None)
    def test_bound_identity(self, mu, sigma):
        assert min_fills_bound(mu, sigma) * (mu / sigma) ** 2 == pytest.approx(1.0, rel=1e-12)


def crossing_oracle(mu, sigma, seeds=200, seed=0, t_target=2.0, max_fills=None):
    """Whole-matrix reference: every seed's full trajectory, then the median."""
    bound = min_fills_bound(mu, sigma)
    if max_fills is None:
        max_fills = int(16 * t_target**2 * bound)
    k = np.arange(1, max_fills + 1, dtype=np.float64)
    trajectories = np.empty((seeds, max_fills))
    root = np.random.SeedSequence(seed)
    for row, child in enumerate(root.spawn(seeds)):
        rng = np.random.Generator(np.random.Philox(child))
        x = rng.normal(mu, sigma, size=max_fills)
        csum = np.cumsum(x)
        csum2 = np.cumsum(x * x)
        mean = csum / k
        var = (csum2 - k * mean**2) / np.maximum(k - 1, 1)
        with np.errstate(invalid="ignore", divide="ignore"):
            t = mean * np.sqrt(k) / np.sqrt(var)
        t[0] = 0.0
        trajectories[row] = t
    med = np.median(trajectories, axis=0)
    hits = np.flatnonzero(np.abs(med) >= t_target)
    return int(hits[0] + 1) if hits.size else max_fills


class TestEmpiricalCrossing:
    def test_crossing_near_four_t(self):
        bound = min_fills_bound(1.0, 3.0)  # T = 9, 4T = 36
        crossing = empirical_crossing(1.0, 3.0, seeds=300, seed=5, t_target=2.0, max_fills=600)
        assert 2 * bound <= crossing <= 8 * bound

    @pytest.mark.parametrize(
        "mu, sigma, seeds, seed, t_target, max_fills",
        [
            (1.0, 10.0, 50, 3, 2.0, None),
            (0.5, 12.0, 20, 1, 2.0, None),  # crosses several blocks in
            (-0.25, 4.0, 16, 2, 2.0, None),  # negative mu, crosses in a later block
            (0.05, 10.0, 20, 0, 2.0, 1300),  # never crosses; not a block multiple
            (2.0, 3.0, 40, 5, 1.5, 1000),
            (0.3, 2.0, 25, 9, 3.0, 1537),
            (5.0, 1.0, 10, 1, 2.0, 3),
            (0.5, 3.0, 1, 4, 2.0, 2000),  # one seed: its own trajectory
            (0.5, 3.0, 2, 4, 2.0, 2000),  # two: the mean of the pair
            (0.2, 3.0, 3, 7, 2.0, None),
            (-0.2, 3.0, 201, 3, 2.0, None),  # odd, and past a block
        ],
    )
    def test_early_stop_matches_whole_matrix(self, mu, sigma, seeds, seed, t_target, max_fills):
        args = (mu, sigma, seeds, seed, t_target, max_fills)
        assert empirical_crossing(*args) == crossing_oracle(*args)

    @pytest.mark.parametrize(
        "mu, t_target, max_fills, message",
        [
            (0.5, 1e300, None, "needs 16 * t_target^2 * (sigma/mu)^2 = inf fills"),
            (0.5, 1e150, None, "needs 16 * t_target^2 * (sigma/mu)^2 = 9.216e+303 fills"),
            (0.5, 50.0, None, "needs 16 * t_target^2 * (sigma/mu)^2 = 2.304e+07 fills"),
            (1e-5, 2.0, None, "needs 16 * t_target^2 * (sigma/mu)^2 = 9.216e+13 fills"),
            (0.5, 2.0, MAX_CROSSING_FILLS + 1, f"got {MAX_CROSSING_FILLS + 1}"),
        ],
    )
    def test_a_walk_past_the_cap_raises_before_any_draw(self, no_walk, mu, t_target, max_fills, message):
        with pytest.raises(ValueError, match="MAX_CROSSING_FILLS") as info:
            empirical_crossing(mu, 12.0, seeds=200, seed=1, t_target=t_target, max_fills=max_fills)
        assert message in str(info.value)

    @pytest.mark.parametrize("max_fills", [1, 0, -3])
    def test_a_walk_of_fewer_than_two_fills_raises_before_any_draw(self, no_walk, max_fills):
        # it returned max_fills unwalked, as if the walk had never crossed
        with pytest.raises(ValueError, match=f"^max_fills must be >= 2, got {max_fills}$"):
            empirical_crossing(0.5, 12.0, seeds=5, seed=1, max_fills=max_fills)

    def test_a_walk_at_the_cap_is_allowed(self):
        # t is 0 at one fill, so a strong drift crosses at the second
        assert empirical_crossing(10.0, 1.0, seeds=2, seed=1, max_fills=MAX_CROSSING_FILLS) == 2
        assert empirical_crossing(10.0, 1.0, seeds=2, seed=1, max_fills=2) == 2

    @pytest.fixture
    def no_walk(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the walk started")

        monkeypatch.setattr(np.random, "SeedSequence", refuse)


def assert_numpy_median(t):
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, and sums past the float range
        mine, numpy_median = seed_median(t), np.median(t, axis=0)
    assert mine.shape == numpy_median.shape
    assert np.array_equal(mine.view(np.uint64), numpy_median.view(np.uint64))


class TestSeedMedian:
    @pytest.mark.parametrize("seeds", [1, 2, 3, 4, 7, 200, 201])
    def test_equals_numpy_median_bit_for_bit(self, seeds):
        rng = np.random.default_rng(seeds)
        special = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0, 2.0, 2.0])
        t = rng.normal(size=(seeds, 300))
        # columns from no special value to all special: NaN, +-inf and ties, +-0 among them
        swap = rng.random(t.shape) < np.linspace(0.0, 1.0, t.shape[1])
        t[swap] = rng.choice(special, size=int(swap.sum()))
        assert_numpy_median(t)

    @given(t=arrays(np.float64, st.tuples(st.integers(1, 9), st.integers(1, 6)),
                    elements=st.floats() | st.sampled_from([0.0, -0.0, 1.0, math.inf])))
    @settings(max_examples=300, deadline=None)
    def test_equals_numpy_median_on_any_floats(self, t):
        assert_numpy_median(t)


class TestBucketReport:
    def test_single_populated_bucket(self):
        rows = bucket_report([(record_with_p(0.05), 3.0)] * 4, buckets=10)
        populated = [r for r in rows if r.n]
        assert len(populated) == 1
        assert populated[0].p_lo == 0.0 and populated[0].p_hi == 0.1
        assert populated[0].mean == pytest.approx(3.0)
        assert populated[0].stderr == pytest.approx(0.0)

    def test_sparse_buckets_have_no_mean(self):
        rows = bucket_report([(record_with_p(0.95), 1.0)], buckets=10)
        assert rows[0].n == 0 and rows[0].mean is None
        assert rows[-1].n == 1

    def test_p_equal_one_lands_in_last_bucket(self):
        rows = bucket_report([(record_with_p(1.0), 2.0)], buckets=10)
        assert rows[-1].n == 1

    def test_censored_records_skipped(self):
        rec = record_with_p(0.5)
        censored = SurpriseRecord(
            fill=rec.fill, delta_fwd=None, delta_bwd=None, p_fwd=None, p_bwd=None,
            n_used=10, mean_used=1.0,
        )
        rows = bucket_report([(rec, 1.0), (censored, 99.0)], buckets=10)
        assert sum(r.n for r in rows) == 1

    def test_stderr_matches_numpy(self):
        slips = [1.0, 2.0, 4.0, -1.0, 0.5]
        rows = bucket_report([(record_with_p(0.31), s) for s in slips], buckets=10)
        row = next(r for r in rows if r.n)
        assert row.mean == pytest.approx(np.mean(slips))
        assert row.stderr == pytest.approx(np.std(slips, ddof=1) / math.sqrt(len(slips)))

    def test_null_records_stay_near_zero(self):
        rng = np.random.default_rng(8)
        pairs = [
            (record_with_p(float(p)), float(s))
            for p, s in zip(rng.uniform(size=4000), rng.normal(0, 6.7, size=4000))
        ]
        for row in bucket_report(pairs, buckets=10):
            assert abs(row.mean) < 2.5 * row.stderr + 1e-9

    def test_bucket_count_is_capped(self):
        assert len(bucket_report([(record_with_p(0.5), 1.0)], buckets=MAX_BUCKETS)) == MAX_BUCKETS
        with pytest.raises(ValueError, match=f"buckets must be <= MAX_BUCKETS = {MAX_BUCKETS}, got {MAX_BUCKETS + 1}"):
            bucket_report([(record_with_p(0.5), 1.0)], buckets=MAX_BUCKETS + 1)


class TestSizeThresholdReport:
    def records(self):
        # half the fills flagged at p = 0.01, half clean at p = 0.5
        recs = []
        for i in range(100):
            p = 0.01 if i % 2 == 0 else 0.5
            size = 1000.0 * (i + 1)
            recs.append((record_with_p(p, size=size), size))
        return recs

    def test_threshold_zero_counts_everything(self):
        rows = size_threshold_report(self.records(), [0.0], alpha=0.05)
        assert rows[0].n == 100
        assert rows[0].share == pytest.approx(0.5)

    def test_threshold_above_max_reports_absent(self):
        rows = size_threshold_report(self.records(), [1e9], alpha=0.05)
        assert rows[0].n == 0 and rows[0].share is None

    def test_empty_records_give_absent_shares(self):
        # as for a tape with no scored fill, which report writes with a warning
        rows = size_threshold_report([], [0.0, 1e9])
        assert [(r.threshold, r.share, r.n) for r in rows] == [(0.0, None, 0), (1e9, None, 0)]

    @pytest.mark.parametrize("alpha", [math.nan, 0.0, 1.0, 5.0, -0.05])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValueError, match=rf"alpha must be in \(0, 1\), got {alpha}"):
            size_threshold_report(self.records(), [0.0], alpha=alpha)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_rejected(self, bad):
        with pytest.raises(ValueError, match=f"threshold must be finite, got {bad}"):
            size_threshold_report(self.records(), [0.0, bad], alpha=0.05)


def arrival(fills):
    """arrival_slippage over an order given as TapeEvent fills."""
    return arrival_slippage(tape_from_events("SYM", fills), range(len(fills)))


class TestArrivalSlippage:
    def test_flat_fills_zero(self):
        fills = [fill(0, price=100.0, mid=100.0), fill(S, price=100.0)]
        assert arrival(fills) == 0.0

    def test_buy_order_adverse_drift(self):
        fills = [
            fill(0, price=100.0, mid=100.0, size=1000.0),
            fill(S, price=100.02, size=1000.0),
            fill(2 * S, price=100.04, size=2000.0),
        ]
        vwap = (100.0 * 1000 + 100.02 * 1000 + 100.04 * 2000) / 4000
        assert arrival(fills) == pytest.approx(BP * math.log(vwap / 100.0), rel=1e-9)

    def test_sell_order_flips_sign(self):
        buys = [fill(0, price=100.0, mid=100.0), fill(S, price=100.02)]
        sells = [fill(0, Side.SELL, price=100.0, mid=100.0), fill(S, Side.SELL, price=100.02)]
        assert arrival(sells) == -arrival(buys)

    def test_sizes_near_the_float_limit_weigh_like_their_ratio(self):
        def order(sizes):
            return [fill(0, price=100.0, mid=100.0, size=sizes[0]), fill(S, price=100.02, size=sizes[1])]

        slip = arrival(order((1e308, 5e307)))
        assert math.isfinite(slip)
        assert slip == arrival(order((1.0, 0.5)))

    def test_prices_near_the_float_limit_stay_finite(self):
        def order(prices, sizes=(1000.0, 1000.0)):
            return [fill(0, price=prices[0], size=sizes[0]), fill(S, price=prices[1], size=sizes[1])]

        # no mid: the arrival is the first price, and the price sum overflows
        slip = arrival(order((1e308, 1.5e308)))
        assert math.isfinite(slip)
        assert slip == pytest.approx(arrival(order((1.0, 1.5))), rel=1e-12)
        both = arrival(order((1e308, 1.5e308), sizes=(1e308, 1e308)))
        assert math.isfinite(both)
        assert both == slip

    def test_prices_that_underflow_the_vwap_stay_finite(self):
        def order(prices, sizes=(0.1, 0.1)):
            return [fill(0, price=prices[0], size=sizes[0]), fill(S, price=prices[1], size=sizes[1])]

        # every price * size rounds to 0, so the plain VWAP is 0
        assert arrival(order((5e-324, 5e-324))) == 0.0
        slip = arrival(order((1e-320, 2e-320)))
        assert slip == pytest.approx(arrival(order((1.0, 2.0))), rel=1e-3)

    def test_normal_orders_keep_the_plain_vwap_bits(self):
        fills = [fill(0, price=100.0, mid=100.0, size=300.0), fill(S, price=100.07, size=700.0)]
        vwap = float(np.average([100.0, 100.07], weights=[300.0, 700.0]))
        assert arrival(fills) == (math.log(vwap) - math.log(100.0)) * BP

    def test_rows_pick_the_order_out_of_a_tape(self):
        fills = [
            fill(0, price=100.0, mid=100.0, size=1000.0),
            fill(S, price=250.0, size=1000.0),
            fill(2 * S, price=100.04, size=2000.0),
        ]
        tape = tape_from_events("SYM", fills)
        assert arrival_slippage(tape, np.array([0, 2])) == arrival([fills[0], fills[2]])

    def test_empty_order_and_unknown_side_rejected(self):
        tape = tape_from_events("SYM", [fill(0, Side.UNKNOWN, price=100.0, mid=100.0)])
        with pytest.raises(ValueError, match="order has no fills"):
            arrival_slippage(tape, [])
        with pytest.raises(ValueError, match="order side must be buy or sell"):
            arrival_slippage(tape, [0])
