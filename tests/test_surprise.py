import json
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from darkscope.options import DEFAULT_HORIZON_MULT, MAX_WINDOW, PRESETS
from darkscope.simulator import preset, simulate_scenario
from darkscope.surprise import (
    fill_pvalue,
    predictive_cdf,
    score_columns,
    score_tape,
    serialize_scores,
)
from darkscope.tape import EventKind, Side, Tape, TapeEvent
from oracle import (
    DurationWindow,
    exponential_cdf,
    oracle_score_tape,
    predictive_density,
    record_to_obj,
    score_fill,
    tape_from_events,
    update_window,
    window_pvalue,
)

S = 1_000_000_000  # ns per second


def window_of(*durations, capacity=None, last_ts=0):
    return DurationWindow(capacity or max(len(durations), 1), tuple(durations), last_ts)


def lit(ts_ns, side=Side.BUY):
    return TapeEvent(EventKind.LIT, ts_ns, "SYM", 100.0, 100.0, side)


def dark(ts_ns, side=Side.BUY, venue="V1"):
    return TapeEvent(EventKind.DARK, ts_ns, "SYM", 100.0, 100.0, side, venue=venue)


class TestUpdateWindow:
    def test_ring_buffer_eviction(self):
        w = window_of(1.0, 2.0, 3.0, capacity=3, last_ts=0)
        w = update_window(w, 4 * S)
        assert w.durations == (2.0, 3.0, 4.0)
        assert w.mean == pytest.approx(3.0, abs=0)

    def test_all_equal_durations(self):
        w = DurationWindow(capacity=5)
        for i in range(6):
            w = update_window(w, i * 7 * S)
        assert w.mean == pytest.approx(7.0)

    def test_arithmetic_mean(self):
        assert window_of(1.0, 2.0, 3.0).mean == pytest.approx(2.0, rel=1e-12)

    def test_non_monotone_rejected(self):
        w = update_window(DurationWindow(capacity=3), 5 * S)
        with pytest.raises(ValueError, match="non-monotone"):
            update_window(w, 4 * S)

    def test_equal_timestamp_floors_to_tape_floor(self):
        w = update_window(DurationWindow(capacity=3), 5 * S)
        w = update_window(w, 5 * S)
        assert w.durations == (1e-9,)

    def test_first_update_only_anchors_clock(self):
        w = update_window(DurationWindow(capacity=3), 5 * S)
        assert w.n == 0 and not w.primed()


class TestExponentialCdf:
    def test_zero(self):
        assert exponential_cdf(0.0, 1.0) == 0.0

    def test_unit(self):
        assert exponential_cdf(1.0, 1.0) == pytest.approx(0.632120558828557678, abs=1e-9)

    def test_three_scales(self):
        assert exponential_cdf(3.0, 1.0) == pytest.approx(0.950212931632136057, abs=1e-9)

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            exponential_cdf(1.0, 0.0)


class TestPredictiveDensity:
    def test_at_zero_is_inverse_mean(self):
        assert predictive_density(0.0, window_of(1.0)) == pytest.approx(1.0, abs=1e-12)
        assert predictive_density(0.0, window_of(2.0, 4.0)) == pytest.approx(1 / 3.0, abs=1e-12)

    def test_direct_value(self):
        assert predictive_density(1.0, window_of(1.0)) == pytest.approx(0.25, abs=1e-12)

    def test_integrates_to_one(self):
        # heavy tail: integrate over log-spaced segments up to 1e6 * mean
        w = window_of(0.5, 1.5, 1.0)
        edges = [0.0] + [w.mean * 10.0**k for k in range(7)]
        total = sum(
            scipy.integrate.quad(predictive_density, a, b, args=(w,), limit=200)[0]
            for a, b in zip(edges, edges[1:])
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_nonnegative(self):
        w = window_of(1.0, 2.0)
        for d in (0.0, 0.3, 5.0, 400.0):
            assert predictive_density(d, w) >= 0.0


class TestPredictiveCdf:
    def test_zero(self):
        assert predictive_cdf(0.0, 2, 1.5) == 0.0

    def test_n1_closed_form(self):
        assert predictive_cdf(1.0, 1, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_large_n_exponential_limit(self):
        assert predictive_cdf(1.0, 10**6, 1.0) == pytest.approx(0.6321205588, abs=1e-5)

    def test_matches_density_quadrature(self):
        # cdf must be the exact integral of the density across the (n, d/m) grid
        for n in (1, 5, 10, 50):
            w = DurationWindow(n, (1.0,) * n, 0)
            for ratio in (0.01, 0.1, 1.0, 10.0):
                d = ratio * w.mean
                integral, _ = scipy.integrate.quad(
                    predictive_density, 0.0, d, args=(w,), epsabs=1e-12, epsrel=1e-12
                )
                assert predictive_cdf(d, n, w.mean) == pytest.approx(integral, abs=1e-8)

    def test_heavier_tail_than_plugin_at_the_mean(self):
        assert predictive_cdf(1.0, 10, 1.0) == pytest.approx(0.614456710570468253, abs=1e-9)
        assert predictive_cdf(1.0, 10, 1.0) < exponential_cdf(1.0, 1.0)

    @pytest.mark.parametrize("n, mean", [(0, 1.0), (1, 0.0), (1, -1.0), (1, math.nan)])
    def test_empty_window_or_bad_mean_rejected(self, n, mean):
        with pytest.raises(ValueError, match="window"):
            predictive_cdf(1.0, n, mean)
        with pytest.raises(ValueError, match="window"):
            fill_pvalue(1.0, n, mean)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="duration must be >= 0"):
            predictive_cdf(-1.0, 1, 1.0)

    @given(
        d1=st.floats(0.0, 1e6),
        d2=st.floats(0.0, 1e6),
        n=st.integers(1, 50),
        mean=st.floats(1e-6, 1e3),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_delta(self, d1, d2, n, mean):
        m = DurationWindow(n, (mean,) * n, 0).mean
        lo, hi = sorted((d1, d2))
        assert predictive_cdf(lo, n, m) <= predictive_cdf(hi, n, m)
        # strictly above cdf(0) wherever the scaled duration d / (n m) is not
        # rounded to 0 (a subnormal d such as 5e-324 is, and its cdf is 0.0)
        if hi / (n * m) > 0:
            assert predictive_cdf(hi, n, m) > predictive_cdf(0.0, n, m)

    @given(
        c=st.floats(1e-6, 1e6),
        d=st.floats(0.0, 1e3),
        durations=st.lists(st.floats(1e-9, 1e3), min_size=1, max_size=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_scale_equivariance(self, c, d, durations):
        w = DurationWindow(len(durations), tuple(durations), 0)
        scaled = DurationWindow(len(durations), tuple(x * c for x in durations), 0)
        assert predictive_cdf(d, w.n, w.mean) == pytest.approx(
            predictive_cdf(d * c, scaled.n, scaled.mean), rel=1e-9, abs=1e-12
        )

    @given(
        delta=st.floats(0.0, 1e6),
        durations=st.lists(st.floats(1e-9, 1e3), min_size=1, max_size=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_fill_pvalue_matches_the_scalar_oracle(self, delta, durations):
        w = DurationWindow(len(durations), tuple(durations), 0)
        assert fill_pvalue(delta, w.n, w.mean).hex() == window_pvalue(delta, w).hex()


class TestFillPvalue:
    def test_quickest_is_most_surprising(self):
        p = fill_pvalue(1e-9, 10, 1.0)
        assert 0 < p < 1e-8

    def test_direct_values(self):
        assert fill_pvalue(0.01, 10, 1.0) == pytest.approx(0.00994521928699700642, abs=1e-12)
        assert fill_pvalue(1.0, 10, 1.0) == pytest.approx(0.614456710570468253, abs=1e-12)

    def test_clamped_into_unit_interval(self):
        assert fill_pvalue(0.0, 1, 1.0) >= 1e-300
        assert fill_pvalue(1e12, 1, 1.0) <= 1.0


class TestScoreFill:
    def tape_with_fill(self):
        # lit prints at 0, 1, 2 s; dark fill at 2.5 s; next lit at 2.51 s
        events = (
            lit(0),
            lit(1 * S),
            lit(2 * S, side=Side.SELL),
            dark(int(2.5 * S)),
            lit(int(2.51 * S), side=Side.SELL),
        )
        return tape_from_events("SYM", events)

    def primed_window(self):
        w = DurationWindow(capacity=2)
        for t in (0, 1 * S, 2 * S):
            w = update_window(w, t)
        return w

    def test_forward_and_backward_durations(self):
        record = score_fill(self.tape_with_fill(), 3, self.primed_window(), horizon_s=50.0)
        assert record.delta_fwd == pytest.approx(0.01)
        assert record.delta_bwd == pytest.approx(0.5)
        assert record.p_fwd == pytest.approx(0.00992549689364124650, rel=1e-9)
        assert record.n_used == 2
        assert record.mean_used == pytest.approx(1.0)
        assert record.next_lit_side is Side.SELL

    def test_censoring_beyond_horizon(self):
        events = (lit(0), lit(1 * S), dark(2 * S), lit(500 * S))
        record = score_fill(tape_from_events("SYM", events), 2, window_of(1.0, last_ts=S), horizon_s=50.0)
        assert record.p_fwd is None and record.delta_fwd is None
        assert record.p_bwd is not None  # record retained with backward score

    def test_backward_one_nanosecond_flags_latent_risk(self):
        n = 10
        w = DurationWindow(n, (1.0,) * n, 0)
        events = (lit(0), dark(1), lit(2 * S))
        record = score_fill(tape_from_events("SYM", events), 1, w, horizon_s=50.0)
        assert record.delta_bwd == pytest.approx(1e-9)
        # first-order expansion: p ~ n * d / (n * m) = d / m
        assert record.p_bwd == pytest.approx(1e-9, rel=1e-6)

    def test_equal_ts_lit_counts_backward_not_forward(self):
        events = (lit(0), dark(5 * S), lit(5 * S))
        tape = tape_from_events("SYM", events).sorted()
        record = score_fill(tape, 2, window_of(1.0, last_ts=0), horizon_s=50.0)
        assert record.delta_bwd == pytest.approx(1e-9)

    def test_unprimed_window_rejected(self):
        with pytest.raises(ValueError, match="at least one duration"):
            score_fill(self.tape_with_fill(), 3, DurationWindow(capacity=2), horizon_s=5.0)

    def test_never_mutates_window(self):
        w = self.primed_window()
        before = (w.durations, w.last_ts)
        score_fill(self.tape_with_fill(), 3, w, horizon_s=50.0)
        assert (w.durations, w.last_ts) == before


@pytest.fixture(scope="module")
def preset_tapes():
    return {name: simulate_scenario(preset(name, seed=5, duration=600.0))[0] for name in PRESETS}


@pytest.fixture(scope="module")
def null_tapes():
    """Null tapes: a flat 1 s lit rate, and the same rate stepping to 0.25 s halfway."""
    flat = ((0.0, 1.0),)
    step = ((0.0, 1.0), (3_000.0, 0.25))
    return {
        name: simulate_scenario(preset("null", seed=2, duration=6_000.0, lit_schedule=schedule))[0]
        for name, schedule in (("flat", flat), ("step", step))
    }


@st.composite
def tie_tapes(draw):
    """Sorted tapes of lit prints and dark fills on venues A, B, ``*`` or none.

    Most timestamps fall on a coarse 0.1 s grid, so lit/dark ties are common.
    """
    ts = st.integers(0, 40).map(lambda tick: tick * S // 10) | st.integers(0, 4 * S)
    rows = draw(
        st.lists(
            st.tuples(st.booleans(), ts, st.sampled_from(["A", "B", "*", None]),
                      st.sampled_from([Side.BUY, Side.SELL])),
            max_size=80,
        )
    )
    events = [lit(t, side) if is_lit else dark(t, side, venue) for is_lit, t, venue, side in rows]
    return tape_from_events("SYM", events).sorted()


# small multiples censor many fills; 50 is the default
horizon_mults = st.sampled_from([0.05, 0.3, 1.0, DEFAULT_HORIZON_MULT]) | st.floats(0.01, 100.0)


class TestScoreTape:
    @pytest.mark.parametrize("name", tuple(PRESETS))
    @pytest.mark.parametrize("window_size", [1, 2, 5, 10, 50])
    def test_matches_scalar_oracle(self, preset_tapes, name, window_size):
        tape = preset_tapes[name]
        records = score_tape(tape, window_size)
        assert records and records == oracle_score_tape(tape, window_size)

    def test_matches_scalar_oracle_with_censoring(self, preset_tapes):
        tape = preset_tapes["leaky"]
        records = score_tape(tape, 5, horizon_mult=0.5)
        assert any(r.p_fwd is None for r in records)
        assert records == oracle_score_tape(tape, 5, horizon_mult=0.5)

    def test_decreasing_lit_timestamps_rejected(self):
        events = (lit(0), lit(2 * S), dark(int(2.5 * S)), lit(1 * S))
        with pytest.raises(ValueError, match="non-monotone lit timestamp: 1000000000 < 2000000000"):
            score_tape(tape_from_events("SYM", events))

    def test_bad_window_size_rejected(self):
        with pytest.raises(ValueError, match="window capacity must be >= 1"):
            score_tape(Tape("SYM"), window_size=0)

    @pytest.mark.parametrize("window_size", [MAX_WINDOW + 1, 10**20])
    def test_window_size_above_the_cap_rejected(self, window_size):
        with pytest.raises(ValueError, match=f"window capacity must be <= MAX_WINDOW = 10000, got {window_size}"):
            score_columns(Tape("SYM"), window_size=window_size)

    @pytest.mark.parametrize("offset, censored", [(0, False), (1, True)])
    def test_lit_print_exactly_at_the_horizon_is_not_censored(self, offset, censored):
        mean = S * 1e-9  # two equal 1 s durations
        horizon_ns = int(2.0 * mean * 1e9)
        fill_ts = 2 * S + 7
        events = (lit(0), lit(S), lit(2 * S), dark(fill_ts), lit(fill_ts + horizon_ns + offset))
        tape = tape_from_events("SYM", events)
        (record,) = score_tape(tape, window_size=2, horizon_mult=2.0)
        assert (record.p_fwd is None) is censored
        assert [record] == oracle_score_tape(tape, 2, horizon_mult=2.0)

    @pytest.mark.parametrize(
        "horizon_mult, censored", [(2_000.0, True), (4_000.0, False), (1e12, False)]
    )
    def test_long_horizons(self, horizon_mult, censored):
        # a lit print 3 000 s after the fill; 1e12 s is past the int64 range of ns
        events = (lit(0), lit(S), lit(2 * S), dark(2 * S + 7), lit(3_002 * S))
        tape = tape_from_events("SYM", events)
        (record,) = score_tape(tape, window_size=2, horizon_mult=horizon_mult)
        assert (record.p_fwd is None) is censored
        assert [record] == oracle_score_tape(tape, 2, horizon_mult=horizon_mult)

    def test_horizon_past_the_float_range_censors_nothing(self):
        # 1e300 window means overflow to an infinite horizon (the scalar
        # oracle cannot take it: int(inf) raises)
        events = (lit(0), lit(S), lit(2 * S), dark(2 * S + 7), lit(3_002 * S))
        (record,) = score_tape(tape_from_events("SYM", events), 2, horizon_mult=1e300)
        assert record.p_fwd is not None

    @pytest.mark.parametrize("horizon_mult", [math.inf, math.nan, -1.0, 0.0])
    def test_bad_horizon_mult_rejected(self, horizon_mult):
        tape = tape_from_events("SYM", (lit(0), lit(S), dark(S + 1), lit(2 * S)))
        with pytest.raises(ValueError, match=f"horizon_mult must be finite and > 0, got {horizon_mult}"):
            score_tape(tape, horizon_mult=horizon_mult)

    @given(tape=tie_tapes(), window_size=st.integers(1, 50), horizon_mult=horizon_mults)
    @settings(max_examples=300, deadline=None)
    def test_kernel_matches_scalar_oracle(self, tape, window_size, horizon_mult):
        records = score_tape(tape, window_size, horizon_mult)
        assert records == oracle_score_tape(tape, window_size, horizon_mult)
        cols = score_columns(tape, window_size, horizon_mult)
        assert cols.skipped == int((~tape.is_lit).sum()) - len(records)
        assert cols.censored == sum(r.p_fwd is None for r in records)
        lines = list(serialize_scores(tape, cols))
        assert lines == [json.dumps(record_to_obj(r)) for r in records]

    @pytest.mark.parametrize("schedule", ["flat", "step"])
    @pytest.mark.parametrize("window_size", [1, 2, 5, 50])
    def test_null_calibration_every_window_size(self, null_tapes, schedule, window_size):
        # The predictive CDF is exactly Uniform(0,1) under a Poisson null for
        # every n; a rate step only disturbs the ~n fills just after it. The
        # horizon censors p above c = F(horizon) = 1 - (n / (n + mult))^n
        # (2% of fills at n = 1), so the scored p_fwd are Uniform(0, c).
        n = window_size
        records = [r for r in score_tape(null_tapes[schedule], n) if r.n_used == n]
        ps = np.array([r.p_fwd for r in records if r.p_fwd is not None])
        assert ps.size > 5_000
        c = 1.0 - (n / (n + DEFAULT_HORIZON_MULT)) ** n
        d_stat = scipy.stats.kstest(ps, "uniform", args=(0.0, c)).statistic
        assert d_stat < 1.628 / math.sqrt(ps.size)  # 1% critical value

    def test_one_record_per_scoreable_fill(self):
        events = (
            dark(0),            # before any lit duration: skipped
            lit(1 * S),
            dark(int(1.5 * S)),  # window not primed yet (one print only)
            lit(2 * S),
            dark(int(2.2 * S)),
            dark(int(2.4 * S)),
            lit(3 * S),
        )
        tape = tape_from_events("SYM", events).sorted()
        records = score_tape(tape, window_size=5)
        assert len(records) == 2
        assert all(r.p_fwd is not None for r in records)

    def test_null_uniformity_kolmogorov_smirnov(self):
        # Dark fills at times independent of a homogeneous Poisson lit tape
        # must produce exactly Uniform(0,1) forward p-values (waiting paradox
        # included: the forward wait has the same exponential law).
        rng = np.random.default_rng(424242)
        horizon = 12_000.0
        lit_ts = np.cumsum(rng.exponential(1.0, size=int(horizon * 1.05) + 100))
        lit_ts = lit_ts[lit_ts < horizon]
        fill_ts = np.sort(rng.uniform(lit_ts[0] + 50.0, horizon - 60.0, size=10_500))
        events = [lit(int(round(t * S))) for t in lit_ts]
        events += [dark(int(round(t * S))) for t in fill_ts]
        tape = tape_from_events("SYM", events).sorted()
        records = score_tape(tape, window_size=10)
        ps = np.array([r.p_fwd for r in records if r.p_fwd is not None])[:10_000]
        assert ps.size == 10_000
        d_stat = scipy.stats.kstest(ps, "uniform").statistic
        assert d_stat < 1.628 / math.sqrt(ps.size)  # 1% critical value
