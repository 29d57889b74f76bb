import math
import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from darkscope.simulator import (
    MAX_LEAK_LATENCY_S,
    PriceModel,
    Scenario,
    VenueProfile,
    fleet,
    format_scenario,
    gen_dark_fills,
    gen_lit_tape,
    gen_price_path,
    inject_leakage,
    parse_scenario,
    preset,
    reprice,
    simulate_scenario,
)
from darkscope.slippage import SlippageConfig, fill_slippages
from darkscope.tape import Side, merge_streams, serialize_tape

S = 1_000_000_000


def scenario_for(duration=10_000.0, rate=0.1, venue=None, seed=1, **kw):
    venue = venue or VenueProfile("DARK1")
    return Scenario(
        seed=seed, duration=duration, dark_fill_rate=rate, venues=(venue,), **kw
    )


class TestGenLitTape:
    def test_count_within_poisson_band(self):
        tape = gen_lit_tape(scenario_for(duration=10_000.0))
        n = len(tape)
        assert abs(n - 10_000) <= 300  # 3 sigma

    def test_zero_duration_empty(self):
        assert len(gen_lit_tape(scenario_for(duration=0.0))) == 0

    def test_same_seed_identical(self):
        a = gen_lit_tape(scenario_for(seed=9))
        b = gen_lit_tape(scenario_for(seed=9))
        assert a.events == b.events

    def test_piecewise_schedule_rates(self):
        sc = scenario_for(duration=20_000.0, lit_schedule=((0.0, 1.0), (10_000.0, 0.5)))
        tape = gen_lit_tape(sc)
        first = sum(1 for e in tape if e.ts < 10_000 * S)
        second = len(tape) - first
        assert abs(first - 10_000) <= 300
        assert abs(second - 20_000) <= 450

    def test_interarrivals_exponential_ks(self):
        tape = gen_lit_tape(scenario_for(duration=11_000.0, seed=3))
        ts = np.array([e.ts for e in tape]) / S
        durations = np.diff(ts)[:10_000]
        d = scipy.stats.kstest(durations, "expon", args=(0, 1.0)).statistic
        assert d < 1.628 / math.sqrt(durations.size)

    def test_waiting_paradox(self):
        # wait from a random inspection time to the next print is Exp(lambda)
        tape = gen_lit_tape(scenario_for(duration=11_000.0, seed=4))
        ts = np.array([e.ts for e in tape]) / S
        rng = np.random.default_rng(5)
        probes = rng.uniform(10.0, 10_500.0, size=10_000)
        idx = np.searchsorted(ts, probes, side="right")
        waits = ts[idx] - probes
        d = scipy.stats.kstest(waits, "expon", args=(0, 1.0)).statistic
        assert d < 1.628 / math.sqrt(waits.size)


class TestGenDarkFills:
    def test_rate_zero_no_fills(self):
        assert len(gen_dark_fills(scenario_for(rate=0.0))) == 0

    def test_count_within_poisson_band(self):
        tape = gen_dark_fills(scenario_for(duration=10_000.0, rate=0.1))
        assert abs(len(tape) - 1_000) <= 95  # 3 sigma

    def test_lognormal_sizes(self):
        venue = VenueProfile("DARK1", size_log_mu=8.0, size_log_sigma=0.7)
        tape = gen_dark_fills(scenario_for(duration=20_000.0, rate=0.1, venue=venue))
        logs = np.log([e.size for e in tape])
        stderr = 0.7 / math.sqrt(len(logs))
        assert abs(logs.mean() - 8.0) <= 3 * stderr

    def test_sides_iid_per_fill_by_default(self):
        tape = gen_dark_fills(scenario_for(duration=20_000.0, rate=0.1))
        buys = sum(1 for e in tape if e.side is Side.BUY)
        n = len(tape)
        assert abs(buys - n / 2) <= 3 * math.sqrt(n / 4)

    def test_orders_share_one_side(self):
        sc = scenario_for(duration=10_000.0, rate=0.1, fills_per_order=15)
        tape = gen_dark_fills(sc)
        by_order: dict[str, set] = {}
        for e in tape:
            by_order.setdefault(e.truth["order"], set()).add(e.side)
        assert len(by_order) > 5
        assert all(len(sides) == 1 for sides in by_order.values())

    def test_active_window_respected(self):
        venue = VenueProfile("DARK1", active=(2_000.0, 3_000.0))
        tape = gen_dark_fills(scenario_for(duration=10_000.0, rate=0.1, venue=venue))
        assert all(2_000 * S <= e.ts < 3_000 * S for e in tape)

    def test_fill_keys_unique(self):
        tape = gen_dark_fills(scenario_for(duration=5_000.0, rate=0.1))
        keys = [e.truth["fill"] for e in tape]
        assert len(keys) == len(set(keys))


class TestInjectLeakage:
    def test_all_zero_probs_is_plain_merge(self):
        sc = scenario_for(duration=2_000.0, rate=0.1)
        lit, dark = gen_lit_tape(sc), gen_dark_fills(sc)
        merged = inject_leakage(lit, dark, sc, seed=7)
        assert merged.events == merge_streams(lit, dark).events

    def test_q1_fixed_latency_prints_exactly_d_later(self):
        d = 0.017
        venue = VenueProfile("DARK1", leak_prob=1.0, leak_latency_mean=d, leak_latency_kind="fixed")
        sc = scenario_for(duration=2_000.0, rate=0.05, venue=venue)
        lit, dark = gen_lit_tape(sc), gen_dark_fills(sc)
        merged = inject_leakage(lit, dark, sc, seed=7)
        injected = {e.truth["injected_by"]: e for e in merged if e.truth and "injected_by" in (e.truth or {})}
        fills = [e for e in merged if e.is_dark()]
        assert len(injected) == len(fills) > 0
        for fill in fills:
            print_ev = injected[fill.truth["fill"]]
            assert print_ev.ts - fill.ts == int(round(d * S))
            assert print_ev.side is fill.side

    def test_injection_count_binomial(self):
        venue = VenueProfile("DARK1", leak_prob=0.5)
        sc = scenario_for(duration=20_000.0, rate=0.1, venue=venue, seed=13)
        lit, dark = gen_lit_tape(sc), gen_dark_fills(sc)
        merged = inject_leakage(lit, dark, sc, seed=13)
        n_fills = len(dark)
        n_injected = len(merged) - len(lit) - n_fills
        assert abs(n_injected - 0.5 * n_fills) <= 3 * math.sqrt(n_fills * 0.25)

    def test_injected_prints_reference_causing_fill(self):
        venue = VenueProfile("DARK1", leak_prob=0.4, sweep_prob=0.3)
        sc = scenario_for(duration=5_000.0, rate=0.1, venue=venue, seed=21)
        lit, dark = gen_lit_tape(sc), gen_dark_fills(sc)
        merged = inject_leakage(lit, dark, sc, seed=21)
        fill_keys = {e.truth["fill"] for e in merged if e.is_dark()}
        flagged = {e.truth["fill"] for e in merged if e.is_dark() and (e.truth["leaked"] or e.truth["sweep"])}
        injected_refs = [e.truth["injected_by"] for e in merged if e.is_lit() and e.truth]
        assert injected_refs and set(injected_refs) <= fill_keys
        assert set(injected_refs) == flagged

    def test_latent_fills_sit_one_ms_after_a_lit_print(self):
        venue = VenueProfile("DARK1", latent_prob=1.0)
        sc = scenario_for(duration=2_000.0, rate=0.05, venue=venue, seed=2)
        lit, dark = gen_lit_tape(sc), gen_dark_fills(sc)
        merged = inject_leakage(lit, dark, sc, seed=2)
        lit_ts = {e.ts for e in merged if e.is_lit()}
        retimed = [e for e in merged if e.is_dark() and e.truth["latent"]]
        assert retimed
        assert all((e.ts - 1_000_000) in lit_ts for e in retimed)

    def test_sweep_prints_at_one_ms_opposite_side(self):
        venue = VenueProfile("DARK1", sweep_prob=1.0)
        sc = scenario_for(duration=1_000.0, rate=0.05, venue=venue, seed=3)
        lit, dark = gen_lit_tape(sc), gen_dark_fills(sc)
        merged = inject_leakage(lit, dark, sc, seed=3)
        injected = {e.truth["injected_by"]: e for e in merged if e.is_lit() and e.truth}
        for fill in (e for e in merged if e.is_dark()):
            sweep = injected[fill.truth["fill"]]
            assert sweep.ts - fill.ts == 1_000_000
            assert sweep.side.sign == -fill.side.sign != 0


class TestGenPricePath:
    def test_flat_when_everything_zero(self):
        sc = scenario_for(duration=1_000.0, price=PriceModel(sigma_per_trade=0.0))
        lit, dark = gen_lit_tape(sc), gen_dark_fills(sc)
        merged = inject_leakage(lit, dark, sc, seed=1)
        path = gen_price_path(merged, sc.price, seed=1)
        assert np.allclose(path.log_mid, math.log(100.0))

    def test_impact_realized_as_mean_slippage(self):
        # q = 1, impact 1.5 bp: mean 5 s post-fill slippage ~ 1.5 bp
        venue = VenueProfile("DARK1", leak_prob=1.0, leak_latency_mean=0.01)
        sc = scenario_for(
            duration=40_000.0,
            rate=0.05,
            venue=venue,
            seed=31,
            price=PriceModel(sigma_per_trade=3.0, leak_impact=1.5),
        )
        tape, path = simulate_scenario(sc)
        fills = ~tape.is_lit
        values, covered = fill_slippages(tape.ts[fills], tape.side[fills], tape.mid[fills], path,
                                         SlippageConfig(tau=5.0))
        sample = values[covered]
        stderr = sample.std(ddof=1) / math.sqrt(sample.size)
        assert sample.mean() == pytest.approx(1.5, abs=3.5 * stderr)

    def test_drift_only_slippage_without_leak_flags(self):
        sc = scenario_for(
            duration=30_000.0,
            rate=0.05,
            seed=17,
            price=PriceModel(sigma_per_trade=0.0, competing_drift=0.2),
        )
        tape, path = simulate_scenario(sc)
        fills = np.flatnonzero(~tape.is_lit)
        assert not any(tape.truth[i]["leaked"] for i in fills.tolist())
        buys = fills[tape.side[fills] == Side.BUY.sign]
        values, covered = fill_slippages(tape.ts[buys], tape.side[buys], tape.mid[buys], path,
                                         SlippageConfig(tau=5.0))
        # buy fills against a positive drift suffer ~ drift * tau adverse move
        assert values[covered].mean() == pytest.approx(0.2 * 5.0, rel=0.1)

    def test_deterministic_given_seed(self):
        sc = scenario_for(duration=2_000.0, seed=8)
        lit, dark = gen_lit_tape(sc), gen_dark_fills(sc)
        merged = inject_leakage(lit, dark, sc, seed=8)
        a = gen_price_path(merged, sc.price, seed=8)
        b = gen_price_path(merged, sc.price, seed=8)
        assert np.array_equal(a.ts, b.ts) and np.array_equal(a.log_mid, b.log_mid)

    def test_reprice_sets_mids_from_path(self):
        sc = scenario_for(duration=500.0, seed=8)
        tape, path = simulate_scenario(sc)
        for e in tape.events[:50]:
            assert e.mid == pytest.approx(math.exp(float(path.log_mid_at(e.ts))))
            assert e.price == e.mid


class TestSimulateScenario:
    def test_byte_identical_across_runs(self):
        sc = preset("leaky", seed=42)
        a_tape, a_path = simulate_scenario(sc)
        b_tape, b_path = simulate_scenario(sc)
        assert list(serialize_tape(a_tape)) == list(serialize_tape(b_tape))
        assert np.array_equal(a_path.ts, b_path.ts)
        assert np.array_equal(a_path.log_mid, b_path.log_mid)

    def test_event_counts_consistent(self):
        sc = preset("leaky", seed=3)
        tape, _ = simulate_scenario(sc)
        fills = [e for e in tape if e.is_dark()]
        injected = [e for e in tape if e.is_lit() and e.truth]
        leaked = [e for e in fills if e.truth["leaked"]]
        assert len(injected) == len(leaked)


class TestPresets:
    def test_null_is_all_quiet(self):
        sc = preset("null")
        v = sc.venues[0]
        assert v.leak_prob == v.sweep_prob == v.latent_prob == 0.0
        assert sc.price.competing_drift == 0.0
        assert sc.price.leak_impact == 0.0

    def test_leaky_parameters(self):
        sc = preset("leaky")
        v = sc.venues[0]
        assert v.leak_prob == 0.5
        assert v.leak_latency_mean == pytest.approx(0.01)  # mean lit duration / 100
        assert sc.price.leak_impact == 1.5

    def test_size_knee_parameters(self):
        sc = preset("size_knee")
        v = sc.venues[0]
        assert v.size_leak_knee == 30_000.0
        assert v.leak_prob == 0.5
        assert 0.1 < v.leak_prob_large < 0.25

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset("bogus")

    def test_overrides(self):
        sc = preset("null", seed=5, duration=42.0)
        assert sc.duration == 42.0 and sc.seed == 5


# Names over an alphabet that holds every character a name may not: '.' and
# '=' (venue names), whitespace at either end (name and symbol) and line
# breaks, among them ones str.splitlines splits on besides "\n".
NAMES = st.text(st.sampled_from("AZ09_-#:. =\t\n\r\x0b\x1c\x85\u2028"), max_size=5)
FLOATS = st.floats(-1e6, 1e6)
PROBS = st.floats(0.0, 1.0)
NON_FINITE = st.sampled_from((math.inf, -math.inf, math.nan))


def one_line(text):
    return text.splitlines() in ([], [text])


def finite(values):
    return all(map(math.isfinite, values))


def checked(make, value, ok, field, fallback):
    """make(value), having checked that it raises a ValueError naming
    ``field`` when ``ok(value)`` is false; then make(fallback()), a value it
    accepts."""
    if ok(value):
        return make(value)
    with pytest.raises(ValueError, match=f"^{field} must"):
        make(value)
    return make(fallback())


@st.composite
def scenarios(draw):
    """Scenarios that set every key, optional ones included, with names drawn
    from NAMES and numbers that may be non-finite: each name, number and
    venue list the constructors must refuse is checked to raise."""
    good_name = lambda: draw(st.from_regex(r"[A-Z][A-Z0-9]{0,3}", fullmatch=True))  # noqa: E731
    venues = []
    for text in draw(st.lists(NAMES, max_size=3)):
        knee = checked(lambda x: VenueProfile("V", size_leak_knee=x), draw(st.none() | FLOATS | NON_FINITE),
                       lambda x: x is None or math.isfinite(x), "size_leak_knee", lambda: draw(FLOATS))
        active = checked(lambda x: VenueProfile("V", active=x), draw(st.none() | st.tuples(*[FLOATS | NON_FINITE] * 2)),
                         lambda x: x is None or finite(x), "active", lambda: draw(st.tuples(FLOATS, FLOATS)))
        profile = lambda name: VenueProfile(  # noqa: E731
            name,
            leak_prob=draw(PROBS),
            leak_latency_mean=draw(st.floats(0.0, MAX_LEAK_LATENCY_S, exclude_min=True)),
            leak_latency_kind=draw(st.sampled_from(("exp", "fixed"))),
            size_log_mu=draw(st.floats(-100.0, 100.0)),
            size_log_sigma=draw(st.floats(0.0, 10.0)),
            size_leak_knee=knee.size_leak_knee,
            leak_prob_large=draw(PROBS),
            sweep_prob=draw(PROBS),
            latent_prob=draw(PROBS),
            active=active.active,
        )
        ok = lambda name: name and "." not in name and "=" not in name and one_line(name)  # noqa: E731
        venues.append(checked(profile, text, ok, "venue name", good_name))
    distinct = lambda vs: vs and len({v.venue for v in vs}) == len(vs)  # noqa: E731
    venues = checked(lambda vs: Scenario(venues=vs), tuple(venues), distinct, "venues",
                     lambda: tuple({v.venue: v for v in venues}.values()) or (VenueProfile(good_name()),)).venues
    starts = draw(st.lists(st.floats(1e-3, 1e4), max_size=2, unique=True))
    schedule = tuple((s, draw(st.floats(1e-2, 1e3) | NON_FINITE)) for s in [0.0, *sorted(starts)])
    schedule = checked(lambda x: Scenario(lit_schedule=x), schedule, lambda x: finite(sum(x, ())), "lit_schedule",
                       lambda: tuple((s, draw(st.floats(1e-2, 1e3))) for s, _ in schedule)).lit_schedule
    price = {}
    for key, values in (("sigma_per_trade", st.floats(0.0, 1e3)), ("leak_impact", FLOATS),
                        ("competing_drift", FLOATS), ("start_mid", st.floats(1e-3, 1e6))):
        made = checked(lambda x: PriceModel(**{key: x}), draw(values | NON_FINITE), math.isfinite, key,
                       lambda: draw(values))
        price[key] = getattr(made, key)
    fields = dict(
        seed=draw(st.integers(0, 2**63)),
        duration=draw(st.floats(0.0, 1e4)),
        lit_schedule=schedule,
        dark_fill_rate=draw(st.floats(0.0, 10.0)),
        venues=venues,
        price=PriceModel(**price),
        fills_per_order=draw(st.none() | st.integers(1, 10**6)),
        lit_size_log_mu=draw(st.floats(-100.0, 100.0)),
        lit_size_log_sigma=draw(st.floats(0.0, 10.0)),
    )
    ok = lambda text: text == text.strip() and one_line(text)  # noqa: E731
    fields["symbol"] = checked(lambda s: Scenario(symbol=s), draw(NAMES), ok, "symbol", good_name).symbol
    return checked(lambda s: Scenario(name=s, **fields), draw(NAMES), ok, "name", good_name)


class TestScenarioFiles:
    @settings(max_examples=300, deadline=None)
    @given(scenarios())
    def test_format_is_the_inverse_of_parse(self, sc):
        assert parse_scenario(format_scenario(sc)) == sc

    def test_round_trip(self):
        sc = preset("size_knee", seed=11, fills_per_order=15)
        sc = replace(
            sc,
            lit_schedule=((0.0, 1.0), (300.0, 0.25)),
            venues=sc.venues + (VenueProfile("DARK2", sweep_prob=0.25, active=(10.0, 500.0)),),
        )
        back = parse_scenario(format_scenario(sc))
        assert back == replace(sc, name=back.name)

    @pytest.mark.parametrize(
        "line", ["dark_fil_rate=0.9", "price.sigma=7", "venue.D1.leek_prob=0.5"]
    )
    def test_unknown_key_names_its_line(self, line):
        key = line.split("=")[0]
        with pytest.raises(ValueError, match=rf"^scenario line 3: unknown key '{key}'$"):
            parse_scenario(f"name=x\n# comment\n{line}\nseed=1\n")

    @pytest.mark.parametrize(
        "line, why",
        [
            ("lit_schedule=0:1,5", "expected colon-separated pairs, got '5'"),
            ("venue.D1.active=1", "expected colon-separated pairs, got '1'"),
            ("venue.D1.active=1:2,3:4", "expected one start:end pair"),
            ("duration=nan", "must be finite"),
            ("seed=1.5", "invalid literal for int"),
            ("seed=-1", "seed must be >= 0, got -1"),
            ("venue.D1.leak_prob=1.5", r"leak_prob must be in \[0, 1\]"),
            ("lit_schedule=5:1", "lit_schedule must start at t = 0"),
            ("price.start_mid=-1", "start_mid must be > 0"),
        ],
    )
    def test_bad_value_names_its_line(self, line, why):
        with pytest.raises(ValueError, match=rf"^scenario line 2: {re.escape(line)}: {why}"):
            parse_scenario(f"name=x\n{line}\n")

    @pytest.mark.parametrize(
        "line", ["duration=1e300", "duration=1e12", "dark_fill_rate=1e12", "lit_schedule=0:1e-12"]
    )
    def test_event_count_above_the_cap_names_its_line(self, line):
        # rejected before any draw, so nothing is allocated
        with pytest.raises(ValueError, match=rf"^scenario line 2: {re.escape(line)}: scenario expects .* events, "
                                             r"more than MAX_EVENTS"):
            parse_scenario(f"name=x\n{line}\nseed=1\n")

    def test_event_count_is_checked_on_the_whole_file(self):
        # 2e8 s at the default 1 s per lit print is over the cap until the
        # later lines slow the tape to 2e6 events
        text = "duration=2e8\nlit_schedule=0:100\ndark_fill_rate=0\n"
        sc = parse_scenario(text)
        assert (sc.duration, sc.lit_schedule, sc.dark_fill_rate) == (2e8, ((0.0, 100.0),), 0.0)
        valid = Scenario(duration=2e8, lit_schedule=((0.0, 100.0),), dark_fill_rate=0.0)
        assert parse_scenario(format_scenario(valid)) == valid

    @pytest.mark.parametrize(
        "text, line",
        [
            ("lit_schedule=0:1\nduration=2e8\nname=x\n", "2: duration=2e8"),
            ("duration=2e8\nseed=3\nlit_schedule=0:1\n", "3: lit_schedule=0:1"),
            ("duration=2e8\nlit_schedule=0:100\ndark_fill_rate=1\nseed=3\n", "3: dark_fill_rate=1"),
        ],
    )
    def test_event_count_names_the_last_line_that_entered_it(self, text, line):
        with pytest.raises(ValueError, match=rf"^scenario line {re.escape(line)}: scenario expects"):
            parse_scenario(text)

    def test_venue_lines_count_towards_the_cap(self):
        # 2e5 s at 100 fills/s is 2e7 events per venue: the fifth venue crosses 1e8
        head = "duration=200000\nlit_schedule=0:1000\ndark_fill_rate=100\n"
        venues = "".join(f"venue.V{i}.leak_prob=0\n" for i in range(5))
        with pytest.raises(ValueError, match=r"^scenario line 8: venue\.V4\.leak_prob=0: scenario expects"):
            parse_scenario(head + venues)
        assert len(parse_scenario(head + venues[: venues.index("venue.V4")]).venues) == 4

    def test_empty_venue_name_names_its_line(self):
        with pytest.raises(ValueError, match="^venue name must not be empty$"):
            VenueProfile("")
        with pytest.raises(ValueError, match=r"^scenario line 2: venue\.\.leak_prob=0\.5: venue name must not be empty$"):
            parse_scenario("duration=200\nvenue..leak_prob=0.5\n")

    @pytest.mark.parametrize("field", ["duration", "dark_fill_rate"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_size_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite and >= 0"):
            Scenario(**{field: value})

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: PriceModel(sigma_per_trade=math.nan), "sigma_per_trade must be finite, got nan"),
            (lambda: PriceModel(leak_impact=math.inf), "leak_impact must be finite, got inf"),
            (lambda: PriceModel(competing_drift=-math.inf), "competing_drift must be finite, got -inf"),
            (lambda: PriceModel(start_mid=math.inf), "start_mid must be finite, got inf"),
            (lambda: VenueProfile("A", size_leak_knee=math.nan), "size_leak_knee must be finite, got nan"),
            (lambda: VenueProfile("A", active=(0.0, math.inf)), r"active must be finite, got \(0\.0, inf\)"),
            (lambda: Scenario(lit_schedule=((0.0, 1.0), (5.0, math.inf))), "lit_schedule must be finite, got"),
        ],
    )
    def test_non_finite_numbers_are_refused_by_field(self, make, message):
        # format_scenario would write them as text that parse_scenario refuses
        with pytest.raises(ValueError, match=f"^{message}"):
            make()

    def test_a_scenario_has_a_venue(self):
        with pytest.raises(ValueError, match="^venues must hold at least one venue$"):
            Scenario(venues=())

    def test_two_venues_of_one_name_are_refused(self):
        # they once drew fill streams with the same keys, and both leaked as the last one
        with pytest.raises(ValueError, match="^venues must have distinct names, got 'A' twice$"):
            Scenario(venues=(VenueProfile("A"), VenueProfile("B"), VenueProfile("A", leak_prob=0.9)))

    def test_leak_prob_large_without_a_knee_round_trips(self):
        sc = scenario_for(venue=VenueProfile("A", leak_prob_large=0.3))
        assert "venue.A.leak_prob_large=0.3\n" in format_scenario(sc)
        assert parse_scenario(format_scenario(sc)) == sc

    def test_fleet_staggers_windows(self):
        base = preset("leaky", seed=1)
        flt = fleet(base, n_venues=4, venue_span_s=600.0, stagger_s=300.0)
        assert len(flt.venues) == 4
        assert flt.venues[0].active == (0.0, 600.0)
        assert flt.venues[3].active == (900.0, 1500.0)
        assert flt.duration >= 1500.0
        assert {v.venue for v in flt.venues} == {"DARK1000", "DARK1001", "DARK1002", "DARK1003"}
