import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darkscope import policy
from darkscope.options import MAX_KMAX, PRESETS
from darkscope.policy import ActionKind, PolicyConfig, replay
from darkscope.simulator import fleet, preset, simulate_scenario
from darkscope.slippage import PricePath
from darkscope.surprise import SurpriseRecord
from darkscope.tape import EventKind, Side, Tape, TapeEvent
from oracle import replay_walk, tape_from_events

S = 1_000_000_000


def crafted_toxic_tape(n_fills=8, fill_size=50_000.0, lead_s=0.01):
    """Lit prints each second; every fill lands ``lead_s`` before a lit print."""
    events = [
        TapeEvent(EventKind.LIT, t * S, "SYM", 100.0, 100.0, Side.BUY)
        for t in range(0, 120)
    ]
    for k in range(n_fills):
        ts = int((20 + 5 * k) * S - lead_s * S)
        events.append(
            TapeEvent(EventKind.DARK, ts, "SYM", 100.0, fill_size, Side.BUY, venue="VX")
        )
    return tape_from_events("SYM", events).sorted()


def flat_path(end_s=200):
    return PricePath(
        np.array([0, end_s * S], dtype=np.int64),
        np.log(np.array([100.0, 100.0])),
    )


class TestPolicyConfig:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            PolicyConfig(alpha=1.5)
        with pytest.raises(ValueError):
            PolicyConfig(min_fill_ladder=(5.0, 4.0))
        with pytest.raises(ValueError):
            PolicyConfig(k_min=0)

    def test_k_max_outside_its_domain_rejected(self):
        with pytest.raises(ValueError, match="^k_max must be >= 1, got 0$"):
            PolicyConfig(k_max=0)
        with pytest.raises(ValueError, match=f"^k_max must be <= MAX_KMAX = {MAX_KMAX}, got {MAX_KMAX + 1}$"):
            PolicyConfig(k_max=MAX_KMAX + 1)


class TestDecide:
    """The decision rule, read off the actions replay takes on crafted tapes."""

    def test_clean_evidence_no_action(self):
        report = replay(crafted_toxic_tape(lead_s=0.99), flat_path(), PolicyConfig())
        assert report.actions == ()
        assert report.decisions == 6  # k = 3..8 over the eight fills

    def test_below_k_min_never_acts(self):
        report = replay(crafted_toxic_tape(), flat_path(), PolicyConfig(k_max=2))
        assert (report.decisions, report.actions) == (0, ())

    def test_first_trigger_raises_to_second_rung(self):
        action = replay(crafted_toxic_tape(), flat_path(), PolicyConfig()).actions[0]
        assert (action.kind, action.min_fill, action.trigger.k) == (ActionKind.RAISE_MIN_FILL, 25_000.0, 3)
        assert action.trigger.combined_p < 0.05
        one_rung = PolicyConfig(min_fill_ladder=(40_000.0,))
        action = replay(crafted_toxic_tape(), flat_path(), one_rung).actions[0]
        assert (action.kind, action.min_fill) == (ActionKind.RAISE_MIN_FILL, 40_000.0)

    def test_second_trigger_tops_the_ladder(self):
        cfg = PolicyConfig(min_fill_ladder=(5_000.0, 25_000.0), pause_after=3)
        report = replay(crafted_toxic_tape(), flat_path(), cfg)
        assert [a.min_fill for a in report.actions] == [25_000.0, 25_000.0, 25_000.0, None]

    def test_third_trigger_pauses(self):
        report = replay(crafted_toxic_tape(), flat_path(), PolicyConfig())
        assert report.actions[2].kind is ActionKind.PAUSE_VENUE
        assert sum(o.fills_on for o in report.orders) == 5  # nothing after the pause
        report = replay(crafted_toxic_tape(), flat_path(), PolicyConfig(pause_after=0))
        assert [a.kind for a in report.actions] == [ActionKind.PAUSE_VENUE]


class TestReplay:
    def test_escalation_ladder_then_pause(self):
        tape = crafted_toxic_tape()
        report = replay(tape, flat_path(), PolicyConfig())
        kinds = [(a.kind, a.min_fill) for a in report.actions]
        assert kinds == [
            (ActionKind.RAISE_MIN_FILL, 25_000.0),
            (ActionKind.RAISE_MIN_FILL, 30_000.0),
            (ActionKind.PAUSE_VENUE, None),
        ]
        # paused after the 5th fill: 3 decisions at k=3,4,5 all trigger
        assert report.triggers == 3

    def test_small_fills_filtered_after_raise(self):
        tape = crafted_toxic_tape(fill_size=1_000.0)
        report = replay(tape, flat_path(), PolicyConfig())
        # one trigger raises the floor, every later small fill is dropped
        assert [a.kind for a in report.actions] == [ActionKind.RAISE_MIN_FILL]
        on = {o.order: o.fills_on for o in report.orders}
        assert sum(on.values()) == 3  # the three fills scored before the raise

    def test_never_acts_below_k_min(self):
        tape = crafted_toxic_tape()
        report = replay(tape, flat_path(), PolicyConfig(k_min=4))
        assert all(a.trigger.k >= 4 for a in report.actions)

    def test_insufficient_fills_rejected(self):
        events = (
            TapeEvent(EventKind.LIT, 0, "SYM", 100.0, 1.0, Side.BUY),
            TapeEvent(EventKind.DARK, S, "SYM", 100.0, 1.0, Side.BUY, venue="V"),
        )
        with pytest.raises(ValueError, match="insufficient fills"):
            replay(tape_from_events("SYM", events), flat_path(), PolicyConfig())

    def test_deterministic(self):
        sc = fleet(preset("leaky", seed=5), n_venues=10, venue_span_s=300.0, stagger_s=150.0)
        tape, path = simulate_scenario(sc)
        a = replay(tape, path, PolicyConfig())
        b = replay(tape, path, PolicyConfig())
        assert a == b

    def test_leaky_fleet_cuts_arrival_slippage(self):
        base = preset("leaky", seed=77, dark_fill_rate=0.05)
        sc = fleet(base, n_venues=60, venue_span_s=600.0, stagger_s=300.0)
        tape, path = simulate_scenario(sc)
        report = replay(tape, path, PolicyConfig())
        assert report.n_on >= 40
        assert report.mean_abs_on <= 0.8 * report.mean_abs_off

    def test_competing_fleet_not_scaled_back(self):
        base = preset("competing", seed=77, dark_fill_rate=0.05)
        sc = fleet(base, n_venues=60, venue_span_s=600.0, stagger_s=300.0)
        tape, path = simulate_scenario(sc)
        report = replay(tape, path, PolicyConfig())
        diff = abs(report.mean_abs_on - report.mean_abs_off)
        assert diff < 2 * report.diff_stderr
        assert not any(e.truth["leaked"] for e in tape if e.is_dark())

    def test_null_action_rate_bounded_and_arms_agree(self):
        base = preset("null", seed=31, dark_fill_rate=0.05, fills_per_order=15)
        sc = fleet(base, n_venues=40, venue_span_s=600.0, stagger_s=300.0)
        tape, path = simulate_scenario(sc)
        report = replay(tape, path, PolicyConfig())
        alpha = 0.05
        bound = alpha + 2 * math.sqrt(alpha / report.decisions)
        assert report.action_rate <= bound
        diff = abs(report.mean_abs_on - report.mean_abs_off)
        assert diff < 2 * report.diff_stderr


@st.composite
def policy_cases(draw):
    """(tape, cfg): fills of venues A, B and a venue-less one (code -1), at
    sizes below, on and above each rung, some censored by a short horizon."""
    rungs = draw(st.lists(st.sampled_from([1_000.0, 5_000.0, 25_000.0]), min_size=1, max_size=3, unique=True))
    ladder = tuple(sorted(rungs))
    cfg = PolicyConfig(
        alpha=draw(st.sampled_from([0.05, 0.5, 0.95])),
        k_min=draw(st.integers(1, 6)),
        min_fill_ladder=ladder,
        pause_after=draw(st.integers(0, 3)),
        window_size=draw(st.sampled_from([1, 3])),
        k_max=draw(st.integers(1, 8)),
        horizon_mult=draw(st.sampled_from([0.2, 1.0, 50.0])),
    )
    gaps = draw(st.lists(st.integers(1, 20), min_size=4, max_size=30))
    lit_ts = S + np.cumsum(gaps) * (S // 10)
    events = [TapeEvent(EventKind.LIT, int(ts), "SYM", 100.0, 100.0, Side.BUY) for ts in lit_ts]
    fill = st.builds(
        lambda lit, lead_ms, venue, size, side, price, order: TapeEvent(
            EventKind.DARK, int(lit_ts[lit]) - lead_ms * (S // 1000), "SYM", price, size, side,
            venue=venue, mid=100.0, truth=None if order is None else {"order": order},
        ),
        st.integers(0, lit_ts.size - 1),
        st.sampled_from([2, 20, 300, -20]),  # ms before a lit print; -20 lands after it
        st.sampled_from([None, "A", "B"]),
        st.sampled_from([rung * scale for rung in ladder for scale in (0.5, 1.0, 1.5)]),
        st.sampled_from([Side.BUY, Side.SELL]),
        st.sampled_from([99.9, 100.0, 100.2]),
        st.none() | st.sampled_from("xy"),
    )
    events += draw(st.lists(fill, min_size=6, max_size=60))
    return tape_from_events("SYM", events).sorted(), cfg


class TestReplayWalk:
    @given(case=policy_cases())
    @settings(max_examples=150, deadline=None)
    def test_replay_matches_the_walk(self, case):
        tape, cfg = case
        assert repr(replay(tape, flat_path(), cfg)) == repr(replay_walk(tape, cfg))


# sha256 of the reprs of replay at window sizes 1 and 10, per tape. Recorded
# from the columnar replay while it still matched the digests pinned from the
# replay that walked SurpriseRecords, which also covered two direction filters.
REPLAY_PINS = {
    "null-0": "705474947919fb9906d800c196b77e12c95453a7c25d480e77edac732af19a3e",
    "null-1": "30c587bcfd0a98ad298a21f6af690e009dc2d8177641bcf52a5b6c9fe6adf088",
    "leaky-0": "2ef09b54f0e9a2113a19dc1b84c317a4c6f4034215a0f7e12cda64f155a0991a",
    "leaky-1": "d1f08ed28eb9672bfe92275f13522fe951eb18799e2430fd4d6614c72075312a",
    "sweep-0": "cea86dfa47cf562db181eed4b409b7073262532b3b549eb62df17ecceafab812",
    "sweep-1": "4a6228239874705347699ad7bd6730db0b33c03ebfb1c4bab939a7bac00fbd7e",
    "latent-0": "c3c3dcd520c2c762b7a9b519a3a30882095460c52493dfd138fa96fb42d0aae8",
    "latent-1": "37080e89858220cde67c6cdd72801ac475c6598a1f709ac70d421b8887a632d9",
    "competing-0": "5dd85554cbe22264f04c35f8f4c8322246586c85284f435217fd2a9f66350c15",
    "competing-1": "ceb13d388a29e8a524a8a5cea9a1e334ecc28d856bf7dc1a7397caad9e389bcc",
    "size_knee-0": "be32c4bfeec2c1936c15740e1877d09506f2c26b5edbb0463981937b2d59c023",
    "size_knee-1": "d5afbb71811d918de135b85d8080a6a0367af530143b2f6060e2a7f79da42544",
    "leaky-fleet": "e186337550f25d465fe6b6a638ff34d6bf9de18f5a317c825817f44ab60eaeac",
    "leaky-0-no-truth": "5d445d9edcecf64330e2a51e0781ecd0798121ecf1971e560b7e132e538acb32",
}


def pin_tapes():
    """(name, (tape, path)) of every pinned tape."""
    for name in PRESETS:
        for seed in (0, 1):
            yield f"{name}-{seed}", simulate_scenario(preset(name, seed=seed, duration=2_000.0))
    yield "leaky-fleet", simulate_scenario(fleet(preset("leaky", seed=5), 10, 300.0, 150.0))
    tape, path = simulate_scenario(preset("leaky", seed=0, duration=2_000.0))
    yield "leaky-0-no-truth", (replace(tape, truth=None), path)


def replay_digest(tape, path):
    reprs = [repr(replay(tape, path, PolicyConfig(window_size=n))) for n in (1, 10)]
    return hashlib.sha256("\n".join(reprs).encode()).hexdigest()


@pytest.fixture(scope="module")
def pinned_tapes():
    return dict(pin_tapes())


class TestReplayPins:
    @pytest.mark.parametrize("name", list(REPLAY_PINS))
    def test_replay_matches_its_pin(self, pinned_tapes, name):
        assert replay_digest(*pinned_tapes[name]) == REPLAY_PINS[name]

    def test_replay_builds_no_row_views(self, pinned_tapes, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("replay built a per-fill object")

        monkeypatch.setattr(Tape, "rows", refuse)
        monkeypatch.setattr(SurpriseRecord, "__init__", refuse)
        tape, path = pinned_tapes["leaky-fleet"]
        report = replay(tape, path, PolicyConfig())
        assert report.orders and report.decisions > 0

    def test_fold_count_is_bounded(self, pinned_tapes, monkeypatch):
        calls, fold = [], policy.fisher_fold

        def counted(*args):
            calls.append(args)
            return fold(*args)

        monkeypatch.setattr(policy, "fisher_fold", counted)
        fleet_150 = fleet(preset("leaky", seed=3, dark_fill_rate=0.05), 150, 600.0, 100.0)
        for tape, path in (pinned_tapes["leaky-fleet"], simulate_scenario(fleet_150)):
            for cfg in (PolicyConfig(pause_after=0), PolicyConfig(pause_after=1), PolicyConfig()):
                calls.clear()
                report = replay(tape, path, cfg)
                assert any(a.kind is ActionKind.PAUSE_VENUE for a in report.actions)
                assert len(calls) <= cfg.pause_after + 2
