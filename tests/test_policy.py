import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from darkscope.evidence import EvidenceLedger, ledger_update
from darkscope.policy import (
    ActionKind,
    DirectionFilter,
    PolicyConfig,
    decide,
    direction_admits,
    replay,
)
from darkscope.simulator import PRESET_NAMES, fleet, preset, simulate_scenario
from darkscope.slippage import PricePath
from darkscope.surprise import SurpriseRecord
from darkscope.tape import EventKind, Side, Tape, TapeEvent
from oracle import tape_from_events

S = 1_000_000_000


def ledger_with(ps, venue="V1", k_max=5):
    ledger = EvidenceLedger(venue, k_max)
    for i, p in enumerate(ps):
        ledger_update(ledger, i, p)
    return ledger


class TestDecide:
    def test_clean_evidence_no_action(self):
        action = decide(ledger_with([0.5, 0.6, 0.4, 0.7, 0.5]), PolicyConfig())
        assert action.kind is ActionKind.NONE

    def test_below_k_min_never_acts(self):
        action = decide(ledger_with([0.001, 0.001]), PolicyConfig(k_min=3))
        assert action.kind is ActionKind.NONE

    def test_first_trigger_raises_to_second_rung(self):
        action = decide(ledger_with([0.01, 0.02, 0.01, 0.5, 0.3]), PolicyConfig())
        assert action.kind is ActionKind.RAISE_MIN_FILL
        assert action.min_fill == 25_000.0
        assert action.trigger.combined_p < 0.05

    def test_second_trigger_tops_the_ladder(self):
        action = decide(ledger_with([0.01, 0.02, 0.01]), PolicyConfig(), escalations=1)
        assert action.kind is ActionKind.RAISE_MIN_FILL
        assert action.min_fill == 30_000.0

    def test_third_trigger_pauses(self):
        action = decide(ledger_with([0.01, 0.02, 0.01]), PolicyConfig(), escalations=2)
        assert action.kind is ActionKind.PAUSE_VENUE

    def test_empty_ledger_rejected(self):
        with pytest.raises(ValueError):
            decide(EvidenceLedger("V1"), PolicyConfig())

    def test_pure_function_of_inputs(self):
        ledger = ledger_with([0.01, 0.02, 0.01])
        cfg = PolicyConfig()
        assert decide(ledger, cfg, 1) == decide(ledger, cfg, 1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PolicyConfig(alpha=1.5)
        with pytest.raises(ValueError):
            PolicyConfig(min_fill_ladder=(5.0, 4.0))
        with pytest.raises(ValueError):
            PolicyConfig(k_min=0)


class TestDirectionFilter:
    def record(self, fill_side, next_side):
        """Side-sign columns of one scored fill and the lit print after it."""
        return np.array([fill_side.sign], np.int8), np.array([next_side.sign], np.int8)

    def admits(self, sides, mode):
        (admitted,) = direction_admits(*sides, mode).tolist()
        return admitted

    def test_ignore_admits_everything(self):
        assert self.admits(self.record(Side.BUY, Side.SELL), DirectionFilter.IGNORE)
        assert self.admits(self.record(Side.BUY, Side.UNKNOWN), DirectionFilter.IGNORE)

    def test_same_side_only(self):
        assert self.admits(self.record(Side.BUY, Side.BUY), DirectionFilter.SAME_SIDE_ONLY)
        assert not self.admits(self.record(Side.BUY, Side.SELL), DirectionFilter.SAME_SIDE_ONLY)
        assert not self.admits(self.record(Side.BUY, Side.UNKNOWN), DirectionFilter.SAME_SIDE_ONLY)

    def test_opposite_side_only(self):
        assert self.admits(self.record(Side.BUY, Side.SELL), DirectionFilter.OPPOSITE_SIDE_ONLY)
        assert not self.admits(self.record(Side.BUY, Side.BUY), DirectionFilter.OPPOSITE_SIDE_ONLY)

    def test_masks_a_column(self):
        fill_side = np.array([1, 1, -1, 0, -1], np.int8)
        next_side = np.array([1, -1, -1, 1, 0], np.int8)
        assert direction_admits(fill_side, next_side, DirectionFilter.SAME_SIDE_ONLY).tolist() == [
            True, False, True, False, False,
        ]
        assert direction_admits(fill_side, next_side, DirectionFilter.OPPOSITE_SIDE_ONLY).tolist() == [
            False, True, False, False, False,
        ]


def crafted_toxic_tape(n_fills=8, fill_size=50_000.0):
    """Lit prints each second; every fill lands 10 ms before a lit print."""
    events = [
        TapeEvent(EventKind.LIT, t * S, "SYM", 100.0, 100.0, Side.BUY)
        for t in range(0, 120)
    ]
    for k in range(n_fills):
        ts = int((20 + 5 * k) * S - 0.01 * S)
        events.append(
            TapeEvent(EventKind.DARK, ts, "SYM", 100.0, fill_size, Side.BUY, venue="VX")
        )
    return tape_from_events("SYM", events).sorted()


def flat_path(end_s=200):
    return PricePath(
        np.array([0, end_s * S], dtype=np.int64),
        np.log(np.array([100.0, 100.0])),
    )


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

    def test_direction_filter_reduces_ledger_flow(self):
        sc = fleet(preset("null", seed=13, dark_fill_rate=0.05), 10, 600.0, 300.0)
        tape, path = simulate_scenario(sc)
        all_in = replay(tape, path, PolicyConfig())
        same_only = replay(
            tape, path, PolicyConfig(direction_filter=DirectionFilter.SAME_SIDE_ONLY)
        )
        # sides are i.i.d., so roughly half the records are filtered out
        assert 0 < same_only.decisions < all_in.decisions


# sha256 of the reprs of replay under each DirectionFilter x window size
# (1, 10), per tape, recorded from the replay that walked SurpriseRecords.
REPLAY_PINS = {
    "null-0": "f48ce0ebc319fdc4f1bc83e69c3b166b249bb3af7a414f7ef9b8f958ba602f4a",
    "null-1": "3bc5fcb82f29d714426b37f92f590550eba772ee2fc7053fb665a1400ab54a08",
    "leaky-0": "6915c3e9502b4d996143bd151c136b411703d656c6cb045019d23b72fd39e042",
    "leaky-1": "ae19982bcda1864f0c8ca5c8fcede20f1f9c79007e19a6943e8799dea3d0a35b",
    "sweep-0": "ad5526ae7b0c8865c9cc0dff386635685146d6006e9fcc0abab316f83f786f3b",
    "sweep-1": "0d5daee4d8b317c0e6c9dc4add881651f93c823a6bdb0e52a3ebcde9469aac2a",
    "latent-0": "90d53d3b2351a4548333630a29f1cd03298c71a26d654d81bdace6c69feb0382",
    "latent-1": "7bde31cfe187adaf6d3ef4c1958cd63d89789e47ba2beca1b8292b894d01800d",
    "competing-0": "ce98e590b3706dfa9641ef50acb1f9369e94e68e61e342254e0304faaeee083e",
    "competing-1": "1c0229292307c07eba876d82b8939f636dcab31204a9d2fcbb85a897e2c6c65a",
    "size_knee-0": "dd3abf008d852dba5aaa68625c2633a3d503b69880e4170f696b3d5412d920ab",
    "size_knee-1": "558bb027be8ac544a3b31da7fff2656fcdff92dc53c6c13eab5e26ba8dee9a6c",
    "leaky-fleet": "9442eb49e93ecef81a1029da3e5c08d3b7ff52567c44327280bc4e2bef1ab717",
    "leaky-0-no-truth": "0aaee8303ea36b29039072f5b4cb26b39f6c6e6c61c08341efe0787c6bd35912",
}


def pin_tapes():
    """(name, (tape, path)) of every pinned tape."""
    for name in PRESET_NAMES:
        for seed in (0, 1):
            yield f"{name}-{seed}", simulate_scenario(preset(name, seed=seed, duration=2_000.0))
    yield "leaky-fleet", simulate_scenario(fleet(preset("leaky", seed=5), 10, 300.0, 150.0))
    tape, path = simulate_scenario(preset("leaky", seed=0, duration=2_000.0))
    yield "leaky-0-no-truth", (replace(tape, truth={}), path)


def replay_digest(tape, path):
    reprs = [
        repr(replay(tape, path, PolicyConfig(direction_filter=mode, window_size=n)))
        for mode in DirectionFilter
        for n in (1, 10)
    ]
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
