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
from darkscope.simulator import fleet, preset, simulate_scenario
from darkscope.slippage import PricePath
from darkscope.surprise import SurpriseRecord
from darkscope.tape import EventKind, Side, Tape, TapeEvent

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
        fill = TapeEvent(EventKind.DARK, 0, "SYM", 100.0, 100.0, fill_side, venue="V1")
        return SurpriseRecord(
            fill=fill, delta_fwd=0.1, delta_bwd=None, p_fwd=0.5, p_bwd=None,
            n_used=10, mean_used=1.0, next_lit_side=next_side,
        )

    def test_ignore_admits_everything(self):
        assert direction_admits(self.record(Side.BUY, Side.SELL), DirectionFilter.IGNORE)
        assert direction_admits(self.record(Side.BUY, Side.UNKNOWN), DirectionFilter.IGNORE)

    def test_same_side_only(self):
        assert direction_admits(self.record(Side.BUY, Side.BUY), DirectionFilter.SAME_SIDE_ONLY)
        assert not direction_admits(self.record(Side.BUY, Side.SELL), DirectionFilter.SAME_SIDE_ONLY)
        assert not direction_admits(self.record(Side.BUY, Side.UNKNOWN), DirectionFilter.SAME_SIDE_ONLY)

    def test_opposite_side_only(self):
        assert direction_admits(self.record(Side.BUY, Side.SELL), DirectionFilter.OPPOSITE_SIDE_ONLY)
        assert not direction_admits(self.record(Side.BUY, Side.BUY), DirectionFilter.OPPOSITE_SIDE_ONLY)


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
    events.sort(key=lambda e: e.sort_key)
    return Tape.from_events("SYM", tuple(events))


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
            replay(Tape.from_events("SYM", events), flat_path(), PolicyConfig())

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
