"""Routing policy: turn ledger evidence into actions and replay them.

A venue escalates one rung up a minimum-fill-size ladder every time its
rolling Fisher evidence crosses the threshold, and is paused outright once
the ladder is spent. The replay runs the same tape twice - accepting every
fill, then filtering fills the policy would have rejected while re-scoring
only accepted ones - and compares per-order arrival slippage between arms.
Rejected fills are dropped, not re-routed, so liquidity-access gains are
deliberately not measured; the lit stream and price path stay fixed either
way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .evidence import DEFAULT_KMAX, EvidenceLedger, FisherResult, ledger_update
from .slippage import PricePath, arrival_slippage
from .surprise import DEFAULT_HORIZON_MULT, DEFAULT_WINDOW_SIZE, SurpriseRecord, score_tape
from .tape import Side, Tape, TapeEvent

__all__ = [
    "ActionKind",
    "DirectionFilter",
    "PolicyConfig",
    "PolicyAction",
    "VenueState",
    "OrderOutcome",
    "BacktestReport",
    "decide",
    "direction_admits",
    "replay",
]

# Default ladder: the small-fill floor where ~1 bp of 5 s slippage sits, the
# knee past which large fills stop signalling, and the plateau beyond which
# raising the floor only costs liquidity. Rung 0 is the policy-off reference,
# not an initial floor: a venue starts with no floor and a trigger applies
# rung min(escalations + 1, top), so only a one-rung ladder applies ladder[0].
DEFAULT_LADDER = (5_000.0, 25_000.0, 30_000.0)


class ActionKind(str, Enum):
    NONE = "none"
    RAISE_MIN_FILL = "raise_min_fill"
    PAUSE_VENUE = "pause_venue"


class DirectionFilter(str, Enum):
    IGNORE = "ignore"
    SAME_SIDE_ONLY = "same_side_only"
    OPPOSITE_SIDE_ONLY = "opposite_side_only"


@dataclass(frozen=True)
class PolicyConfig:
    alpha: float = 0.05
    k_min: int = 3
    min_fill_ladder: tuple[float, ...] = DEFAULT_LADDER
    pause_after: int = 2
    direction_filter: DirectionFilter = DirectionFilter.IGNORE
    window_size: int = DEFAULT_WINDOW_SIZE
    k_max: int = DEFAULT_KMAX
    horizon_mult: float = DEFAULT_HORIZON_MULT

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.k_min < 1:
            raise ValueError(f"k_min must be >= 1, got {self.k_min}")
        ladder = self.min_fill_ladder
        if not ladder or any(b <= a for a, b in zip(ladder, ladder[1:])):
            raise ValueError("min_fill_ladder must be non-empty and strictly increasing")
        if self.pause_after < 0:
            raise ValueError("pause_after must be >= 0")


@dataclass(frozen=True)
class PolicyAction:
    ts: int
    venue: str
    kind: ActionKind
    min_fill: float | None
    trigger: FisherResult | None


def decide(
    ledger: EvidenceLedger, cfg: PolicyConfig, escalations: int = 0
) -> PolicyAction:
    """Pure decision from a ledger snapshot and the venue's escalation count.

    No action while fewer than k_min p-values are combined or the combined p
    clears alpha. Otherwise the venue climbs one ladder rung per trigger and
    pauses once ``pause_after`` escalations are spent. The first trigger
    applies ``ladder[1]``: rung 0 is the policy-off reference, applied only
    when the ladder has a single rung (then every trigger applies it).
    """
    current = ledger.current
    if current is None:
        raise ValueError("ledger has no Fisher result yet")
    ts = ledger.history[-1].ts
    if current.k < cfg.k_min or current.combined_p >= cfg.alpha:
        return PolicyAction(ts, ledger.venue, ActionKind.NONE, None, current)
    if escalations >= cfg.pause_after:
        return PolicyAction(ts, ledger.venue, ActionKind.PAUSE_VENUE, None, current)
    ladder = cfg.min_fill_ladder
    rung = min(escalations + 1, len(ladder) - 1)
    return PolicyAction(ts, ledger.venue, ActionKind.RAISE_MIN_FILL, ladder[rung], current)


def direction_admits(record: SurpriseRecord, mode: DirectionFilter) -> bool:
    """Whether a scored fill's p_fwd may enter the ledger under the filter."""
    if mode is DirectionFilter.IGNORE:
        return True
    fill_side = record.fill.side
    next_side = record.next_lit_side
    if fill_side is Side.UNKNOWN or next_side is Side.UNKNOWN:
        return False
    same = fill_side is next_side
    return same if mode is DirectionFilter.SAME_SIDE_ONLY else not same


@dataclass
class VenueState:
    """Mutable per-venue policy state during a replay pass."""

    ledger: EvidenceLedger
    escalations: int = 0
    min_fill: float | None = None
    paused: bool = False
    decisions: int = 0
    triggers: int = 0


@dataclass(frozen=True)
class OrderOutcome:
    """One parent order's arrival slippage under both arms.

    ``slip_on`` is absent when the policy arm accepted none of the order's
    fills (the venue was paused or every fill sat below the raised floor).
    """

    venue: str
    order: str
    side: Side
    fills_off: int
    fills_on: int
    slip_off: float
    slip_on: float | None


@dataclass(frozen=True)
class BacktestReport:
    orders: tuple[OrderOutcome, ...]
    actions: tuple[PolicyAction, ...]
    decisions: int
    triggers: int
    mean_abs_off: float
    mean_abs_on: float
    stderr_abs_off: float
    stderr_abs_on: float
    n_off: int
    n_on: int

    @property
    def abs_ratio(self) -> float:
        """mean |arrival slippage|, policy-on over policy-off."""
        if self.mean_abs_off == 0:
            return math.nan
        return self.mean_abs_on / self.mean_abs_off

    @property
    def action_rate(self) -> float:
        return self.triggers / self.decisions if self.decisions else 0.0

    @property
    def diff_stderr(self) -> float:
        """Two-sample stderr of (mean_abs_on - mean_abs_off)."""
        return math.hypot(self.stderr_abs_off, self.stderr_abs_on)


def action_to_obj(action: PolicyAction) -> dict:
    """Wire-format object for one policy action (kind = "action")."""
    obj = {
        "kind": "action",
        "ts": action.ts,
        "venue": action.venue,
        "action": action.kind.value,
    }
    if action.min_fill is not None:
        obj["min_fill"] = action.min_fill
    if action.trigger is not None:
        obj["k"] = action.trigger.k
        obj["statistic"] = action.trigger.statistic
        obj["combined_p"] = action.trigger.combined_p
    return obj


def _order_key(fill: TapeEvent, venue: str) -> str:
    if fill.truth and "order" in fill.truth:
        return str(fill.truth["order"])
    return f"{venue}:f@{fill.ts}"


def _mean_stderr(values: Sequence[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return math.nan, math.nan
    mean = float(arr.mean())
    stderr = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else math.nan
    return mean, stderr


def replay(tape: Tape, path: PricePath, cfg: PolicyConfig) -> BacktestReport:
    """Two-pass backtest: accept-everything vs. policy-filtered.

    The fills are scored once by ``score_tape``: the lit window never
    depends on policy state. The policy arm then walks the dark fills in
    order; an accepted, scored fill's forward p-value (subject to the
    direction filter, censored ones excluded) feeds the venue's rolling
    ledger, and the fresh decision is applied before the next fill. Orders
    come from fill ground truth when present, else each fill stands alone.
    Arrival slippage per order uses the accepted fills only.
    """
    dark = np.flatnonzero(~tape.is_lit)
    if dark.size < cfg.k_min:
        raise ValueError(
            f"insufficient fills: tape has {dark.size} dark fills, need >= {cfg.k_min}"
        )

    fills_off: dict[tuple[str, str], list[TapeEvent]] = {}
    fills_on: dict[tuple[str, str], list[TapeEvent]] = {}
    order_seq: list[tuple[str, str]] = []
    states: dict[str, VenueState] = {}
    actions: list[PolicyAction] = []

    records = score_tape(tape, cfg.window_size, cfg.horizon_mult)
    # The window primes once and stays primed: the unscored fills lead.
    unscored = tape.rows(dark[: dark.size - len(records)])
    fills = [(event, None) for event in unscored] + [(r.fill, r) for r in records]
    for event, record in fills:
        venue = event.venue or ""
        key = (venue, _order_key(event, venue))
        if key not in fills_off:
            fills_off[key] = []
            order_seq.append(key)
        fills_off[key].append(event)

        state = states.get(venue)
        if state is None:
            state = states[venue] = VenueState(ledger=EvidenceLedger(venue, cfg.k_max))
        if state.paused:
            continue
        if state.min_fill is not None and event.size < state.min_fill:
            continue
        fills_on.setdefault(key, []).append(event)
        if record is None or record.p_fwd is None:
            continue
        if not direction_admits(record, cfg.direction_filter):
            continue
        ledger_update(state.ledger, event.ts, record.p_fwd)
        if state.ledger.current.k < cfg.k_min:
            continue
        state.decisions += 1
        action = decide(state.ledger, cfg, state.escalations)
        if action.kind is ActionKind.NONE:
            continue
        state.triggers += 1
        actions.append(action)
        if action.kind is ActionKind.RAISE_MIN_FILL:
            state.min_fill = action.min_fill
            state.escalations += 1
        else:
            state.paused = True

    outcomes: list[OrderOutcome] = []
    for key in order_seq:
        venue, order = key
        off = fills_off[key]
        on = fills_on.get(key, [])
        outcomes.append(
            OrderOutcome(
                venue=venue,
                order=order,
                side=off[0].side,
                fills_off=len(off),
                fills_on=len(on),
                slip_off=arrival_slippage(off),
                slip_on=arrival_slippage(on) if on else None,
            )
        )

    abs_off = [abs(o.slip_off) for o in outcomes]
    abs_on = [abs(o.slip_on) for o in outcomes if o.slip_on is not None]
    mean_off, se_off = _mean_stderr(abs_off)
    mean_on, se_on = _mean_stderr(abs_on)
    decisions = sum(s.decisions for s in states.values())
    triggers = sum(s.triggers for s in states.values())
    return BacktestReport(
        orders=tuple(outcomes),
        actions=tuple(actions),
        decisions=decisions,
        triggers=triggers,
        mean_abs_off=mean_off,
        mean_abs_on=mean_on,
        stderr_abs_off=se_off,
        stderr_abs_on=se_on,
        n_off=len(abs_off),
        n_on=len(abs_on),
    )
