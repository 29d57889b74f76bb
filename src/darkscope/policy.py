"""Routing policy: turn ledger evidence into actions and replay them.

A venue escalates one rung up a minimum-fill-size ladder every time its
rolling Fisher evidence crosses the threshold, and is paused outright once
the ladder is spent. The replay runs the same tape twice - accepting every
fill, then filtering fills the policy would have rejected while re-scoring
only accepted ones - and compares per-order arrival slippage between arms.
Rejected fills are dropped, not re-routed, so liquidity-access gains are
deliberately not measured; the lit stream and price path stay fixed either
way. The walk reads lists taken from the tape's columns and from
``surprise.score_columns``; it builds no per-fill object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .evidence import EvidenceLedger, FisherResult, ledger_update
from .options import DEFAULT_ALPHA, DEFAULT_HORIZON_MULT, DEFAULT_KMAX, DEFAULT_WINDOW_SIZE, check_alpha
from .slippage import PricePath, arrival_slippage
from .surprise import score_columns
from .tape import SIDE_OF_SIGN, Side, Tape

__all__ = [
    "ActionKind",
    "PolicyConfig",
    "PolicyAction",
    "VenueState",
    "OrderOutcome",
    "BacktestReport",
    "decide",
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


@dataclass(frozen=True)
class PolicyConfig:
    alpha: float = DEFAULT_ALPHA
    k_min: int = 3
    min_fill_ladder: tuple[float, ...] = DEFAULT_LADDER
    pause_after: int = 2
    window_size: int = DEFAULT_WINDOW_SIZE
    k_max: int = DEFAULT_KMAX
    horizon_mult: float = DEFAULT_HORIZON_MULT

    def __post_init__(self) -> None:
        check_alpha(self.alpha)
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


def _mean_stderr(values: Sequence[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return math.nan, math.nan
    mean = float(arr.mean())
    stderr = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else math.nan
    return mean, stderr


def replay(tape: Tape, path: PricePath, cfg: PolicyConfig) -> BacktestReport:
    """Two-pass backtest: accept-everything vs. policy-filtered.

    The fills are scored once by ``score_columns``: the lit window never
    depends on policy state. The policy arm then walks the dark fills in
    order, over lists taken from the columns; an accepted, scored fill's
    forward p-value (censored ones excluded) feeds the venue's rolling
    ledger, and the fresh decision is applied before the next fill. A fill's
    order is its ground-truth ``order`` when present, else the fill stands
    alone as ``venue:f@ts``; orders keep first-seen order. Arrival slippage
    per order uses the accepted fills only. ``path`` is not read.
    """
    dark = np.flatnonzero(~tape.is_lit)
    if dark.size < cfg.k_min:
        raise ValueError(
            f"insufficient fills: tape has {dark.size} dark fills, need >= {cfg.k_min}"
        )

    cols = score_columns(tape, cfg.window_size, cfg.horizon_mult)
    # The window primes once and stays primed: the unscored fills lead.
    # NaN marks a fill whose p_fwd never enters the ledger.
    p_fwd = np.full(dark.size, np.nan)
    p_fwd[cols.skipped + np.flatnonzero(cols.fwd)] = cols.p_fwd[cols.fwd]

    names = (*tape.venues, "")  # code -1: a fill without a venue
    orders: dict[tuple[str, str], list[int]] = {}
    accepted = np.zeros(len(tape), dtype=bool)
    states: dict[str, VenueState] = {}
    actions: list[PolicyAction] = []
    columns = (tape.venue[dark], tape.ts[dark], tape.size[dark], p_fwd)
    for row, code, ts, size, p in zip(dark.tolist(), *(c.tolist() for c in columns)):
        venue = names[code]
        truth = tape.truth.get(row) or {}
        order = str(truth["order"]) if "order" in truth else f"{venue}:f@{ts}"
        orders.setdefault((venue, order), []).append(row)

        state = states.get(venue)
        if state is None:
            state = states[venue] = VenueState(ledger=EvidenceLedger(venue, cfg.k_max))
        if state.paused:
            continue
        if state.min_fill is not None and size < state.min_fill:
            continue
        accepted[row] = True
        if math.isnan(p):
            continue
        ledger_update(state.ledger, ts, p)
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
    for (venue, order), rows in orders.items():
        off = np.array(rows)
        on = off[accepted[off]]
        outcomes.append(
            OrderOutcome(
                venue=venue,
                order=order,
                side=SIDE_OF_SIGN[int(tape.side[off[0]])],
                fills_off=off.size,
                fills_on=on.size,
                slip_off=arrival_slippage(tape, off),
                slip_on=arrival_slippage(tape, on) if on.size else None,
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
