"""Routing policy: turn Fisher evidence into actions and replay them.

A venue escalates one rung up a minimum-fill-size ladder every time its
rolling Fisher evidence crosses the threshold, and is paused outright once
the ladder is spent. The replay compares per-order arrival slippage between
two arms over one scoring of the tape: accepting every fill, and filtering
the fills the policy rejects, whose p-values then never reach the evidence.
Rejected fills are dropped, not re-routed, so liquidity-access gains are
deliberately not measured; the lit stream stays fixed either way. The
evidence is folded by ``evidence.fisher_fold``, as in ``score``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .evidence import FisherResult, fisher_fold
from .options import DEFAULT_ALPHA, DEFAULT_HORIZON_MULT, DEFAULT_KMAX, DEFAULT_WINDOW_SIZE, check_alpha, check_count
from .surprise import score_columns
from .tape import BP, SIDE_OF_SIGN, Side, Tape

if TYPE_CHECKING:  # for annotations only: replay reads no price path
    from .slippage import PricePath

__all__ = [
    "ActionKind",
    "PolicyConfig",
    "PolicyAction",
    "OrderOutcome",
    "BacktestReport",
    "arrival_slippage",
    "replay",
]

# Default ladder: the small-fill floor where ~1 bp of 5 s slippage sits, the
# knee past which large fills stop signalling, and the plateau beyond which
# raising the floor only costs liquidity. Rung 0 is the policy-off reference,
# not an initial floor: a venue starts with no floor and its c-th trigger
# applies rung min(c, top), so only a one-rung ladder applies ladder[0].
DEFAULT_LADDER = (5_000.0, 25_000.0, 30_000.0)


class ActionKind(str, Enum):
    RAISE_MIN_FILL = "raise_min_fill"
    PAUSE_VENUE = "pause_venue"


@dataclass(frozen=True)
class PolicyConfig:
    """The decision rule, and the scorer's ``window_size`` and ``horizon_mult``.

    Each accepted fill's forward p-value updates its venue's Fisher
    combination of the last ``k_max`` of them. An update with k >= ``k_min``
    is a decision; it triggers when the combined p is below ``alpha``. A
    venue's c-th trigger raises its floor to ``min_fill_ladder[min(c, top)]``
    while c <= ``pause_after``, and pauses the venue past that.
    """

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
        check_count("k_max", self.k_max, "MAX_KMAX")


@dataclass(frozen=True)
class PolicyAction:
    ts: int
    venue: str
    kind: ActionKind
    min_fill: float | None
    trigger: FisherResult


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


def arrival_slippage(tape: Tape, rows: Sequence[int] | np.ndarray) -> float:
    """Order-level arrival slippage in bp over one order's fills, the tape rows ``rows``.

    Signed difference between the size-weighted average fill price and the
    order's first-fill mid (the arrival proxy: a dark order's first fill is
    effectively at mid). Positive = adverse for the order's side.
    """
    if len(rows) == 0:
        raise ValueError("order has no fills")
    first = rows[0]
    sign = int(tape.side[first])
    if sign == 0:
        raise ValueError("order side must be buy or sell")
    arrival = float(tape.price[first] if np.isnan(tape.mid[first]) else tape.mid[first])
    weights, prices = tape.size[rows], tape.price[rows]
    with np.errstate(over="ignore", invalid="ignore"):
        vwap = float(np.average(prices, weights=weights))
        if not 0.0 < vwap < math.inf:  # a weighted sum over- or underflowed: scale the weights
            weights = weights / weights.max()
            vwap = float(np.average(prices, weights=weights))
        if not 0.0 < vwap < math.inf:  # the price sum did too: scale the prices
            top = prices.max()
            vwap = float(np.average(prices / top, weights=weights)) * float(top)
    return sign * (math.log(vwap) - math.log(arrival)) * BP


def replay(tape: Tape, path: PricePath | None, cfg: PolicyConfig) -> BacktestReport:
    """Two-arm backtest: accept-everything vs. policy-filtered.

    The fills are scored once by ``score_columns``: the lit window never
    depends on policy state. In the policy arm a fill is accepted unless its
    venue is paused or it sits below the venue's floor; an accepted fill's
    forward p-value (censored ones excluded) updates its venue's evidence,
    and a trigger acts from the venue's next fill on. A fill's order is its
    ground-truth ``order`` when present, else the fill stands alone as
    ``venue:f@ts``; orders keep first-seen order. Arrival slippage per order
    uses the accepted fills' own prices and mids only: ``path`` is not read.

    A venue's state depends only on its trigger count, so a fold of the
    fills accepted under the known triggers is exact up to each venue's
    first unknown one. The replay works in rounds: each folds every venue's
    evidence with one ``fisher_fold`` and adds each venue's next trigger. A
    venue triggers at most ``pause_after + 1`` times, so the round that finds
    none, and is exact, is at most the ``pause_after + 2``-th.
    """
    dark = np.flatnonzero(~tape.is_lit)
    if dark.size < cfg.k_min:
        raise ValueError(f"insufficient fills: tape has {dark.size} dark fills, need >= {cfg.k_min}")

    cols = score_columns(tape, cfg.window_size, cfg.horizon_mult)
    # The window primes once and stays primed: the unscored fills lead.
    # NaN marks a fill whose p_fwd never enters the evidence.
    p_fwd = np.full(dark.size, np.nan)
    p_fwd[cols.skipped + np.flatnonzero(cols.fwd)] = cols.p_fwd[cols.fwd]

    names = (*tape.venues, "")  # code -1: a fill without a venue
    table: dict[str, int] = {}  # venues that share a name share their evidence
    codes = tape.venue[dark]
    venue = np.array([table.setdefault(n, len(table)) for n in names], dtype=np.intp)[codes]
    ts, size = tape.ts[dark], tape.size[dark]
    # The fill floor by trigger count c <= pause_after; past that the venue is paused.
    ladder = cfg.min_fill_ladder
    floors = np.array([-math.inf, *(ladder[min(c, len(ladder) - 1)] for c in range(1, cfg.pause_after + 1))])

    count = np.zeros(dark.size, dtype=np.intp)  # the venue's known triggers before each fill
    fired = np.zeros(dark.size, dtype=bool)  # the known triggers
    while True:
        accepted = (count <= cfg.pause_after) & ~(size < floors[np.minimum(count, cfg.pause_after)])
        rows = np.flatnonzero(accepted & ~np.isnan(p_fwd))
        k, statistic, combined_p = fisher_fold(venue[rows], ts[rows], p_fwd[rows], cfg.k_max)
        # Before a venue's last known trigger, its known triggers are its only fires.
        fire = rows[(k >= cfg.k_min) & (combined_p < cfg.alpha) & ~fired[rows]]
        if not fire.size:
            break
        first = np.full(len(table), dark.size)
        np.minimum.at(first, venue[fire], fire)  # each venue's next trigger
        count += np.arange(dark.size) > first[venue]
        fired[first[first < dark.size]] = True

    actions: list[PolicyAction] = []
    for i in np.flatnonzero(fired[rows]).tolist():
        row, c = rows[i], int(count[rows[i]])
        trigger = FisherResult(int(k[i]), float(statistic[i]), float(combined_p[i]))
        if c >= cfg.pause_after:
            actions.append(PolicyAction(int(ts[row]), names[codes[row]], ActionKind.PAUSE_VENUE, None, trigger))
        else:
            rung = float(floors[c + 1])
            actions.append(PolicyAction(int(ts[row]), names[codes[row]], ActionKind.RAISE_MIN_FILL, rung, trigger))

    orders: dict[tuple[str, str], list[int]] = {}
    for row, code, t, truth in zip(dark.tolist(), codes.tolist(), ts.tolist(), tape.truth[dark].tolist()):
        order = str(truth["order"]) if truth and "order" in truth else f"{names[code]}:f@{t}"
        orders.setdefault((names[code], order), []).append(row)
    taken = np.zeros(len(tape), dtype=bool)
    taken[dark[accepted]] = True

    outcomes: list[OrderOutcome] = []
    for (venue_name, order), fills in orders.items():
        off = np.array(fills)
        on = off[taken[off]]
        outcomes.append(
            OrderOutcome(
                venue=venue_name,
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
    return BacktestReport(
        orders=tuple(outcomes),
        actions=tuple(actions),
        decisions=int(np.count_nonzero(k >= cfg.k_min)),
        triggers=len(actions),
        mean_abs_off=mean_off,
        mean_abs_on=mean_on,
        stderr_abs_off=se_off,
        stderr_abs_on=se_on,
        n_off=len(abs_off),
        n_on=len(abs_on),
    )
