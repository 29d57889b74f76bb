"""Timing-surprise scoring of dark fills against local lit-trade intensity.

The lit stream is treated locally as a Poisson point process. A rolling
window keeps the last n lit inter-arrival durations and their mean m, the
maximum-likelihood scale (seconds per trade). The wait from a dark fill to
the next lit print has the same exponential law as the inter-arrival
durations (memorylessness: the inspection time does not matter), so it can
be scored against the window.

Scoring uses the predictive distribution of the next duration with the
scale integrated out against a 1/scale prior:

    density  f(d) = n^(n+1) m^n / (n m + d)^(n+1)
    cdf      F(d) = 1 - (n m / (n m + d))^n

F(d) is exactly Uniform(0,1) when d and the window come from one Poisson
process, for every n >= 1, which makes it a calibrated p-value with the
estimator noise of small windows priced in (heavier tails than the plug-in
exponential). Small p = suspiciously quick lit print. The backward duration
(lit print just before the fill) is scored identically as a latent-price
indicator.

``score_columns`` scores every fill at once, reading each fill's window
straight off the lit column: with ``before`` lit prints ahead of a fill in
sequence order, the previous print is lit print ``before - 1``, the next one
is lit print ``before``, and the window is the last n of the ``before - 1``
durations between them. A fill is scored once two lit prints precede it.
It returns columns, which every command reads, and ``serialize_scores``
formats them as wire lines. ``score_tape`` views them as one
``SurpriseRecord`` per fill, a row form kept for callers outside ``src/``.
``_predictive_cdfs`` is the one implementation of the formula (``_pvalues``
adds the duration floor and the clamp); ``predictive_cdf`` and
``fill_pvalue`` are its one-element calls, for a window given by its count n
and mean m. The scalar reference scorer that the tests compare against, value
for value, lives with the tests.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .options import DEFAULT_HORIZON_MULT, DEFAULT_WINDOW_SIZE, check_count, check_horizon_mult
from .tape import (
    DURATION_FLOOR_NS,
    SIDE_JSON,
    SIDE_OF_SIGN,
    Side,
    Tape,
    TapeEvent,
    json_floats,
)

__all__ = [
    "SurpriseRecord",
    "predictive_cdf",
    "fill_pvalue",
    "ScoreColumns",
    "score_columns",
    "score_tape",
    "serialize_scores",
    "MIN_DURATION_S",
    "MIN_PVALUE",
]

# Tape duration floor (1 ns) in seconds.
MIN_DURATION_S = DURATION_FLOOR_NS * 1e-9
# p-values are clamped below so Fisher's -2 log p stays finite.
MIN_PVALUE = 1e-300

_NS = 1e-9


@dataclass(frozen=True)
class SurpriseRecord:
    """Per-dark-fill surprise scores.

    Forward fields are absent when no lit print lands inside the lookahead
    horizon (censored fill); backward fields are absent when the fill
    precedes every lit print. ``next_lit_side`` records relative direction
    only; it never modifies a p-value.
    """

    fill: TapeEvent
    delta_fwd: float | None
    delta_bwd: float | None
    p_fwd: float | None
    p_bwd: float | None
    n_used: int
    mean_used: float
    next_lit_side: Side = Side.UNKNOWN


@dataclass(frozen=True, eq=False)
class ScoreColumns:
    """Scores of the scored dark fills as columns, one row per fill in tape order.

    ``row`` is the fill's tape row; ``n`` and ``mean`` are the window's count
    and mean. ``fwd`` marks fills with a lit print inside the horizon; where it
    is False (censored), ``delta_fwd`` and ``p_fwd`` hold 0.0 and ``next_side``
    0. ``skipped`` counts the dark fills ahead of them, before the window held
    a duration.
    """

    row: np.ndarray
    n: np.ndarray
    mean: np.ndarray
    fwd: np.ndarray
    delta_fwd: np.ndarray
    p_fwd: np.ndarray
    delta_bwd: np.ndarray
    p_bwd: np.ndarray
    next_side: np.ndarray
    skipped: int

    def __len__(self) -> int:
        return int(self.row.size)

    @property
    def censored(self) -> int:
        """Scored fills with no lit print inside the horizon."""
        return len(self) - int(np.count_nonzero(self.fwd))


def _predictive_cdfs(delta: np.ndarray, n: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """1 - (n m / (n m + d))^n over columns, in log space so it stays accurate
    for tiny d/m. Numpy does the arithmetic, ``math`` the transcendentals, so
    each value is the scalar ``-expm1(-n * log1p(d / (n * m)))`` bit for bit."""
    x = delta / (n * mean)
    y = -n * np.array(list(map(math.log1p, x.tolist())), dtype=np.float64)
    return -np.array(list(map(math.expm1, y.tolist())), dtype=np.float64)


def _pvalues(delta: np.ndarray, n: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Fill p-values: durations floored at the tape floor, p clamped to
    [MIN_PVALUE, 1] so log p is finite."""
    p = _predictive_cdfs(np.maximum(delta, MIN_DURATION_S), n, mean)
    return np.minimum(np.maximum(p, MIN_PVALUE), 1.0)


def _one(delta: float, n: int, mean: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A window's (delta, n, mean) as one-element columns; rejects an empty
    window and a mean that is not > 0."""
    if n < 1:
        raise ValueError(f"window must hold at least one duration, got n = {n}")
    if not mean > 0:
        raise ValueError(f"window mean must be > 0, got {mean}")
    return np.array([delta], np.float64), np.array([n], np.int64), np.array([mean], np.float64)


def predictive_cdf(delta: float, n: int, mean: float) -> float:
    """P(next duration <= delta) with the scale integrated out, against a
    window of n durations with mean ``mean`` seconds.

    1 - (n m / (n m + d))^n; it converges to the exponential CDF as n grows.
    """
    if delta < 0:
        raise ValueError(f"duration must be >= 0, got {delta}")
    return float(_predictive_cdfs(*_one(delta, n, mean))[0])


def fill_pvalue(delta: float, n: int, mean: float) -> float:
    """Surprise p-value of a fill-to-print duration: small = suspiciously quick.

    Lower-tail predictive probability against a window of n durations with
    mean ``mean``, with the duration floored at the 1 ns tape floor and the
    result clamped to [1e-300, 1] so log p is finite.
    """
    return float(_pvalues(*_one(delta, n, mean))[0])


def score_columns(
    tape: Tape,
    window_size: int = DEFAULT_WINDOW_SIZE,
    horizon_mult: float = DEFAULT_HORIZON_MULT,
) -> ScoreColumns:
    """Score every dark fill of a merged tape against the lit prints before it.

    Lit prints feed the duration window; dark fills never do. Fills arriving
    before the window holds a single duration (fewer than two lit prints
    ahead) are skipped. The lookahead horizon is ``horizon_mult`` times the
    window mean at scoring time. Raises on a window size below 1, a
    ``horizon_mult`` that is not finite and > 0, and decreasing lit timestamps.
    """
    check_count("window capacity", window_size, "MAX_WINDOW")
    check_horizon_mult(horizon_mult)
    lit_pos = np.flatnonzero(tape.is_lit)
    lit_ts = tape.ts[lit_pos]
    gaps = np.diff(lit_ts)
    down = np.flatnonzero(gaps < 0)
    if down.size:
        i = down[0]
        raise ValueError(f"non-monotone lit timestamp: {lit_ts[i + 1]} < {lit_ts[i]}")
    # each duration is the integer gap, floored at the tape floor, times 1e-9
    durations = (np.maximum(gaps, DURATION_FLOOR_NS) * _NS).tolist()
    dark = np.flatnonzero(~tape.is_lit)
    before = np.searchsorted(lit_pos, dark)
    scored = before >= 2
    row, b = dark[scored], before[scored]
    # the window is the last window_size of the b - 1 durations before the fill
    hi = b - 1
    lo = np.maximum(hi - window_size, 0)
    n = hi - lo
    sums = [math.fsum(durations[i:j]) for i, j in zip(lo.tolist(), hi.tolist())]
    mean = np.array(sums, dtype=np.float64) / n
    fill_ts = tape.ts[row]

    # forward: lit print b, if any, within int(horizon_mult * mean * 1e9) ns
    has_next = b < lit_ts.size
    nxt = np.minimum(b, lit_ts.size - 1)
    gap_fwd = lit_ts[nxt] - fill_ts
    with np.errstate(over="ignore"):  # an infinite horizon censors nothing
        horizon = horizon_mult * mean * 1e9
    beyond_int64 = horizon >= 2.0**63
    limit = np.where(beyond_int64, 0.0, horizon).astype(np.int64)  # truncates, as int()
    fwd = has_next & (beyond_int64 | (gap_fwd <= limit))
    delta_fwd = np.zeros(row.size)
    p_fwd = np.zeros(row.size)
    delta_fwd[fwd] = np.maximum(gap_fwd[fwd], DURATION_FLOOR_NS) * _NS
    p_fwd[fwd] = _pvalues(delta_fwd[fwd], n[fwd], mean[fwd])
    next_side = np.where(fwd, tape.side[lit_pos][nxt], 0).astype(np.int8)

    # backward: lit print b - 1 always precedes a scored fill
    delta_bwd = np.maximum(fill_ts - lit_ts[hi], DURATION_FLOOR_NS) * _NS
    p_bwd = _pvalues(delta_bwd, n, mean)
    return ScoreColumns(
        row=row,
        n=n,
        mean=mean,
        fwd=fwd,
        delta_fwd=delta_fwd,
        p_fwd=p_fwd,
        delta_bwd=delta_bwd,
        p_bwd=p_bwd,
        next_side=next_side,
        skipped=int(dark.size - row.size),
    )


def score_tape(
    tape: Tape,
    window_size: int = DEFAULT_WINDOW_SIZE,
    horizon_mult: float = DEFAULT_HORIZON_MULT,
) -> list[SurpriseRecord]:
    """``score_columns`` as one SurpriseRecord row view per scored fill.

    No command calls it: the row form is a view for callers outside ``src/``.
    """
    cols = score_columns(tape, window_size, horizon_mult)
    return [
        SurpriseRecord(
            fill,
            delta_fwd if has_fwd else None,
            delta_bwd,
            p_fwd if has_fwd else None,
            p_bwd,
            n,
            mean,
            SIDE_OF_SIGN[side],
        )
        for fill, has_fwd, delta_fwd, p_fwd, delta_bwd, p_bwd, n, mean, side in zip(
            tape.rows(cols.row),
            cols.fwd.tolist(),
            cols.delta_fwd.tolist(),
            cols.p_fwd.tolist(),
            cols.delta_bwd.tolist(),
            cols.p_bwd.tolist(),
            cols.n.tolist(),
            cols.mean.tolist(),
            cols.next_side.tolist(),
        )
    ]


def serialize_scores(tape: Tape, cols: ScoreColumns) -> Iterator[str]:
    """Yield one wire line per scored fill, in ``cols`` order.

    Each line is ``json.dumps`` of that fill's "surprise" object (its row's
    ts, symbol, venue, side and size, then n, mean and next_lit_side, then
    delta_fwd and p_fwd unless censored, then delta_bwd and p_bwd), formatted
    from the columns with every string JSON-encoded once.
    """
    row = cols.row
    symbol = json.dumps(tape.symbol)
    venues = [json.dumps(v) for v in tape.venues] + ["null"]
    fwd_texts = (
        f', "delta_fwd": {d}, "p_fwd": {p}' if has_fwd else ""
        for has_fwd, d, p in zip(
            cols.fwd.tolist(), json_floats(cols.delta_fwd), json_floats(cols.p_fwd)
        )
    )
    for ts, venue, side, size, n, mean, next_side, fwd, delta_bwd, p_bwd in zip(
        tape.ts[row].tolist(),
        tape.venue[row].tolist(),
        tape.side[row].tolist(),
        json_floats(tape.size[row]),
        cols.n.tolist(),
        json_floats(cols.mean),
        cols.next_side.tolist(),
        fwd_texts,
        json_floats(cols.delta_bwd),
        json_floats(cols.p_bwd),
    ):
        yield (
            f'{{"kind": "surprise", "ts": {ts}, "symbol": {symbol}, '
            f'"venue": {venues[venue]}, "side": {SIDE_JSON[side]}, "size": {size}, '
            f'"n": {n}, "mean": {mean}, "next_lit_side": {SIDE_JSON[next_side]}'
            f'{fwd}, "delta_bwd": {delta_bwd}, "p_bwd": {p_bwd}}}'
        )
