"""Synthetic market generator with known ground truth.

Builds tapes where every statistical claim can be checked against
construction: lit prints as a (piecewise-constant) Poisson stream, dark
fills timed independently per venue, and configurable pathologies layered
on top:

* leakage       - a dark fill triggers an injected lit print after a short
                  latency (two orders of magnitude faster than background by
                  default), optionally size-dependent past a notional knee;
* dark-lit sweep - an injected print at a fixed ~1 ms after the fill;
* latent prices - the fill itself is re-timed to ~1 ms after the nearest
                  preceding lit print;
* price impact  - a log-mid random walk stepping per lit print, with an
                  impact step in an injected print's direction and an
                  optional continuous drift (the competing-trader case).

All randomness flows from one 64-bit seed through counter-based Philox
streams spawned per component and per venue, so venue streams stay
independent and every tape is bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Iterable

import numpy as np

from .slippage import PricePath
from .tape import Tape, merge_streams

__all__ = [
    "VenueProfile",
    "PriceModel",
    "Scenario",
    "gen_lit_tape",
    "gen_dark_fills",
    "inject_leakage",
    "gen_price_path",
    "reprice",
    "simulate_scenario",
    "preset",
    "fleet",
    "parse_scenario",
    "format_scenario",
    "PRESET_NAMES",
    "MAX_EVENTS",
]

_NS = 1_000_000_000
SWEEP_LATENCY_NS = 1_000_000  # fixed ~1 ms sweep print latency
LATENT_OFFSET_NS = 1_000_000  # latent fills land ~1 ms after a lit print
# Most events (lit prints plus dark fills) a Scenario may expect. The
# generator allocates memory in proportion to this count.
MAX_EVENTS = 10**8


@dataclass(frozen=True)
class VenueProfile:
    """Pathology knobs for one dark venue.

    ``leak_prob`` applies to fills at or below ``size_leak_knee`` (when set),
    ``leak_prob_large`` above it. The injected print's latency is exponential
    with mean ``leak_latency_mean``, truncated at a tenth of the local mean
    lit duration; ``leak_latency_kind="fixed"`` makes it exactly the mean
    instead. ``active`` restricts the venue's fills to a time window in
    seconds (None = whole tape).
    """

    venue: str
    leak_prob: float = 0.0
    leak_latency_mean: float = 0.01
    leak_latency_kind: str = "exp"
    size_log_mu: float = 8.82
    size_log_sigma: float = 1.0
    size_leak_knee: float | None = None
    leak_prob_large: float = 0.0
    sweep_prob: float = 0.0
    latent_prob: float = 0.0
    active: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if not self.venue:  # a dark fill without a venue name fails parse_tape
            raise ValueError("venue name must not be empty")
        for name in ("leak_prob", "leak_prob_large", "sweep_prob", "latent_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.leak_latency_mean <= 0:
            raise ValueError("leak_latency_mean must be > 0")
        if self.leak_latency_kind not in ("exp", "fixed"):
            raise ValueError(f"leak_latency_kind must be 'exp' or 'fixed', got {self.leak_latency_kind!r}")

    def leak_prob_for(self, size: float) -> float:
        if self.size_leak_knee is not None and size > self.size_leak_knee:
            return self.leak_prob_large
        return self.leak_prob


@dataclass(frozen=True)
class PriceModel:
    """Log-mid random walk parameters (basis points)."""

    sigma_per_trade: float = 3.0
    leak_impact: float = 0.0
    competing_drift: float = 0.0  # bp per second
    start_mid: float = 100.0

    def __post_init__(self) -> None:
        if self.sigma_per_trade < 0:
            raise ValueError("sigma_per_trade must be >= 0")
        if self.start_mid <= 0:
            raise ValueError("start_mid must be > 0")


@dataclass(frozen=True)
class Scenario:
    """Full generator configuration.

    ``lit_schedule`` is a piecewise-constant mean-duration schedule:
    (start_second, seconds_per_trade) segments, first starting at 0.
    ``dark_fill_rate`` is mean fills per second per venue. When
    ``fills_per_order`` is set, each venue's fill stream is chunked into
    consecutive parent orders of that many fills sharing one i.i.d. side;
    otherwise sides are i.i.d. per fill.

    The expected event count, ``duration`` over the shortest schedule mean
    plus ``dark_fill_rate * duration`` per venue, may not exceed
    ``MAX_EVENTS``.
    """

    symbol: str = "SYM"
    seed: int = 0
    duration: float = 1_000.0
    lit_schedule: tuple[tuple[float, float], ...] = ((0.0, 1.0),)
    dark_fill_rate: float = 0.05
    venues: tuple[VenueProfile, ...] = (VenueProfile("DARK1"),)
    price: PriceModel = field(default_factory=PriceModel)
    fills_per_order: int | None = None
    lit_size_log_mu: float = 9.0
    lit_size_log_sigma: float = 1.0
    name: str = "custom"
    _event_cap = MAX_EVENTS  # not a field: unannotated

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0 <= self.duration < math.inf:
            raise ValueError(f"duration must be finite and >= 0, got {self.duration}")
        if not 0 <= self.dark_fill_rate < math.inf:
            raise ValueError(f"dark_fill_rate must be finite and >= 0, got {self.dark_fill_rate}")
        if not self.lit_schedule or self.lit_schedule[0][0] != 0.0:
            raise ValueError("lit_schedule must start at t = 0")
        starts = [s for s, _ in self.lit_schedule]
        if sorted(starts) != starts or len(set(starts)) != len(starts):
            raise ValueError("lit_schedule starts must be strictly increasing")
        if any(m <= 0 for _, m in self.lit_schedule):
            raise ValueError("lit_schedule mean durations must be > 0")
        if self.fills_per_order is not None and self.fills_per_order < 1:
            raise ValueError("fills_per_order must be >= 1")
        lit = self.duration / min(m for _, m in self.lit_schedule)
        events = lit + self.dark_fill_rate * self.duration * len(self.venues)
        if not events <= self._event_cap:
            raise ValueError(
                f"scenario expects {events:.3g} events, more than MAX_EVENTS = {MAX_EVENTS:.0e}"
            )


class _Draft(Scenario):
    """parse_scenario's Scenario before its last line: the event count is not checked."""

    _event_cap = math.inf


def _mean_duration_at(schedule: tuple[tuple[float, float], ...], t_s: float) -> float:
    """Seconds per lit trade of the schedule segment holding t_s."""
    mean = schedule[0][1]
    for start, m in schedule:
        if t_s < start:
            break
        mean = m
    return mean


def _streams(scenario: Scenario) -> dict[str, np.random.SeedSequence]:
    root = np.random.SeedSequence(scenario.seed)
    lit, dark, inject, price = root.spawn(4)
    return {"lit": lit, "dark": dark, "inject": inject, "price": price}


def _rng(seq: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seq))


def _exponential_times(rng: np.random.Generator, mean: float, start: float, end: float) -> np.ndarray:
    """Event times of a homogeneous Poisson stream on [start, end)."""
    span = end - start
    if span <= 0:
        return np.empty(0)
    times: list[np.ndarray] = []
    t = 0.0
    while True:
        block = max(int((span - t) / mean * 1.2) + 16, 16)
        gaps = rng.exponential(mean, size=block)
        cum = t + np.cumsum(gaps)
        times.append(cum[cum < span])
        if cum[-1] >= span:
            break
        t = cum[-1]
    return start + np.concatenate(times)


def gen_lit_tape(scenario: Scenario) -> Tape:
    """Lit prints with exponential inter-arrivals per the schedule.

    Prices are placeholders until reprice() runs; a segment boundary restarts
    the wait, which is exact for a Poisson stream (memorylessness).
    """
    rng = _rng(_streams(scenario)["lit"])
    segments = list(scenario.lit_schedule) + [(scenario.duration, 0.0)]
    all_times: list[np.ndarray] = []
    for (start, mean), (nxt, _) in zip(segments, segments[1:]):
        end = min(nxt, scenario.duration)
        if end <= start:
            continue
        all_times.append(_exponential_times(rng, mean, start, end))
    times = np.concatenate(all_times) if all_times else np.empty(0)
    ts = np.round(times * _NS).astype(np.int64)
    sizes = rng.lognormal(scenario.lit_size_log_mu, scenario.lit_size_log_sigma, size=ts.size)
    sides = rng.integers(0, 2, size=ts.size)
    return Tape(
        symbol=scenario.symbol,
        ts=ts,
        is_lit=np.ones(ts.size, dtype=bool),
        price=np.full(ts.size, scenario.price.start_mid),
        size=sizes,
        side=np.where(sides == 1, 1, -1),
    )


def gen_dark_fills(scenario: Scenario) -> Tape:
    """Poisson-timed fills per venue, lognormal sizes, i.i.d. sides.

    With ``fills_per_order`` set, consecutive chunks share one side and carry
    an order key in ``truth``; fills always carry a per-venue fill key.
    """
    stream = _streams(scenario)["dark"]
    children = stream.spawn(max(len(scenario.venues), 1))
    parts: list[Tape] = []
    for profile, child in zip(scenario.venues, children):
        rng = _rng(child)
        window = profile.active or (0.0, scenario.duration)
        start = max(window[0], 0.0)
        end = min(window[1], scenario.duration)
        if scenario.dark_fill_rate == 0 or end <= start:
            continue
        times = _exponential_times(rng, 1.0 / scenario.dark_fill_rate, start, end)
        ts = np.round(times * _NS).astype(np.int64)
        sizes = rng.lognormal(profile.size_log_mu, profile.size_log_sigma, size=ts.size)
        group = scenario.fills_per_order
        if group:
            n_orders = -(-ts.size // group)
            order_sides = rng.integers(0, 2, size=n_orders)
            sides = order_sides[np.arange(ts.size) // group]
            order_of = lambda j: f"{profile.venue}:o{j // group}"
        else:
            sides = rng.integers(0, 2, size=ts.size)
            order_of = lambda j: f"{profile.venue}:f{j}"
        truth = {
            j: {
                "fill": f"{profile.venue}:f{j}",
                "order": order_of(j),
                "leaked": False,
                "sweep": False,
                "latent": False,
            }
            for j in range(ts.size)
        }
        parts.append(
            Tape(
                symbol=scenario.symbol,
                ts=ts,
                is_lit=np.zeros(ts.size, dtype=bool),
                price=np.full(ts.size, scenario.price.start_mid),
                size=sizes,
                side=np.where(sides == 1, 1, -1),
                venue=np.zeros(ts.size, dtype=np.int32),
                venues=(profile.venue,),
                truth=truth,
            )
        )
    return merge_streams(Tape(scenario.symbol), *parts)


def inject_leakage(
    lit: Tape, dark: Tape, scenario: Scenario, seed: int | np.random.SeedSequence = 0
) -> Tape:
    """Apply the scenario's venue pathologies and return the merged, sorted tape.

    Per dark fill on a profiled venue: with the (size-dependent) leak
    probability, inject a lit print at fill time plus a truncated-exponential
    latency; with ``sweep_prob``, inject one at a fixed ~1 ms; with
    ``latent_prob``, re-time the fill itself to ~1 ms after the nearest
    preceding lit print. The leak latency's cap follows the scenario's
    ``lit_schedule``; injected print sizes are lognormal with its lit size
    parameters. Injected prints carry the causing fill's key in ``truth``;
    with all probabilities zero this is a plain merge. Draws are made fill by
    fill in tape order, so every tape is reproducible.
    """
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    schedule = scenario.lit_schedule
    size_mu, size_sigma = scenario.lit_size_log_mu, scenario.lit_size_log_sigma
    by_venue = {p.venue: p for p in scenario.venues}
    children = dict(zip(by_venue, seq.spawn(max(len(by_venue), 1))))
    rngs = {venue: _rng(child) for venue, child in children.items()}
    lit_ts = lit.ts

    fill_ts = dark.ts.copy()
    fill_truth = dict(dark.truth)
    injected_ts: list[int] = []
    injected_price: list[float] = []
    injected_size: list[float] = []
    injected_side: list[int] = []
    injected_truth: dict[int, dict[str, Any]] = {}
    names = dark.venues + ("",)  # code -1 (no venue) looks up ""
    for row, (ts, venue, size, price, side) in enumerate(
        zip(
            dark.ts.tolist(),
            dark.venue.tolist(),
            dark.size.tolist(),
            dark.price.tolist(),
            dark.side.tolist(),
        )
    ):
        profile = by_venue.get(names[venue])
        if profile is None:
            continue
        rng = rngs[profile.venue]
        old_truth = dark.truth.get(row)
        truth = dict(old_truth or {})
        original_ts = ts

        if profile.latent_prob and rng.random() < profile.latent_prob:
            i = int(np.searchsorted(lit_ts, ts, side="left")) - 1
            if i >= 0:
                ts = int(lit_ts[i]) + LATENT_OFFSET_NS
                truth["latent"] = True

        if rng.random() < profile.leak_prob_for(size):
            mean = profile.leak_latency_mean
            if profile.leak_latency_kind == "fixed":
                latency = mean
            else:
                # truncated exponential on (0, local mean duration / 10]
                cap = _mean_duration_at(schedule, ts / _NS) / 10.0
                u = rng.random()
                latency = -mean * math.log1p(-u * -math.expm1(-cap / mean))
            latency_ns = max(int(round(latency * _NS)), 1)
            truth["leaked"] = True
            injected_truth[len(injected_ts)] = {"injected_by": truth.get("fill", ""), "cause": "leak"}
            injected_ts.append(ts + latency_ns)
            injected_price.append(price)
            injected_size.append(float(rng.lognormal(size_mu, size_sigma)))
            injected_side.append(side)

        if profile.sweep_prob and rng.random() < profile.sweep_prob:
            truth["sweep"] = True
            injected_truth[len(injected_ts)] = {"injected_by": truth.get("fill", ""), "cause": "sweep"}
            injected_ts.append(ts + SWEEP_LATENCY_NS)
            injected_price.append(price)
            injected_size.append(float(rng.lognormal(size_mu, size_sigma)))
            injected_side.append(-side)

        if ts != original_ts or truth != (old_truth or {}):
            fill_ts[row] = ts
            fill_truth[row] = truth

    injected = Tape(
        symbol=dark.symbol,
        ts=np.array(injected_ts, dtype=np.int64),
        is_lit=np.ones(len(injected_ts), dtype=bool),
        price=np.array(injected_price, dtype=np.float64),
        size=np.array(injected_size, dtype=np.float64),
        side=np.array(injected_side, dtype=np.int8),
        truth=injected_truth,
    )
    return merge_streams(lit, injected, replace(dark, ts=fill_ts, truth=fill_truth))


def gen_price_path(
    merged: Tape,
    model: PriceModel,
    seed: int | np.random.SeedSequence = 0,
    *,
    end_ts: int | None = None,
) -> PricePath:
    """Log-mid random walk sampled at every lit print.

    Each print steps by sigma_per_trade plus drift accrued since the previous
    sample; an injected print adds the impact step in its own direction. The
    path opens at 0 and closes with a drift-only sample at ``end_ts``
    (defaults to the last event).
    """
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rng = _rng(seq)
    lit_rows = np.flatnonzero(merged.is_lit)
    n = lit_rows.size
    ts = merged.ts[lit_rows]
    z = rng.normal(size=n)
    prev = np.concatenate(([0], ts[:-1])) if n else np.empty(0, dtype=np.int64)
    dt_s = (ts - prev) / _NS
    steps = model.sigma_per_trade * 1e-4 * z + model.competing_drift * 1e-4 * dt_s
    if model.leak_impact:
        injected = np.zeros(merged.ts.size, dtype=bool)
        injected[[row for row, t in merged.truth.items() if "injected_by" in t]] = True
        sign = merged.side[lit_rows].astype(np.float64)
        impact = np.where(injected[lit_rows], model.leak_impact * 1e-4 * sign, 0.0)
        steps = steps + impact
    log_mid = math.log(model.start_mid) + np.cumsum(steps)

    # One sample per distinct timestamp: the last print at a timestamp wins.
    out_ts = np.concatenate(([0], ts)).astype(np.int64)
    out_val = np.concatenate(([math.log(model.start_mid)], log_mid))
    keep = np.append(out_ts[1:] != out_ts[:-1], True)
    out_ts, out_val = out_ts[keep], out_val[keep]
    last = end_ts if end_ts is not None else (int(ts[-1]) if n else 0)
    if last > out_ts[-1]:
        drift_tail = model.competing_drift * 1e-4 * (last - int(out_ts[-1])) / _NS
        out_ts = np.append(out_ts, last)
        out_val = np.append(out_val, float(out_val[-1]) + drift_tail)
    return PricePath(out_ts, out_val)


def reprice(tape: Tape, path: PricePath) -> Tape:
    """Set every event's price and mid from the path (LOCF at event time)."""
    mids = np.exp(path.log_mid_at(tape.ts))
    return replace(tape, price=mids, mid=mids)


def simulate_scenario(scenario: Scenario) -> tuple[Tape, PricePath]:
    """Generate the full merged, repriced tape and its price path."""
    streams = _streams(scenario)
    lit = gen_lit_tape(scenario)
    dark = gen_dark_fills(scenario)
    merged = inject_leakage(lit, dark, scenario, streams["inject"])
    end_ts = int(round(scenario.duration * _NS))
    path = gen_price_path(merged, scenario.price, streams["price"], end_ts=end_ts)
    meta = {
        "scenario": scenario.name,
        "seed": scenario.seed,
        "symbol": scenario.symbol,
        "config": format_scenario(scenario).splitlines(),
    }
    return replace(reprice(merged, path), meta=meta), path


PRESET_NAMES = ("null", "leaky", "sweep", "latent", "competing", "size_knee")


def preset(name: str, seed: int = 0, **overrides: Any) -> Scenario:
    """Canonical scenarios with documented parameters.

    null       clean tape: no leakage, no sweeps, no latency, no drift.
    leaky      leak_prob 0.5 with ~10 ms latency against a 1 s lit stream
               (mean lit duration / 100) and 1.5 bp impact per leaked print;
               clip sizes cluster small (log sigma 0.6) so a raised fill
               floor acts as an effective stop.
    sweep      sweep_prob 0.4, prints at a fixed 1 ms.
    latent     latent_prob 0.4, fills re-timed to 1 ms after a lit print.
    competing  no leakage, 0.05 bp/s drift: slippage without causation.
    size_knee  leak_prob 0.5 up to a £30,000 notional knee, 0.16 above it;
               lognormal sizes (median ≈ £6,800) put ~7% of fills past the
               knee, so the unrestricted signalling share sits near 50% and
               the above-knee share near 20%.

    Scenario-level fields (duration, dark_fill_rate, venues, ...) can be
    overridden by keyword.
    """
    base_price = PriceModel(sigma_per_trade=3.0)
    if name == "null":
        scenario = Scenario(
            seed=seed,
            duration=12_000.0,
            dark_fill_rate=1.0,
            venues=(VenueProfile("DARK1"),),
            price=base_price,
            name=name,
        )
    elif name == "leaky":
        scenario = Scenario(
            seed=seed,
            duration=4_000.0,
            dark_fill_rate=0.05,
            venues=(
                VenueProfile(
                    "DARK1", leak_prob=0.5, leak_latency_mean=0.01, size_log_sigma=0.6
                ),
            ),
            price=replace(base_price, leak_impact=1.5),
            fills_per_order=15,
            name=name,
        )
    elif name == "sweep":
        scenario = Scenario(
            seed=seed,
            duration=4_000.0,
            dark_fill_rate=0.05,
            venues=(VenueProfile("DARK1", sweep_prob=0.4),),
            price=replace(base_price, leak_impact=1.5),
            fills_per_order=15,
            name=name,
        )
    elif name == "latent":
        scenario = Scenario(
            seed=seed,
            duration=4_000.0,
            dark_fill_rate=0.05,
            venues=(VenueProfile("DARK1", latent_prob=0.4),),
            price=base_price,
            name=name,
        )
    elif name == "competing":
        scenario = Scenario(
            seed=seed,
            duration=4_000.0,
            dark_fill_rate=0.05,
            venues=(VenueProfile("DARK1", size_log_sigma=0.6),),
            price=replace(base_price, competing_drift=0.05),
            fills_per_order=15,
            name=name,
        )
    elif name == "size_knee":
        scenario = Scenario(
            seed=seed,
            duration=20_000.0,
            dark_fill_rate=0.1,
            venues=(
                VenueProfile(
                    "DARK1",
                    leak_prob=0.5,
                    leak_latency_mean=0.01,
                    size_log_mu=8.82,
                    size_log_sigma=1.0,
                    size_leak_knee=30_000.0,
                    leak_prob_large=0.16,
                ),
            ),
            price=replace(base_price, leak_impact=1.5),
            name=name,
        )
    else:
        raise ValueError(f"unknown preset '{name}' (known: {', '.join(PRESET_NAMES)})")
    if overrides:
        scenario = replace(scenario, **overrides)
    return scenario


def fleet(
    base: Scenario,
    n_venues: int,
    venue_span_s: float,
    stagger_s: float,
    tail_s: float = 60.0,
) -> Scenario:
    """Replicate the first venue into n staggered venues.

    Venue i is active on [i * stagger, i * stagger + span); the duration
    extends to cover the last window plus a tail. Staggering keeps injected
    prints a small fraction of background lit activity however many venues
    trade, and gives the backtest one order episode per venue window.
    """
    if not base.venues:
        raise ValueError("base scenario has no venue profile to replicate")
    profile = base.venues[0]
    venues = tuple(
        replace(
            profile,
            venue=f"{profile.venue}{i:03d}",
            active=(i * stagger_s, i * stagger_s + venue_span_s),
        )
        for i in range(n_venues)
    )
    duration = (n_venues - 1) * stagger_s + venue_span_s + tail_s
    return replace(base, venues=venues, duration=duration)


# ---------------------------------------------------------------------------
# Flat key/value scenario files


def format_scenario(scenario: Scenario) -> str:
    """Scenario as flat key=value lines (inverse of parse_scenario)."""
    lines = [
        f"name={scenario.name}",
        f"symbol={scenario.symbol}",
        f"seed={scenario.seed}",
        f"duration={scenario.duration!r}",
        "lit_schedule=" + ",".join(f"{s!r}:{m!r}" for s, m in scenario.lit_schedule),
        f"dark_fill_rate={scenario.dark_fill_rate!r}",
        f"lit_size_log_mu={scenario.lit_size_log_mu!r}",
        f"lit_size_log_sigma={scenario.lit_size_log_sigma!r}",
        f"price.sigma_per_trade={scenario.price.sigma_per_trade!r}",
        f"price.leak_impact={scenario.price.leak_impact!r}",
        f"price.competing_drift={scenario.price.competing_drift!r}",
        f"price.start_mid={scenario.price.start_mid!r}",
    ]
    if scenario.fills_per_order is not None:
        lines.append(f"fills_per_order={scenario.fills_per_order}")
    for v in scenario.venues:
        prefix = f"venue.{v.venue}."
        lines.append(f"{prefix}leak_prob={v.leak_prob!r}")
        lines.append(f"{prefix}leak_latency_mean={v.leak_latency_mean!r}")
        lines.append(f"{prefix}leak_latency_kind={v.leak_latency_kind}")
        lines.append(f"{prefix}size_log_mu={v.size_log_mu!r}")
        lines.append(f"{prefix}size_log_sigma={v.size_log_sigma!r}")
        if v.size_leak_knee is not None:
            lines.append(f"{prefix}size_leak_knee={v.size_leak_knee!r}")
            lines.append(f"{prefix}leak_prob_large={v.leak_prob_large!r}")
        lines.append(f"{prefix}sweep_prob={v.sweep_prob!r}")
        lines.append(f"{prefix}latent_prob={v.latent_prob!r}")
        if v.active is not None:
            lines.append(f"{prefix}active={v.active[0]!r}:{v.active[1]!r}")
    return "\n".join(lines) + "\n"


def _float(value: str) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"must be finite, got {value!r}")
    return x


def _pairs(value: str) -> tuple[tuple[float, float], ...]:
    """``a:b,c:d,...`` as float pairs."""
    pairs = []
    for part in value.split(","):
        a, colon, b = part.partition(":")
        if not colon:
            raise ValueError(f"expected colon-separated pairs, got {part!r}")
        pairs.append((_float(a), _float(b)))
    return tuple(pairs)


def _pair(value: str) -> tuple[float, float]:
    pairs = _pairs(value)
    if len(pairs) != 1:
        raise ValueError(f"expected one start:end pair, got {value!r}")
    return pairs[0]


# Scenario file keys and the parser of each value: scalar keys set Scenario
# fields, ``price.<key>`` PriceModel fields, ``venue.<name>.<key>`` VenueProfile fields.
_SCENARIO_KEYS = {
    "name": str, "symbol": str, "seed": int, "fills_per_order": int, "lit_schedule": _pairs,
    **dict.fromkeys(("duration", "dark_fill_rate", "lit_size_log_mu", "lit_size_log_sigma"), _float),
}
# Scalar keys that enter the expected event count.
_COUNT_KEYS = ("duration", "lit_schedule", "dark_fill_rate")
_PRICE_KEYS = dict.fromkeys(("sigma_per_trade", "leak_impact", "competing_drift", "start_mid"), _float)
_VENUE_KEYS = {
    "leak_latency_kind": str, "active": _pair,
    **dict.fromkeys(("leak_prob", "leak_latency_mean", "size_log_mu", "size_log_sigma"), _float),
    **dict.fromkeys(("size_leak_knee", "leak_prob_large", "sweep_prob", "latent_prob"), _float),
}


def parse_scenario(text: str | Iterable[str]) -> Scenario:
    """Parse the flat key=value scenario format.

    Each line is applied to the scenario as it is read, so an unknown key, a
    malformed value and a value the dataclass rejects all raise ValueError
    naming the (1-based) line. The expected event count is checked once the
    whole file is applied, since a later line may lower it; a count above
    ``MAX_EVENTS`` names the last line that entered it (``duration``,
    ``lit_schedule``, ``dark_fill_rate`` or a new venue). Keys left out keep
    their defaults; with no venue lines the scenario has one default venue,
    ``DARK1``.
    """
    if isinstance(text, str):
        text = text.splitlines()
    scenario = _Draft()
    price = PriceModel()
    venues: dict[str, VenueProfile] = {}
    count_line = ""  # the last line that entered the expected event count
    for raw_no, raw in enumerate(text, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"scenario line {raw_no}: expected key=value, got {line!r}")
        key, value = (x.strip() for x in line.split("=", 1))
        if key.startswith("price."):
            table, attr = _PRICE_KEYS, key[len("price.") :]
        elif key.startswith("venue."):
            venue, dot, attr = key[len("venue.") :].partition(".")
            if not dot:
                raise ValueError(f"scenario line {raw_no}: bad venue key {key!r}")
            table = _VENUE_KEYS
        else:
            table, attr = _SCENARIO_KEYS, key
        if attr not in table:
            raise ValueError(f"scenario line {raw_no}: unknown key {key!r}")
        where = f"scenario line {raw_no}: {key}={value}"
        try:
            change = {attr: table[attr](value)}
            if table is _PRICE_KEYS:
                price = replace(price, **change)
            elif table is _VENUE_KEYS:
                if venue not in venues:
                    count_line = where
                venues[venue] = replace(venues.get(venue) or VenueProfile(venue), **change)
            else:
                scenario = replace(scenario, **change)
                if attr in _COUNT_KEYS:
                    count_line = where
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    if venues:
        scenario = replace(scenario, venues=tuple(venues.values()))
    try:
        return Scenario(**{**vars(scenario), "price": price})
    except ValueError as exc:  # only the event count is left to fail
        raise ValueError(f"{count_line}: {exc}") from None
