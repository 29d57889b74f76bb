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

``simulate_scenario`` is the one entry point: it builds a Scenario's tape and
price path. All randomness flows from one 64-bit seed through counter-based
Philox streams spawned per component and per venue, so venue streams stay
independent and every tape is bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Iterable

import numpy as np

from .options import PRESETS
from .slippage import PricePath
from .tape import Tape

__all__ = [
    "VenueProfile",
    "PriceModel",
    "Scenario",
    "simulate_scenario",
    "preset",
    "fleet",
    "parse_scenario",
    "format_scenario",
    "MAX_EVENTS",
    "MAX_DURATION_S",
    "MAX_LEAK_LATENCY_S",
    "SIZE_LOG_MU_MAX",
    "SIZE_LOG_SIGMA_MAX",
]

_NS = 1_000_000_000
SWEEP_LATENCY_NS = 1_000_000  # fixed ~1 ms sweep print latency
LATENT_OFFSET_NS = 1_000_000  # latent fills land ~1 ms after a lit print
# Most events (lit prints plus dark fills) a Scenario may expect. The
# generator allocates memory in proportion to this count.
MAX_EVENTS = 10**8
# Bounds on a scenario's duration and a venue's mean leak latency, in seconds,
# so that every timestamp the generator makes fits in int64 nanoseconds (about
# 9.2e9 s): fills and the path's end come before the duration, latent fills
# 1 ms after a lit print, sweeps 1 ms after their fill, and a leak print at most
# about 37 x the mean latency after its fill (-log of the smallest 1 - u a double
# uniform gives), so no timestamp passes 1e9 + 37 * 1e8 + 0.002 s.
MAX_DURATION_S = 1e9
MAX_LEAK_LATENCY_S = 1e8
# Bounds on a lognormal size law's log mean and log std, so that no size
# exp(mu + sigma * z) is inf or 0, which parse_tape rejects: a standard normal
# drawn from double uniforms stays below 40 in magnitude, and 100 + 10 * 40
# is far inside the exponents a float holds (about -745 to 709).
SIZE_LOG_MU_MAX = 100.0
SIZE_LOG_SIGMA_MAX = 10.0


def _one_line(text: str) -> bool:
    """Whether ``text`` holds no line break (no character str.splitlines splits on)."""
    return text.splitlines() in ([], [text])


def _check_size_law(prefix: str, mu: float, sigma: float) -> None:
    if not abs(mu) <= SIZE_LOG_MU_MAX:
        raise ValueError(f"{prefix}size_log_mu must be in [-{SIZE_LOG_MU_MAX:g}, {SIZE_LOG_MU_MAX:g}], got {mu}")
    if not 0 <= sigma <= SIZE_LOG_SIGMA_MAX:
        raise ValueError(f"{prefix}size_log_sigma must be in [0, {SIZE_LOG_SIGMA_MAX:g}], got {sigma}")


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
        if "." in self.venue or "=" in self.venue or not _one_line(self.venue):  # unreadable as a scenario key
            raise ValueError(f"venue name must hold no '.', '=' or line break, got {self.venue!r}")
        for name in ("leak_prob", "leak_prob_large", "sweep_prob", "latent_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.leak_latency_mean <= 0:
            raise ValueError("leak_latency_mean must be > 0")
        if not self.leak_latency_mean <= MAX_LEAK_LATENCY_S:
            raise ValueError(f"leak_latency_mean must be <= MAX_LEAK_LATENCY_S = {MAX_LEAK_LATENCY_S:g}, "
                             f"got {self.leak_latency_mean}")
        if self.leak_latency_kind not in ("exp", "fixed"):
            raise ValueError(f"leak_latency_kind must be 'exp' or 'fixed', got {self.leak_latency_kind!r}")
        _check_size_law("", self.size_log_mu, self.size_log_sigma)
        if self.size_leak_knee is not None and not math.isfinite(self.size_leak_knee):
            raise ValueError(f"size_leak_knee must be finite, got {self.size_leak_knee}")
        if self.active is not None and not all(map(math.isfinite, self.active)):
            raise ValueError(f"active must be finite, got {self.active}")

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
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
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
    otherwise sides are i.i.d. per fill. ``venues`` holds at least one
    profile and no two of one name, since a venue's fill keys are its name's.

    The expected event count, ``duration`` over the shortest schedule mean
    plus ``dark_fill_rate * duration`` per venue, may not exceed
    ``MAX_EVENTS``, nor the duration ``MAX_DURATION_S``. Every lognormal size
    law, lit and per venue, has its log mean within ``SIZE_LOG_MU_MAX`` of 0
    and its log std in [0, ``SIZE_LOG_SIGMA_MAX``].
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
    _event_cap, _duration_cap = MAX_EVENTS, MAX_DURATION_S  # not fields: unannotated

    def __post_init__(self) -> None:
        for key in ("name", "symbol"):  # a scenario file's value is one line, stripped
            value = getattr(self, key)
            if value != value.strip() or not _one_line(value):
                raise ValueError(f"{key} must be one line without surrounding whitespace, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0 <= self.duration < math.inf:
            raise ValueError(f"duration must be finite and >= 0, got {self.duration}")
        if not 0 <= self.dark_fill_rate < math.inf:
            raise ValueError(f"dark_fill_rate must be finite and >= 0, got {self.dark_fill_rate}")
        if not self.lit_schedule or self.lit_schedule[0][0] != 0.0:
            raise ValueError("lit_schedule must start at t = 0")
        if not all(math.isfinite(x) for segment in self.lit_schedule for x in segment):
            raise ValueError(f"lit_schedule must be finite, got {self.lit_schedule}")
        starts = [s for s, _ in self.lit_schedule]
        if sorted(starts) != starts or len(set(starts)) != len(starts):
            raise ValueError("lit_schedule starts must be strictly increasing")
        if any(m <= 0 for _, m in self.lit_schedule):
            raise ValueError("lit_schedule mean durations must be > 0")
        if self.fills_per_order is not None and self.fills_per_order < 1:
            raise ValueError("fills_per_order must be >= 1")
        names = [v.venue for v in self.venues]
        if not names:
            raise ValueError("venues must hold at least one venue")
        if len(set(names)) < len(names):
            twice = next(name for i, name in enumerate(names) if name in names[:i])
            raise ValueError(f"venues must have distinct names, got {twice!r} twice")
        _check_size_law("lit_", self.lit_size_log_mu, self.lit_size_log_sigma)
        lit = self.duration / min(m for _, m in self.lit_schedule)
        events = lit + self.dark_fill_rate * self.duration * len(self.venues)
        if not events <= self._event_cap:
            raise ValueError(
                f"scenario expects {events:.3g} events, more than MAX_EVENTS = {MAX_EVENTS:.0e}"
            )
        if not self.duration <= self._duration_cap:
            raise ValueError(f"duration must be <= MAX_DURATION_S = {MAX_DURATION_S:g}, got {self.duration}")


class _Draft(Scenario):
    """parse_scenario's Scenario before its last line: the event count and the
    duration cap are not checked."""

    _event_cap = _duration_cap = math.inf


def _mean_duration_at(schedule: tuple[tuple[float, float], ...], t_s: float) -> float:
    """Seconds per lit trade of the schedule segment holding t_s."""
    mean = schedule[0][1]
    for start, m in schedule:
        if t_s < start:
            break
        mean = m
    return mean


def _rng(seq: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seq))


def _poisson_ts(rng: np.random.Generator, mean: float, start: float, end: float) -> np.ndarray:
    """Nanosecond event times of a homogeneous Poisson stream on [start, end) seconds."""
    span = end - start
    if span <= 0:
        return np.empty(0, np.int64)
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
    return np.round((start + np.concatenate(times)) * _NS).astype(np.int64)


def _lit_prints(scenario: Scenario, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lit print times, sizes and sides."""
    segments = list(scenario.lit_schedule) + [(scenario.duration, 0.0)]
    ts = np.concatenate([_poisson_ts(rng, mean, start, min(nxt, scenario.duration))
                         for (start, mean), (nxt, _) in zip(segments, segments[1:])])
    size = rng.lognormal(scenario.lit_size_log_mu, scenario.lit_size_log_sigma, size=ts.size)
    return ts, size, 2 * rng.integers(0, 2, size=ts.size) - 1


def _fills(scenario: Scenario, seqs: list[np.random.SeedSequence]) -> tuple:
    """Fill times, sizes, sides, venue indexes and truth dicts, time-sorted
    across venues and stable in scenario venue order."""
    group = scenario.fills_per_order or 1
    key = "o" if scenario.fills_per_order else "f"  # an order key per parent order, or per fill
    parts, truth = [], []
    for code, (profile, seq) in enumerate(zip(scenario.venues, seqs)):
        rng = _rng(seq)
        rate, (start, end) = scenario.dark_fill_rate, profile.active or (0.0, scenario.duration)
        ts = (_poisson_ts(rng, 1.0 / rate, max(start, 0.0), min(end, scenario.duration)) if rate
              else np.empty(0, np.int64))
        size = rng.lognormal(profile.size_log_mu, profile.size_log_sigma, size=ts.size)
        side = 2 * rng.integers(0, 2, size=-(-ts.size // group))[np.arange(ts.size) // group] - 1
        parts.append((ts, size, side, np.full(ts.size, code)))
        v = profile.venue
        truth += [{"fill": f"{v}:f{j}", "order": f"{v}:{key}{j // group}", "leaked": False, "sweep": False,
                   "latent": False} for j in range(ts.size)]
    ts, size, side, venue = (np.concatenate(column) for column in zip(*parts))
    order = np.argsort(ts, kind="stable")
    return ts[order], size[order], side[order], venue[order], [truth[k] for k in order.tolist()]


def _inject(scenario: Scenario, lit_ts: np.ndarray, fills: tuple, seqs: list[np.random.SeedSequence]) -> tuple:
    """The injected prints' times, sizes, sides and truth dicts; latent fills
    are re-timed and every fill's truth flags set in place."""
    fill_ts, fill_size, fill_side, fill_venue, fill_truth = fills
    rngs = [_rng(seq) for seq in seqs]
    mu, sigma = scenario.lit_size_log_mu, scenario.lit_size_log_sigma
    prints = []
    for row, (ts, size, side, venue, flags) in enumerate(
        zip(fill_ts.tolist(), fill_size.tolist(), fill_side.tolist(), fill_venue.tolist(), fill_truth)
    ):
        profile, rng = scenario.venues[venue], rngs[venue]
        if profile.latent_prob and rng.random() < profile.latent_prob:
            i = int(np.searchsorted(lit_ts, ts)) - 1
            if i >= 0:
                ts = fill_ts[row] = int(lit_ts[i]) + LATENT_OFFSET_NS
                flags["latent"] = True
        if rng.random() < profile.leak_prob_for(size):
            mean = profile.leak_latency_mean
            if profile.leak_latency_kind == "fixed":
                latency = mean
            else:  # truncated exponential on (0, local mean duration / 10]
                cap = _mean_duration_at(scenario.lit_schedule, ts / _NS) / 10.0
                latency = -mean * math.log1p(-rng.random() * -math.expm1(-cap / mean))
            flags["leaked"] = True
            prints.append((ts + max(int(round(latency * _NS)), 1), rng.lognormal(mu, sigma), side,
                           {"injected_by": flags["fill"], "cause": "leak"}))
        if profile.sweep_prob and rng.random() < profile.sweep_prob:
            flags["sweep"] = True
            prints.append((ts + SWEEP_LATENCY_NS, rng.lognormal(mu, sigma), -side,
                           {"injected_by": flags["fill"], "cause": "sweep"}))
    ts, size, side, truth = zip(*prints) if prints else [()] * 4
    return np.array(ts, np.int64), np.array(size), np.array(side, int), list(truth)


@np.errstate(over="ignore", invalid="ignore")  # a path out of range is refused by name at the end
def _price_path(scenario: Scenario, rng: np.random.Generator, ts: np.ndarray, side: np.ndarray,
                injected: np.ndarray) -> PricePath:
    """The log-mid random walk over the lit prints at ``ts``, in tape order."""
    model, end_ts = scenario.price, int(round(scenario.duration * _NS))
    z = rng.normal(size=ts.size)
    steps = model.sigma_per_trade * 1e-4 * z + model.competing_drift * 1e-4 * (np.diff(ts, prepend=0) / _NS)
    if model.leak_impact:
        steps = steps + np.where(injected, model.leak_impact * 1e-4 * side.astype(np.float64), 0.0)
    start = math.log(model.start_mid)
    out_ts = np.concatenate(([0], ts))
    out_val = np.concatenate(([start], start + np.cumsum(steps)))
    keep = np.append(out_ts[1:] != out_ts[:-1], True)  # the last print at a timestamp wins
    out_ts, out_val = out_ts[keep], out_val[keep]
    if end_ts > out_ts[-1]:
        drift_tail = model.competing_drift * 1e-4 * (end_ts - int(out_ts[-1])) / _NS
        out_ts, out_val = np.append(out_ts, end_ts), np.append(out_val, float(out_val[-1]) + drift_tail)
    mid = np.exp(out_val)
    if not np.all(np.isfinite(mid) & (mid > 0.0)):
        keys = "price.sigma_per_trade, price.competing_drift, price.leak_impact and price.start_mid"
        raise ValueError(f"price path leaves the float range: check {keys}")
    return PricePath(out_ts, out_val)


def simulate_scenario(scenario: Scenario) -> tuple[Tape, PricePath]:
    """The scenario's tape, with every price and mid taken from its price
    path, and the path.

    All randomness flows from ``scenario.seed``: its SeedSequence spawns one
    stream each for the lit prints, the fills, the injections and the price
    path, and the fill and injection streams spawn one child per venue.

    * Lit prints: exponential inter-arrivals at each ``lit_schedule``
      segment's mean (a segment boundary restarts the wait, which is exact for
      a Poisson stream), then lognormal sizes and i.i.d. sides.
    * Fills: per venue, Poisson times at ``dark_fill_rate`` within its
      ``active`` window, lognormal sizes, and sides i.i.d. per fill or per
      parent order of ``fills_per_order`` fills. A fill's truth holds its
      per-venue fill key, its order key and its leaked, sweep and latent flags.
    * Pathologies: fill by fill, in time order across venues (stable in
      scenario venue order), each from its venue's stream: with
      ``latent_prob`` the fill is re-timed to 1 ms after the nearest
      preceding lit print; with the (size-dependent) leak probability a lit
      print is injected after the leak latency, the venue's mean when
      ``leak_latency_kind`` is fixed and otherwise exponential truncated at a
      tenth of the local mean lit duration; with ``sweep_prob`` one is
      injected 1 ms after the fill on its opposite side. An injected print has
      the lit size law and the truth ``{"injected_by": fill key, "cause":
      "leak" | "sweep"}``; a leak print takes the fill's side. A fill's
      draws come in this order: the latent test (when ``latent_prob`` > 0),
      the leak test, a leak print's latency (when exponential) and size,
      the sweep test (when ``sweep_prob`` > 0) and a sweep print's size.
    * Price path: a log-mid random walk that steps at every lit print by
      ``sigma_per_trade`` plus the drift since the previous print, plus
      ``leak_impact`` in an injected print's direction. It opens at 0 at
      ``start_mid``, keeps the last print at each timestamp and closes with a
      drift-only sample at the duration. A mid out of the float range raises.

    The rows are lit prints, then injected prints, then fills, stably sorted
    by timestamp, lit before dark at equal timestamps.
    """
    lit_seq, dark_seq, inject_seq, price_seq = np.random.SeedSequence(scenario.seed).spawn(4)
    lit = _lit_prints(scenario, _rng(lit_seq))
    fills = _fills(scenario, dark_seq.spawn(len(scenario.venues)))
    injected = _inject(scenario, lit[0], fills, inject_seq.spawn(len(scenario.venues)))
    n_lit, n_injected = lit[0].size, injected[0].size
    ts, size, side = (np.concatenate((lit[i], injected[i], fills[i])) for i in range(3))
    kind = np.repeat([0, 1, 2], [n_lit, n_injected, fills[0].size])  # lit, injected, fill
    order = np.lexsort((kind == 2, ts))
    ts, size, side, kind = ts[order], size[order], side[order], kind[order]
    is_lit = kind < 2
    path = _price_path(scenario, _rng(price_seq), ts[is_lit], side[is_lit], kind[is_lit] == 1)
    mid = np.exp(path.log_mid_at(ts))
    truth = np.full(ts.size, None, object)
    truth[n_lit:] = injected[3] + fills[4]
    meta = {
        "scenario": scenario.name,
        "seed": scenario.seed,
        "symbol": scenario.symbol,
        "config": format_scenario(scenario).splitlines(),
    }
    tape = Tape(scenario.symbol, ts=ts, is_lit=is_lit, price=mid, size=size, side=side,
                venue=np.concatenate((np.full(n_lit + n_injected, -1), fills[3]))[order],
                venues=tuple(v.venue for v in scenario.venues), mid=mid, truth=truth[order], meta=meta)
    return tape, path


def preset(name: str, seed: int = 0, **overrides: Any) -> Scenario:
    """The canonical scenario ``name`` (its text and notes are in
    ``options.PRESETS``) with ``seed``; Scenario fields (duration,
    dark_fill_rate, venues, ...) can be overridden by keyword."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset '{name}' (known: {', '.join(PRESETS)})")
    return replace(parse_scenario(f"name={name}\n" + PRESETS[name]), seed=seed, **overrides)


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


# The scenario file's keys in file order, each with the parser of its value:
# scalar keys set Scenario fields and ``price.<key>`` PriceModel fields; then
# come ``venue.<name>.<key>`` VenueProfile fields, one venue after another.
_SCENARIO_KEYS = {
    "name": str, "symbol": str, "seed": int, "duration": _float, "lit_schedule": _pairs,
    **dict.fromkeys(("dark_fill_rate", "lit_size_log_mu", "lit_size_log_sigma", "price.sigma_per_trade",
                     "price.leak_impact", "price.competing_drift", "price.start_mid"), _float),
    "fills_per_order": int,
}
_VENUE_KEYS = {
    "leak_prob": _float, "leak_latency_mean": _float, "leak_latency_kind": str,
    **dict.fromkeys(("size_log_mu", "size_log_sigma", "size_leak_knee", "leak_prob_large", "sweep_prob",
                     "latent_prob"), _float),
    "active": _pair,
}
# Scalar keys that enter the expected event count.
_COUNT_KEYS = ("duration", "lit_schedule", "dark_fill_rate")
# The text of a value, by its parser: what that parser reads back as the value.
_TEXT = {str: str, int: str, _float: repr, _pairs: lambda pairs: ",".join(f"{a!r}:{b!r}" for a, b in pairs)}
_TEXT[_pair] = lambda pair: _TEXT[_pairs]((pair,))


def format_scenario(scenario: Scenario) -> str:
    """Scenario as flat key=value lines, which parse_scenario reads back.

    The key tables are the file format: the lines follow ``_SCENARIO_KEYS``,
    then ``_VENUE_KEYS`` once per venue. A key whose value is None is left
    out, and ``leak_prob_large`` is written only beside ``size_leak_knee`` or
    when it is not 0.
    """
    fields = {**vars(scenario), **{f"price.{k}": v for k, v in vars(scenario.price).items()}}
    values = [(key, parse, fields[key]) for key, parse in _SCENARIO_KEYS.items()]
    for v in scenario.venues:
        values += [(f"venue.{v.venue}.{key}", parse, getattr(v, key)) for key, parse in _VENUE_KEYS.items()
                   if key != "leak_prob_large" or v.size_leak_knee is not None or v.leak_prob_large]
    return "".join(f"{key}={_TEXT[parse](value)}\n" for key, parse, value in values if value is not None)


def parse_scenario(text: str | Iterable[str]) -> Scenario:
    """Parse the flat key=value scenario format.

    The key tables are the file format (see format_scenario): a line sets a
    ``_SCENARIO_KEYS`` key, or ``venue.<name>.<key>`` with a ``_VENUE_KEYS``
    key; its value is read by that key's parser. Keys left out keep their
    defaults, which are None for the keys format_scenario leaves out when
    None (``fills_per_order``, ``size_leak_knee``, ``active``). With no venue
    lines the scenario has one default venue, ``DARK1``.

    Each line is applied to the scenario as it is read, so an unknown key, a
    malformed value and a value the dataclass rejects all raise ValueError
    naming the (1-based) line. The expected event count is checked once the
    whole file is applied, since a later line may lower it; a count above
    ``MAX_EVENTS`` names the last line that entered it (``duration``,
    ``lit_schedule``, ``dark_fill_rate`` or a new venue); when the count holds,
    a duration above ``MAX_DURATION_S`` names the last duration line.
    """
    if isinstance(text, str):
        text = text.splitlines()
    scenario = _Draft()
    price = PriceModel()
    venues: dict[str, VenueProfile] = {}
    count_line = duration_line = ""  # the last line that entered the event count, the duration
    for raw_no, raw in enumerate(text, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"scenario line {raw_no}: expected key=value, got {line!r}")
        key, value = (x.strip() for x in line.split("=", 1))
        if key.startswith("venue."):
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
            if table is _VENUE_KEYS:
                if venue not in venues:
                    count_line = where
                venues[venue] = replace(venues.get(venue) or VenueProfile(venue), **change)
            elif attr.startswith("price."):
                price = replace(price, **{attr[len("price.") :]: change[attr]})
            else:
                scenario = replace(scenario, **change)
                if attr in _COUNT_KEYS:
                    count_line = where
                if attr == "duration":
                    duration_line = where
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    if venues:
        scenario = replace(scenario, venues=tuple(venues.values()))
    try:
        return Scenario(**{**vars(scenario), "price": price})
    except ValueError as exc:  # only the event count is left to fail, then the duration cap
        raise ValueError(f"{count_line if 'events' in str(exc) else duration_line}: {exc}") from None
