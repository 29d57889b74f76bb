"""Post-fill slippage estimation and reports.

Slippage of a fill is the signed log-mid move over a short horizon,
sign * (log mid(t + tau) - log mid(t)) * 1e4 basis points, positive when the
price moved with the fill (adverse for the filler); ``fill_slippages`` computes
it for a batch of fills at once. ``darkscope.power`` finds how many fills a
mean slippage takes to detect.

Reports, over the scorer's columns: mean slippage per p-value bucket
(signalling fills should sit in the low-p buckets with visibly higher
slippage) and the share of flagged fills above a minimum fill-size threshold.
``slippages``, ``bucket_report`` and ``size_threshold_report`` are row-form
views of the column functions, kept for callers outside ``src/``.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .options import DEFAULT_ALPHA, DEFAULT_BUCKETS, DEFAULT_TAU, check_alpha, check_count
# Re-exported only because bench/layers.py calls them through slippage (ROADMAP item 11).
from .power import empirical_crossing, min_fills_bound
from .tape import BLOCK_ROWS, BP, TapeEvent, read_columns

if TYPE_CHECKING:  # for annotations only: simulate never loads the scorer
    from .surprise import SurpriseRecord

__all__ = [
    "PricePath",
    "SlippageConfig",
    "BucketRow",
    "ThresholdRow",
    "CensoredFillError",
    "fill_slippages",
    "slippages",
    "min_fills_bound",
    "empirical_crossing",
    "bucket_rows",
    "bucket_report",
    "threshold_rows",
    "size_threshold_report",
    "read_path_cache",
]


class CensoredFillError(ValueError):
    """The price path does not cover the fill's horizon."""


@dataclass(frozen=True)
class PricePath:
    """Log mid-price samples at strictly increasing nanosecond timestamps.

    Values between samples are last-observation-carried-forward: the mid does
    not move without an observation.
    """

    ts: np.ndarray
    log_mid: np.ndarray

    def __post_init__(self) -> None:
        ts = np.asarray(self.ts, dtype=np.int64)
        log_mid = np.asarray(self.log_mid, dtype=np.float64)
        if ts.shape != log_mid.shape or ts.ndim != 1:
            raise ValueError("ts and log_mid must be 1-d arrays of equal length")
        if ts.size and np.any(np.diff(ts) <= 0):
            raise ValueError("path timestamps must be strictly increasing")
        if log_mid.size and not np.all(np.isfinite(log_mid)):
            raise ValueError("log_mid must be finite")
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "log_mid", log_mid)

    def __len__(self) -> int:
        return int(self.ts.size)

    @property
    def start_ts(self) -> int:
        return int(self.ts[0])

    @property
    def end_ts(self) -> int:
        return int(self.ts[-1])

    def log_mid_at(self, ts):
        """LOCF value(s) at ts (scalar or array). Raises before first sample."""
        idx = np.searchsorted(self.ts, ts, side="right") - 1
        if np.any(idx < 0):
            raise CensoredFillError("timestamp precedes the first path sample")
        return self.log_mid[idx]


@dataclass(frozen=True)
class SlippageConfig:
    """Horizon for post-fill slippage; prices interpolate LOCF."""

    tau: float = DEFAULT_TAU  # seconds

    def __post_init__(self) -> None:
        if not self.tau > 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if not math.isfinite(self.tau):
            raise ValueError(f"tau must be finite, got {self.tau}")
        if not self.tau * 1e9 < 2.0**63:
            raise ValueError(f"tau must be below {2.0**63 * 1e-9:g} s, so that its ns fit in int64, got {self.tau}")
        if self.tau_ns < 1:  # a horizon of 0 ns measures no move
            raise ValueError(f"tau must round to at least 1 ns, got {self.tau}")

    @property
    def tau_ns(self) -> int:
        return int(round(self.tau * 1e9))


def fill_slippages(
    ts: np.ndarray, side: np.ndarray, mid: np.ndarray, path: PricePath, cfg: SlippageConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Per-fill slippage over fill columns: ``ts`` in ns, ``side`` as +1/-1
    and ``mid`` with NaN where absent.

    Returns (values, covered) where ``covered`` marks fills whose horizon the
    path covers; values of censored fills are NaN.
    """
    values = np.full(len(ts), np.nan)
    covered = np.zeros(len(ts), dtype=bool)
    if len(ts) == 0 or len(path) == 0:
        return values, covered
    if np.any(side == 0):
        raise ValueError("every fill side must be buy or sell")
    # ts + tau <= end_ts, compared without forming ts + tau, which can wrap
    covered = (ts >= path.start_ts) & (ts <= path.end_ts - cfg.tau_ns)
    if not np.any(covered):
        return values, covered
    # math.log, not np.log, whose SIMD loop may differ from libm in the last bit
    mids = np.array(list(map(math.log, mid.tolist())), dtype=np.float64)
    p0 = np.where(np.isnan(mids[covered]), path.log_mid_at(ts[covered]), mids[covered])
    p1 = path.log_mid_at(ts[covered] + cfg.tau_ns)
    values[covered] = side[covered] * (p1 - p0) * BP
    return values, covered


def slippages(
    fills: Sequence[TapeEvent], path: PricePath, cfg: SlippageConfig
) -> tuple[np.ndarray, np.ndarray]:
    """``fill_slippages`` over TapeEvent fills."""
    ts = np.array([f.ts for f in fills], dtype=np.int64)
    side = np.array([f.side.sign for f in fills], dtype=np.int8)
    mid = np.array([np.nan if f.mid is None else f.mid for f in fills], dtype=np.float64)
    return fill_slippages(ts, side, mid, path, cfg)


@dataclass(frozen=True)
class BucketRow:
    """One p-value bucket: [p_lo, p_hi), mean slippage with its stderr."""

    p_lo: float
    p_hi: float
    mean: float | None
    stderr: float | None
    n: int


def bucket_rows(p_fwd: np.ndarray, slip: np.ndarray, buckets: int = DEFAULT_BUCKETS) -> list[BucketRow]:
    """Mean slippage per equal-width forward-p bucket over [0, 1].

    ``p_fwd`` (in [0, 1]) and ``slip`` are columns of the fills to report.
    Sparse buckets are reported with n = 0 and no mean. The last bucket is
    closed at 1.
    """
    check_count("buckets", buckets, "MAX_BUCKETS")
    # truncates as int() does; bincount adds each bucket's weights in input order
    bucket = np.minimum((p_fwd * buckets).astype(np.int64), buckets - 1)
    counts = np.bincount(bucket, minlength=buckets)
    sums = np.bincount(bucket, weights=slip, minlength=buckets)
    sums2 = np.bincount(bucket, weights=slip * slip, minlength=buckets)
    rows: list[BucketRow] = []
    for b in range(buckets):
        lo, hi = b / buckets, (b + 1) / buckets
        n = int(counts[b])
        if n == 0:
            rows.append(BucketRow(lo, hi, None, None, 0))
            continue
        mean = sums[b] / n
        if n > 1:
            var = max(sums2[b] / n - mean * mean, 0.0) * n / (n - 1)
            stderr = math.sqrt(var / n)
        else:
            stderr = None
        rows.append(BucketRow(lo, hi, float(mean), stderr, n))
    return rows


def bucket_report(
    records: Sequence[tuple[SurpriseRecord, float]], buckets: int = DEFAULT_BUCKETS
) -> list[BucketRow]:
    """``bucket_rows`` over (SurpriseRecord, slippage) pairs; records with a
    censored forward duration are skipped."""
    scored = [(r.p_fwd, slip) for r, slip in records if r.p_fwd is not None]
    p_fwd, slip = np.array(scored, dtype=np.float64).reshape(-1, 2).T
    return bucket_rows(p_fwd, slip, buckets)


@dataclass(frozen=True)
class ThresholdRow:
    """Share of flagged fills (p_fwd < alpha) among fills with size >= threshold."""

    threshold: float
    share: float | None
    n: int


def threshold_rows(
    p_fwd: np.ndarray, fwd: np.ndarray, size: np.ndarray, thresholds: Sequence[float], alpha: float = DEFAULT_ALPHA
) -> list[ThresholdRow]:
    """Signalling share as a function of a minimum fill-size threshold.

    The columns hold every scored fill, with ``fwd`` marking a forward
    p-value. For each threshold the cohort is the fills at least that large
    with a scored forward duration; empty cohorts report an absent share.
    """
    check_alpha(alpha)
    for threshold in thresholds:
        if not math.isfinite(threshold):
            raise ValueError(f"threshold must be finite, got {threshold}")
    sizes, flagged = size[fwd], p_fwd[fwd] < alpha
    rows: list[ThresholdRow] = []
    for threshold in thresholds:
        mask = sizes >= threshold
        n = int(mask.sum())
        share = float(flagged[mask].mean()) if n else None
        rows.append(ThresholdRow(float(threshold), share, n))
    return rows


def size_threshold_report(
    records: Sequence[tuple[SurpriseRecord, float]], thresholds: Sequence[float], alpha: float = DEFAULT_ALPHA
) -> list[ThresholdRow]:
    """``threshold_rows`` over (SurpriseRecord, size) pairs."""
    fwd = np.array([r.p_fwd is not None for r, _ in records], dtype=bool)
    p_fwd = np.array([0.0 if r.p_fwd is None else r.p_fwd for r, _ in records], dtype=np.float64)
    size = np.array([size for _, size in records], dtype=np.float64)
    return threshold_rows(p_fwd, fwd, size, thresholds, alpha)


def path_lines(path: PricePath):
    """Serialize a price path as wire lines (kind = "mid"), formatted
    ``BLOCK_ROWS`` at a time.

    Each line equals ``json.dumps({"kind": "mid", "ts": ts, "log_mid": v})``;
    log_mid is finite, so repr is json's float spelling.
    """
    for start in range(0, len(path), BLOCK_ROWS):
        s = slice(start, start + BLOCK_ROWS)
        yield from [
            f'{{"kind": "mid", "ts": {t}, "log_mid": {v!r}}}'
            for t, v in zip(path.ts[s].tolist(), path.log_mid[s].tolist())
        ]


_JSON_INT = r"-?(?:0|[1-9][0-9]*)"
_JSON_NUMBER = _JSON_INT + r"(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?"
_MID_LINE = re.compile(
    rf'\{{"kind": "mid", "ts": ({_JSON_INT}), "log_mid": ({_JSON_NUMBER})\}}'
)
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _json_sample(line: str, line_no: int) -> tuple[int, float]:
    """(ts, log_mid) of a path line in another layout, decoded as JSON."""
    where = f"path line {line_no}"
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise ValueError(f"{where}: invalid JSON ({getattr(exc, 'msg', exc)})") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    if obj.get("kind") != "mid":
        raise ValueError(f"{where}: expected kind 'mid', got {obj.get('kind')!r}")
    t, v = obj.get("ts"), obj.get("log_mid")
    if type(t) is not int:
        raise ValueError(f"{where}: ts must be an integer, got {t!r}")
    if type(v) not in (int, float):
        raise ValueError(f"{where}: log_mid must be a number, got {v!r}")
    try:
        return t, float(v)
    except OverflowError:  # an integer beyond the float range
        return t, math.copysign(math.inf, v)


def path_from_lines(lines) -> PricePath:
    """Inverse of path_lines.

    Lines in path_lines' own layout are read by one regular expression
    that admits JSON numbers only; any other line is decoded as JSON, and
    must be an object of kind "mid" with an integer ``ts`` and a numeric
    ``log_mid``. Such a line that is not, a timestamp outside int64 or not
    above the previous one, or a non-finite log mid raises ValueError naming
    the (1-based) line.
    """
    ts: list[int] = []
    vals: list[float] = []
    prev = _INT64_MIN - 1
    match = _MID_LINE.fullmatch
    for line_no, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        m = match(line)
        t, v = (int(m[1]), float(m[2])) if m is not None else _json_sample(line, line_no)
        if not (prev < t <= _INT64_MAX and math.isfinite(v)):
            if not _INT64_MIN <= t <= _INT64_MAX:
                raise ValueError(f"path line {line_no}: ts {t} is outside int64")
            if t <= prev:
                raise ValueError(
                    f"path line {line_no}: timestamps must be strictly increasing, got {t} after {prev}"
                )
            raise ValueError(f"path line {line_no}: log_mid must be finite, got {v}")
        prev = t
        ts.append(t)
        vals.append(v)
    return PricePath(np.array(ts, dtype=np.int64), np.array(vals))


def read_path_cache(file, digest: str) -> PricePath:
    """The price path in column cache ``file`` (see ``darkscope.tape``), keyed
    by ``digest``; raises ValueError where read_columns or PricePath does."""
    _, (ts, log_mid) = read_columns(file, digest, (np.int64, np.float64))
    return PricePath(ts, log_mid)


def bucket_row_to_obj(row: BucketRow) -> dict:
    obj: dict = {"kind": "report", "report": "slippage_by_pvalue", "p_lo": row.p_lo, "p_hi": row.p_hi, "n": row.n}
    if row.mean is not None:
        obj["mean_bp"] = row.mean
    if row.stderr is not None:
        obj["stderr_bp"] = row.stderr
    return obj


def threshold_row_to_obj(row: ThresholdRow) -> dict:
    obj: dict = {"kind": "report", "report": "signalling_by_min_size", "threshold": row.threshold, "n": row.n}
    if row.share is not None:
        obj["share"] = row.share
    return obj
