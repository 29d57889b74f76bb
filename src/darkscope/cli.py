"""Command-line front end.

Commands:
  simulate   generate a synthetic tape + price path from a preset or scenario file
  score      score a tape's dark fills and emit surprise + evidence lines
  backtest   replay policy-on vs policy-off and emit actions + cohort report
  power      print the minimum-fills detectability bound and an empirical crossing
  report     emit slippage-by-pvalue and signalling-by-min-size plot tables

simulate also writes tape.jsonl.cols and path.jsonl.cols, column caches (see
``darkscope.tape``) that score, backtest and report read in place of the
text when the cache holds that text; the results are the same.

All randomness flows from --seed; identical inputs and seeds produce
byte-identical outputs. DARKSCOPE_LOG=DEBUG|INFO|... controls verbosity.
Exit codes: 0 success, 1 data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import evidence, policy, simulator, slippage, surprise, tape

log = logging.getLogger("darkscope.cli")

_USAGE_ERROR = 2
_DATA_ERROR = 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="darkscope",
        description="Dark-fill signalling detection: simulate, score, decide.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic tape and price path")
    src = sim.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=simulator.PRESET_NAMES)
    src.add_argument("--scenario", type=Path, help="flat key=value scenario file")
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--output", type=Path, required=True, help="output directory for tape.jsonl, "
                     "path.jsonl, their column caches tape.jsonl.cols and path.jsonl.cols, and scenario.txt")

    score = sub.add_parser("score", help="score dark fills on a tape")
    score.add_argument("--input", type=Path, required=True, help="tape file")
    score.add_argument("--output", type=Path, required=True, help="output directory")
    score.add_argument("--window-n", type=int, default=surprise.DEFAULT_WINDOW_SIZE)
    score.add_argument("--kmax", type=int, default=evidence.DEFAULT_KMAX)
    score.add_argument("--horizon-mult", type=float, default=surprise.DEFAULT_HORIZON_MULT)

    back = sub.add_parser("backtest", help="policy-on vs policy-off replay")
    back.add_argument("--input", type=Path, required=True, help="tape file")
    back.add_argument("--path", type=Path, required=True, help="price path file")
    back.add_argument("--output", type=Path, required=True, help="output directory")
    back.add_argument("--window-n", type=int, default=surprise.DEFAULT_WINDOW_SIZE)
    back.add_argument("--kmax", type=int, default=evidence.DEFAULT_KMAX)
    back.add_argument("--alpha", type=float, default=0.05)
    back.add_argument("--horizon-mult", type=float, default=surprise.DEFAULT_HORIZON_MULT)

    power = sub.add_parser("power", help="slippage detectability bound")
    power.add_argument("--mu", type=float, required=True, help="mean per-fill slippage, bp")
    power.add_argument("--sigma", type=float, required=True, help="per-fill return std, bp")
    power.add_argument("--seeds", type=int, default=200)
    power.add_argument("--seed", type=int, default=None)
    power.add_argument("--t-target", type=float, default=2.0)

    report = sub.add_parser("report", help="plot-ready bucket and threshold tables")
    report.add_argument("--input", type=Path, required=True, help="tape file")
    report.add_argument("--path", type=Path, required=True, help="price path file")
    report.add_argument("--output", type=Path, required=True, help="output directory")
    report.add_argument("--window-n", type=int, default=surprise.DEFAULT_WINDOW_SIZE)
    report.add_argument("--horizon-mult", type=float, default=surprise.DEFAULT_HORIZON_MULT)
    report.add_argument("--alpha", type=float, default=0.05)
    report.add_argument("--tau", type=float, default=5.0)
    report.add_argument("--buckets", type=int, default=10)
    report.add_argument(
        "--thresholds",
        type=str,
        default="0,5000,10000,15000,20000,25000,30000,35000,40000,45000",
        help="comma-separated minimum-size notionals",
    )
    return parser


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    if os.environ.get("DARKSCOPE_TEST"):
        raise UsageError("--seed is required when DARKSCOPE_TEST is set")
    derived = time.time_ns() & ((1 << 63) - 1)
    log.warning("no --seed given; derived %d from the clock", derived)
    return derived


class UsageError(Exception):
    pass


def _write_lines(path: Path, lines) -> None:
    with open(path, "w") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def _write_cached(path: Path, lines, columns) -> None:
    """Write ``lines`` to ``path`` and ``columns`` as its column cache (none if None)."""
    _write_lines(path, lines)
    cache = path.with_name(path.name + tape.CACHE_SUFFIX)
    if columns is None:
        cache.unlink(missing_ok=True)
    else:
        tape.write_columns(cache, tape.file_digest(path), *columns)


def _read(path: Path, read_cache, parse):
    """``path`` from its column cache when that holds its text, else parsed."""
    cache = path.with_name(path.name + tape.CACHE_SUFFIX)
    if cache.is_file():
        try:
            return read_cache(cache, tape.file_digest(path))
        except (OSError, ValueError, RecursionError) as exc:
            log.debug("parsing %s: its column cache is not used: %s", path, exc)
    with open(path) as fh:
        return parse(fh)


def _read_tape(path: Path) -> tape.Tape:
    return _read(path, tape.read_tape_cache, tape.parse_tape)


def _read_path(path: Path) -> slippage.PricePath:
    return _read(path, slippage.read_path_cache, slippage.path_from_lines)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _tsv(path: Path, header: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(_fmt(v) for v in row) + "\n")


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.preset:
        scenario = simulator.preset(args.preset, seed=_resolve_seed(args.seed))
    else:
        scenario = simulator.parse_scenario(args.scenario.read_text())
        if args.seed is not None:
            scenario = dataclasses.replace(scenario, seed=args.seed)
    out: Path = args.output
    out.mkdir(parents=True, exist_ok=True)
    tp, path = simulator.simulate_scenario(scenario)
    _write_cached(out / "tape.jsonl", tape.serialize_tape(tp), tape.cache_columns(tp))
    _write_cached(out / "path.jsonl", slippage.path_to_lines(path), ({}, [path.ts, path.log_mid]))
    (out / "scenario.txt").write_text(simulator.format_scenario(scenario))
    n_lit = int(tp.is_lit.sum())
    log.info("simulated %s: %d lit prints, %d dark fills", scenario.name, n_lit, len(tp) - n_lit)
    print(f"wrote {out / 'tape.jsonl'} ({len(tp)} events) and {out / 'path.jsonl'}")
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    tp = _read_tape(args.input)
    out: Path = args.output
    out.mkdir(parents=True, exist_ok=True)
    scores = surprise.score_columns(tp, args.window_n, args.horizon_mult)

    # Per scored fill: its surprise line, then its signalling (p_fwd) and
    # latent (p_bwd) evidence lines, each venue ledger before the pooled one.
    venue = tp.venue[scores.row]
    names = (*tp.venues, "")  # code -1: a fill without a venue
    rows = [np.arange(len(scores))]
    lines = list(surprise.serialize_scores(tp, scores))
    for name, fills, p in (
        ("signalling", np.flatnonzero(scores.fwd), scores.p_fwd),
        ("latent", np.arange(len(scores)), scores.p_bwd),
    ):
        updates = evidence.fold_columns(
            venue[fills], names, tp.ts[scores.row[fills]], p[fills], args.kmax
        )
        rows.append(fills[updates.source])
        lines += evidence.serialize_updates(updates, name)
    # a stable sort by fill keeps block order, then update order, per fill
    order = np.argsort(np.concatenate(rows), kind="stable")
    _write_lines(out / "scored.jsonl", map(lines.__getitem__, order.tolist()))
    print(
        f"wrote {out / 'scored.jsonl'}: {len(scores)} fills scored, "
        f"{scores.skipped} skipped before the window filled, "
        f"{scores.censored} forward-censored"
    )
    return 0


def cmd_backtest(args: argparse.Namespace) -> int:
    tp = _read_tape(args.input)
    path = _read_path(args.path)
    out: Path = args.output
    out.mkdir(parents=True, exist_ok=True)
    cfg = policy.PolicyConfig(
        alpha=args.alpha,
        window_size=args.window_n,
        k_max=args.kmax,
        horizon_mult=args.horizon_mult,
    )
    report = policy.replay(tp, path, cfg)
    _write_lines(out / "actions.jsonl", (json.dumps(policy.action_to_obj(a)) for a in report.actions))
    _tsv(
        out / "cohorts.tsv",
        ["venue", "order", "side", "fills_off", "fills_on", "slip_off_bp", "slip_on_bp"],
        (
            (o.venue, o.order, o.side.value, o.fills_off, o.fills_on, o.slip_off, o.slip_on)
            for o in report.orders
        ),
    )
    _tsv(
        out / "summary.tsv",
        [
            "n_off",
            "n_on",
            "mean_abs_off_bp",
            "mean_abs_on_bp",
            "stderr_abs_off_bp",
            "stderr_abs_on_bp",
            "abs_ratio",
            "decisions",
            "triggers",
            "action_rate",
        ],
        [
            (
                report.n_off,
                report.n_on,
                report.mean_abs_off,
                report.mean_abs_on,
                report.stderr_abs_off,
                report.stderr_abs_on,
                report.abs_ratio,
                report.decisions,
                report.triggers,
                report.action_rate,
            )
        ],
    )
    print(
        f"policy-off |slip| {report.mean_abs_off:.3f} bp over {report.n_off} orders; "
        f"policy-on {report.mean_abs_on:.3f} bp over {report.n_on}; "
        f"ratio {report.abs_ratio:.3f}; {report.triggers} triggers in {report.decisions} decisions"
    )
    if report.mean_abs_off == 0:
        why = "every order's policy-off arrival slippage is 0"
        if not any("order" in t for i, t in tp.truth.items() if not tp.is_lit[i]):
            why += " (no fill carries truth.order, so each fill is its own order)"
        print(f"warning: ratio nan: {why}", file=sys.stderr)
    for arm, stderr, n in (
        ("off", report.stderr_abs_off, report.n_off),
        ("on", report.stderr_abs_on, report.n_on),
    ):
        if math.isnan(stderr):
            why = f"the policy-{arm} cohort holds {n} order(s); a stderr needs 2"
            print(f"warning: stderr_abs_{arm}_bp nan: {why}", file=sys.stderr)
    return 0


def cmd_power(args: argparse.Namespace) -> int:
    bound = slippage.min_fills_bound(args.mu, args.sigma)
    if bound == float("inf"):
        print("minimum fills (t=1 bound): unbounded (mu = 0)")
        return 0
    print(f"minimum fills (t=1 bound): T = {bound:g}")
    seed = _resolve_seed(args.seed)
    crossing = slippage.empirical_crossing(
        args.mu, args.sigma, seeds=args.seeds, seed=seed, t_target=args.t_target
    )
    print(
        f"empirical t={args.t_target:g} crossing (median of {args.seeds} seeds): "
        f"{crossing} fills (expected about {args.t_target**2 * bound:g})"
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    tp = _read_tape(args.input)
    path = _read_path(args.path)
    out: Path = args.output
    out.mkdir(parents=True, exist_ok=True)
    try:
        thresholds = [float(x) for x in args.thresholds.split(",") if x.strip()]
    except ValueError:
        raise UsageError(f"bad --thresholds list: {args.thresholds!r}") from None

    scores = surprise.score_columns(tp, args.window_n, args.horizon_mult)
    cfg = slippage.SlippageConfig(tau=args.tau)
    row = scores.row
    slip, covered = slippage.fill_slippages(tp.ts[row], tp.side[row], tp.mid[row], path, cfg)
    keep = scores.fwd & covered
    buckets = slippage.bucket_rows(scores.p_fwd[keep], slip[keep], args.buckets)
    shares = slippage.threshold_rows(scores.p_fwd, scores.fwd, tp.size[row], thresholds, args.alpha)

    _tsv(
        out / "slippage_by_pvalue.tsv",
        ["p_lo", "p_hi", "mean_bp", "stderr_bp", "n"],
        ((b.p_lo, b.p_hi, b.mean, b.stderr, b.n) for b in buckets),
    )
    _tsv(
        out / "signalling_by_min_size.tsv",
        ["threshold", "share", "n"],
        ((t.threshold, t.share, t.n) for t in shares),
    )
    report_lines = [json.dumps(slippage.bucket_row_to_obj(b)) for b in buckets]
    report_lines += [json.dumps(slippage.threshold_row_to_obj(t)) for t in shares]
    _write_lines(out / "report.jsonl", report_lines)
    print(f"wrote {out / 'slippage_by_pvalue.tsv'} and {out / 'signalling_by_min_size.tsv'}")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "score": cmd_score,
    "backtest": cmd_backtest,
    "power": cmd_power,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("DARKSCOPE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except (tape.TapeFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
