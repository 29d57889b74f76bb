"""Command-line front end.

Commands:
  simulate   generate a synthetic tape + price path from a preset or scenario file
  score      score a tape's dark fills and emit surprise + evidence lines
  backtest   replay policy-on vs policy-off on the tape alone; emit actions + cohort report
  power      print the minimum-fills detectability bound and an empirical crossing
  report     emit slippage-by-pvalue and signalling-by-min-size plot tables

simulate also writes tape.jsonl.cols and path.jsonl.cols, column caches (see
``darkscope.tape``) that the commands read in place of the text when the
cache holds that text; the results are the same.

All randomness flows from --seed; identical inputs and seeds produce
byte-identical outputs. Every file is read and written as UTF-8, whatever the
locale; bytes that are not UTF-8 fail naming their line, as a malformed line
does. DARKSCOPE_LOG names the least level written to stderr, read at each
message: one of the level names of the ``logging`` module, in any case
(DEBUG, INFO, WARNING, ...); any other value, or none, means WARNING. A
message is written as ``LEVEL:darkscope.cli:message``, the layout of
``logging.basicConfig``, though ``logging`` is never loaded.
Exit codes: 0 success, 1 data error, 2 usage error.

``score``, ``backtest`` and ``report`` compute every result before they make
--output and write to it, so a command that fails leaves nothing behind; an
OSError in the middle of a write can still leave partial files.

How a command ends: ``python -m darkscope.cli`` and the ``darkscope``
script call ``run()``: ``main()`` (what the tests call), then a flush of
stdout and stderr and ``os._exit``, which skips the interpreter's teardown
of numpy and every other module; no atexit handler runs after ``main()``,
and none is needed, since each log line goes to stderr as it is written.
A run that will leave that way turns the cyclic garbage collector off
before ``main()``: each command is one short pass, and what a collection
would free goes with the process. ``run()`` leaves by ``sys.exit`` instead,
with the collector on, when a flush raises (a closed stdout pipe still
exits 120 with the interpreter's ``Exception ignored`` line), when it is not
called from the top-level code of the process's ``__main__`` (as under
``python -m cProfile -m darkscope.cli``), or when a trace or profile hook is
set (coverage, a debugger). An uncaught exception propagates as from
``main()``.

``simulate`` forks once, after the tape is made and checked and its output
directory exists. The child formats the second half of the rows while the
parent writes the first; once that is on disk, the child appends its half,
hashes the file and writes tape.jsonl.cols, while the parent writes
path.jsonl, its cache and scenario.txt. The child never prints and leaves
by ``os._exit``; the parent reports its OSError or ValueError as its own
(one ``error:`` line, exit 1) and waits for it on every path. A parent that
fails before its half is written leaves the child writing nothing. Where
``os.fork`` is missing, the second half is written after the first, inline.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import math
import os
import re
import sys
import time
import warnings
from itertools import islice
from pathlib import Path

from . import options

_USAGE_ERROR = 2
_DATA_ERROR = 1

# Each command imports the modules it runs, and no others; json too is
# imported where it is used. The parser reads its defaults, caps and preset
# names from ``options``, which imports nothing, so building it (``--help``)
# loads no numpy.
_WINDOW_HELP = f"lit durations in the scoring window, 1 to {options.MAX_WINDOW}"
_KMAX_HELP = f"p-values each venue's Fisher ledger combines, 1 to {options.MAX_KMAX}"
# What no TSV cell may hold: a tab, a line break (where str.splitlines breaks
# one) or a lone surrogate (which UTF-8 cannot encode).
_NOT_A_CELL = re.compile("[\t\n\r\v\f\x1c-\x1e\x85\u2028\u2029\ud800-\udfff]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="darkscope",
        description="Dark-fill signalling detection: simulate, score, decide.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic tape and price path")
    src = sim.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=tuple(options.PRESETS))
    src.add_argument("--scenario", type=Path, help="flat key=value scenario file")
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--output", type=Path, required=True, help="output directory for tape.jsonl, "
                     "path.jsonl, their column caches tape.jsonl.cols and path.jsonl.cols, and scenario.txt")

    score = sub.add_parser("score", help="score dark fills on a tape")
    score.add_argument("--input", type=Path, required=True, help="tape file")
    score.add_argument("--output", type=Path, required=True, help="output directory")
    score.add_argument("--window-n", type=int, default=options.DEFAULT_WINDOW_SIZE, help=_WINDOW_HELP)
    score.add_argument("--kmax", type=int, default=options.DEFAULT_KMAX, help=_KMAX_HELP)
    score.add_argument("--horizon-mult", type=float, default=options.DEFAULT_HORIZON_MULT)

    back = sub.add_parser("backtest", help="policy-on vs policy-off replay")
    back.add_argument("--input", type=Path, required=True, help="tape file")
    back.add_argument("--path", type=Path, help="accepted and not read: arrival slippage comes from the tape")
    back.add_argument("--output", type=Path, required=True, help="output directory")
    back.add_argument("--window-n", type=int, default=options.DEFAULT_WINDOW_SIZE, help=_WINDOW_HELP)
    back.add_argument("--kmax", type=int, default=options.DEFAULT_KMAX, help=_KMAX_HELP)
    back.add_argument("--alpha", type=float, default=options.DEFAULT_ALPHA)
    back.add_argument("--horizon-mult", type=float, default=options.DEFAULT_HORIZON_MULT)

    power = sub.add_parser("power", help="slippage detectability bound")
    power.add_argument("--mu", type=float, required=True, help="mean per-fill slippage, bp")
    power.add_argument("--sigma", type=float, required=True, help="per-fill return std, bp")
    power.add_argument("--seeds", type=int, default=options.DEFAULT_CROSSING_SEEDS,
                       help=f"independent walks the crossing is the median of, 1 to {options.MAX_CROSSING_SEEDS}")
    power.add_argument("--seed", type=int, default=None)
    power.add_argument("--t-target", type=float, default=options.DEFAULT_T_TARGET)

    report = sub.add_parser("report", help="plot-ready bucket and threshold tables")
    report.add_argument("--input", type=Path, required=True, help="tape file")
    report.add_argument("--path", type=Path, required=True, help="price path file")
    report.add_argument("--output", type=Path, required=True, help="output directory")
    report.add_argument("--window-n", type=int, default=options.DEFAULT_WINDOW_SIZE, help=_WINDOW_HELP)
    report.add_argument("--horizon-mult", type=float, default=options.DEFAULT_HORIZON_MULT)
    report.add_argument("--alpha", type=float, default=options.DEFAULT_ALPHA)
    report.add_argument("--tau", type=float, default=options.DEFAULT_TAU)
    report.add_argument("--buckets", type=int, default=options.DEFAULT_BUCKETS,
                        help=f"p-value buckets, 1 to {options.MAX_BUCKETS}")
    report.add_argument("--thresholds", type=str, default=options.DEFAULT_THRESHOLDS,
                        help="comma-separated minimum-size notionals")
    return parser


# The level names of the ``logging`` module and their numbers.
_LEVELS = {"CRITICAL": 50, "FATAL": 50, "ERROR": 40, "WARN": 30, "WARNING": 30,
           "INFO": 20, "DEBUG": 10, "NOTSET": 0}


def _log(level: str, msg: str) -> None:
    """Write ``msg`` at ``level`` (DEBUG, INFO or WARNING) to stderr when the
    level reaches DARKSCOPE_LOG's, as the module docstring says."""
    if _LEVELS[level] >= _LEVELS.get(os.environ.get("DARKSCOPE_LOG", "").upper(), 30):
        print(f"{level}:darkscope.cli:{msg}", file=sys.stderr)


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    if os.environ.get("DARKSCOPE_TEST"):
        raise UsageError("--seed is required when DARKSCOPE_TEST is set")
    derived = time.time_ns() & ((1 << 63) - 1)
    _log("WARNING", f"no --seed given; derived {derived} from the clock")
    return derived


class UsageError(Exception):
    pass


def _write_lines(path: Path, lines, mode: str = "wb") -> None:
    """Write ``lines`` to ``path`` as UTF-8, each newline-terminated,
    ``tape.BLOCK_ROWS`` lines at a time; ``mode`` "ab" appends them."""
    from .tape import BLOCK_ROWS

    lines = iter(lines)
    with open(path, mode) as fh:
        while block := list(islice(lines, BLOCK_ROWS)):
            fh.write(("\n".join(block) + "\n").encode())


def _write_cached(path: Path, lines, columns, mode: str = "wb") -> None:
    """Write ``lines`` to ``path`` by _write_lines and ``columns`` as the
    whole file's column cache, keyed by the digest the readers check."""
    from . import tape

    _write_lines(path, lines, mode)
    tape.write_columns(path.with_name(path.name + tape.CACHE_SUFFIX), tape.file_digest(path), *columns)


# What Python >= 3.12 warns when a process that runs a second thread forks.
_FORK_WARNING = r"This process \(pid=\d+\) is multi-threaded, use of fork\(\) may lead to deadlocks in the child\.$"


@contextlib.contextmanager
def _forked(prepare, finish):
    """Yield ``release`` while a forked child runs ``prepare()``, and
    ``finish`` of its result once the block has called ``release()``; never
    if the block ends without that call. The block's end waits for the
    child on every path, then raises its OSError or ValueError again if the
    block itself succeeded. Where ``os.fork`` is missing, ``release()`` runs
    ``finish(prepare())`` inline."""
    if not hasattr(os, "fork"):
        yield lambda: finish(prepare())
        return
    go_read, go = os.pipe()
    error, error_write = os.pipe()
    with warnings.catch_warnings():
        # numpy's import started OpenBLAS's worker thread. The child calls no
        # BLAS routine (it slices columns, formats, writes and hashes), so it
        # takes no lock that thread could hold, and the warning does not apply.
        warnings.filterwarnings("ignore", _FORK_WARNING, DeprecationWarning)
        pid = os.fork()
    if pid == 0:  # the child imports nothing, never prints and flushes no inherited buffer
        gc.disable()  # so no finalizer of the parent's garbage runs here either
        code = 2  # an error that is neither OSError nor ValueError
        try:
            os.close(go)
            os.close(error)
            result = prepare()
            if os.read(go_read, 1):
                finish(result)
            code = 0
        except (OSError, ValueError) as exc:
            text = str(exc).encode(errors="surrogateescape")  # a file name may not be UTF-8
            os.write(error_write, (b"O" if isinstance(exc, OSError) else b"V") + text)
            code = 1
        finally:
            os._exit(code)
    os.close(go_read)
    os.close(error_write)

    def release():
        with contextlib.suppress(BrokenPipeError):  # the child has ended; the block's end says why
            os.write(go, b"1")

    try:
        yield release
    finally:
        os.close(go)  # a child not released reads end of file, and writes nothing
        with os.fdopen(error, "rb") as fh:
            message = fh.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code == 1:
        raise (OSError if message[:1] == b"O" else ValueError)(message[1:].decode(errors="surrogateescape"))
    if code:
        raise RuntimeError(f"the forked writer exited with status {code}")


def _parse(path: Path, parse, prefix: str):
    """``parse`` of ``path``'s lines, opened as UTF-8. A file that is not
    UTF-8 is parsed again, over its lines as text mode splits them, each
    decoded only when ``parse`` reads it: so the first line at fault fails,
    and a line that is not UTF-8 raises ValueError naming it after
    ``prefix``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh)
    except UnicodeDecodeError:
        pass

    def lines():
        for line_no, line in enumerate(path.read_bytes().splitlines(), 1):
            try:
                yield line.decode()
            except UnicodeDecodeError as exc:
                raise ValueError(f"{prefix}line {line_no}: invalid UTF-8 ({exc})") from None

    return parse(lines())


def _read(path: Path, read_cache, parse, prefix: str):
    """``path`` from its column cache when that holds its text, else parsed."""
    from . import tape

    cache = path.with_name(path.name + tape.CACHE_SUFFIX)
    if cache.is_file():
        try:
            return read_cache(cache, tape.file_digest(path))
        except (OSError, ValueError, RecursionError) as exc:
            _log("DEBUG", f"parsing {path}: its column cache is not used: {exc}")
    return _parse(path, parse, prefix)


def _read_tape(path: Path):
    from . import tape

    return _read(path, tape.read_tape_cache, tape.parse_tape, "")


def _read_path(path: Path):
    from . import slippage

    return _read(path, slippage.read_path_cache, slippage.path_from_lines, "path ")


def _fmt(value) -> str:
    return "" if value is None else str(value)  # a float's str is its repr


def _tsv(path: Path, header: list[str], rows) -> None:
    _write_lines(path, ["\t".join(header), *("\t".join(map(_fmt, row)) for row in rows)])


def cmd_simulate(args: argparse.Namespace) -> int:
    import dataclasses
    import hashlib  # noqa: F401 (numpy.random loads it too; the child's file_digest must import nothing)

    from . import simulator, slippage, tape

    if args.preset:
        scenario = simulator.preset(args.preset, seed=_resolve_seed(args.seed))
    else:
        scenario = _parse(args.scenario, simulator.parse_scenario, "scenario ")
        if args.seed is not None:
            scenario = dataclasses.replace(scenario, seed=args.seed)
    tp, path = simulator.simulate_scenario(scenario)
    columns = tape.cache_columns(tp)  # raises on a tape that parse_tape would refuse
    out: Path = args.output
    out.mkdir(parents=True, exist_ok=True)
    tape_file = out / "tape.jsonl"
    # At least 1, so that the meta line, which goes with the range from row
    # 0, is the parent's even on an empty tape.
    half = len(tp) // 2 or 1
    # the child formats rows half on, then appends them and writes the cache
    # once rows 0 to half are on disk
    with _forked(lambda: list(tape.serialize_tape(tp, half)),
                 lambda lines: _write_cached(tape_file, lines, columns, "ab")) as release:
        _write_lines(tape_file, tape.serialize_tape(tp, 0, half))
        release()
        _write_cached(out / "path.jsonl", slippage.path_lines(path), ({}, [path.ts, path.log_mid]))
        _write_lines(out / "scenario.txt", simulator.format_scenario(scenario).splitlines())
    n_lit = int(tp.is_lit.sum())
    _log("INFO", f"simulated {scenario.name}: {n_lit} lit prints, {len(tp) - n_lit} dark fills")
    print(f"wrote {out / 'tape.jsonl'} ({len(tp)} events) and {out / 'path.jsonl'}")
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    import numpy as np

    from . import evidence, surprise

    tp = _read_tape(args.input)
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
    out: Path = args.output
    out.mkdir(parents=True, exist_ok=True)
    _write_lines(out / "scored.jsonl", map(lines.__getitem__, order.tolist()))
    print(
        f"wrote {out / 'scored.jsonl'}: {len(scores)} fills scored, "
        f"{scores.skipped} skipped before the window filled, "
        f"{scores.censored} forward-censored"
    )
    return 0


def cmd_backtest(args: argparse.Namespace) -> int:
    import json

    from . import policy

    cfg = policy.PolicyConfig(
        alpha=args.alpha,
        window_size=args.window_n,
        k_max=args.kmax,
        horizon_mult=args.horizon_mult,
    )
    tp = _read_tape(args.input)
    report = policy.replay(tp, None, cfg)
    if bad := next((n for o in report.orders for n in (o.venue, o.order) if _NOT_A_CELL.search(n)), None):
        raise ValueError(f"cohorts.tsv cannot hold the name {bad!r}: a tab, line break or lone surrogate")
    out: Path = args.output
    out.mkdir(parents=True, exist_ok=True)
    _write_lines(out / "actions.jsonl", (json.dumps(policy.action_to_obj(a)) for a in report.actions))
    _tsv(
        out / "cohorts.tsv",
        ["venue", "order", "side", "fills_off", "fills_on", "slip_off_bp", "slip_on_bp"],
        (
            (o.venue, o.order, o.side.value, o.fills_off, o.fills_on, o.slip_off, o.slip_on)
            for o in report.orders
        ),
    )
    summary = {
        "n_off": report.n_off,
        "n_on": report.n_on,
        "mean_abs_off_bp": report.mean_abs_off,
        "mean_abs_on_bp": report.mean_abs_on,
        "stderr_abs_off_bp": report.stderr_abs_off,
        "stderr_abs_on_bp": report.stderr_abs_on,
        "abs_ratio": report.abs_ratio,
        "decisions": report.decisions,
        "triggers": report.triggers,
        "action_rate": report.action_rate,
    }
    _tsv(out / "summary.tsv", list(summary), [summary.values()])
    print(
        f"policy-off |slip| {report.mean_abs_off:.3f} bp over {report.n_off} orders; "
        f"policy-on {report.mean_abs_on:.3f} bp over {report.n_on}; "
        f"ratio {report.abs_ratio:.3f}; {report.triggers} triggers in {report.decisions} decisions"
    )
    if report.mean_abs_off == 0:
        why = "every order's policy-off arrival slippage is 0"
        if not any(t and "order" in t for t in tp.truth[~tp.is_lit].tolist()):
            why += " (no fill carries truth.order, so each fill is its own order)"
        print(f"warning: abs_ratio nan: {why}", file=sys.stderr)
    for arm in ("off", "on"):
        if math.isnan(summary[f"stderr_abs_{arm}_bp"]):
            why = f"the policy-{arm} cohort holds {summary['n_' + arm]} order(s); a stderr needs 2"
            print(f"warning: stderr_abs_{arm}_bp nan: {why}", file=sys.stderr)
    return 0


def cmd_power(args: argparse.Namespace) -> int:
    from . import power

    bound = power.min_fills_bound(args.mu, args.sigma)
    if bound == float("inf"):
        print("minimum fills (t=1 bound): unbounded (mu = 0)")
        return 0
    print(f"minimum fills (t=1 bound): T = {bound:g}")
    seed = _resolve_seed(args.seed)
    crossing = power.empirical_crossing(
        args.mu, args.sigma, seeds=args.seeds, seed=seed, t_target=args.t_target
    )
    print(
        f"empirical t={args.t_target:g} crossing (median of {args.seeds} seeds): "
        f"{crossing} fills (expected about {args.t_target**2 * bound:g})"
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    import json

    from . import slippage, surprise

    bad = f"bad --thresholds list: {args.thresholds!r}"
    try:
        thresholds = [float(x) for x in args.thresholds.split(",") if x.strip()]
    except ValueError:
        raise UsageError(bad) from None
    if not thresholds:
        raise UsageError(f"{bad} holds no threshold")
    if len(set(thresholds)) < len(thresholds):
        raise UsageError(f"{bad} repeats a threshold")
    cfg = slippage.SlippageConfig(tau=args.tau)
    tp = _read_tape(args.input)
    path = _read_path(args.path)
    scores = surprise.score_columns(tp, args.window_n, args.horizon_mult)
    row = scores.row
    slip, covered = slippage.fill_slippages(tp.ts[row], tp.side[row], tp.mid[row], path, cfg)
    keep = scores.fwd & covered
    buckets = slippage.bucket_rows(scores.p_fwd[keep], slip[keep], args.buckets)
    shares = slippage.threshold_rows(scores.p_fwd, scores.fwd, tp.size[row], thresholds, args.alpha)
    out: Path = args.output
    out.mkdir(parents=True, exist_ok=True)
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
    counts = f"{len(scores)} fill(s) scored, {int(scores.fwd.sum())} with a forward p-value"
    if not any(b.n for b in buckets):
        why = f"{counts}, {int(covered.sum())} whose tau horizon the path covers"
        print(f"warning: slippage_by_pvalue.tsv holds no fill: {why}", file=sys.stderr)
    if not any(t.n for t in shares):
        why = f"{counts}, none of them at or above a size threshold"
        print(f"warning: signalling_by_min_size.tsv holds no fill: {why}", file=sys.stderr)
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "score": cmd_score,
    "backtest": cmd_backtest,
    "power": cmd_power,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
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
    except (ValueError, OSError) as exc:  # tape.TapeFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return _DATA_ERROR


def _top_level(frame) -> bool:
    """Whether ``frame`` runs the process's ``__main__`` code, called by
    nothing but runpy (as under ``python -m``)."""
    if frame.f_globals is not getattr(sys.modules.get("__main__"), "__dict__", None):
        return False
    while (frame := frame.f_back) is not None:
        if frame.f_globals.get("__name__") != "runpy":
            return False
    return True


def run() -> None:
    """Run ``main()`` and end the process; the module docstring says how."""
    fast_exit = _top_level(sys._getframe(1)) and not (sys.gettrace() or sys.getprofile())
    if fast_exit:
        gc.disable()
    code = main()
    if fast_exit:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        except Exception:  # the interpreter reports it at exit, as without run()
            gc.enable()
        else:
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    run()
