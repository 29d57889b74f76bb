"""Traced run: each command's library calls, timed from outside.

For every CLI command a fresh interpreter runs this file, which calls each
module's public functions in the order that command uses them, on the files
the untraced CLI run wrote, and records a span around every call into a
layer. A fresh process per command keeps the layer times comparable with the
untraced command's wall time. Spans (name, start, end, parent) stay in memory
and are written out when the process ends. This is the only part of the
benchmark that follows the library API.

    python3 bench/layers.py <command> <run_dir> <seed> <out.json>

``<command>`` is a CLI command, or ``growth``: the parse, score, evidence and
replay layers on the whole tape and on its first quarter of events, in
alternating rounds.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pipeline

GROWTH_LAYERS = ("tape.parse", "surprise.score", "evidence.update", "policy.replay")
GROWTH_ROUNDS = 3


class Recorder:
    """In-memory span list; a span's parent is the span open when it began."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = {"name": name, "start": time.perf_counter(), "end": None, "parent": parent}
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def span_cost_s(samples: int = 2000) -> float:
    """Median cost of recording one empty span."""
    rec = Recorder()
    costs = []
    for _ in range(samples):
        t0 = time.perf_counter()
        with rec.span("empty"):
            pass
        costs.append(time.perf_counter() - t0)
    return statistics.median(costs)


def _ledger_updates(evidence, records, kmax: int) -> int:
    """``cmd_score``'s ledger loop without the JSON: ``ledger_update`` plus the
    ``history[-1]`` read, into per-venue and pooled ledgers for both tails."""
    books: tuple[dict, dict] = ({}, {})
    updates = 0

    def update(book: dict, venue: str, ts: int, p: float) -> None:
        ledger = book.get(venue)
        if ledger is None:
            ledger = book[venue] = evidence.EvidenceLedger(venue, kmax)
        evidence.ledger_update(ledger, ts, p)
        ledger.history[-1]

    for record in records:
        venue = record.fill.venue or ""
        for book, p in zip(books, (record.p_fwd, record.p_bwd)):
            if p is not None:
                update(book, venue, record.fill.ts, p)
                update(book, "*", record.fill.ts, p)
                updates += 2
    return updates


def _read_path(slippage, path: Path):
    with open(path) as fh:
        return slippage.path_from_lines(fh)


def _parse(tape, path: Path):
    with open(path) as fh:
        return tape.parse_tape(fh)


def _policy_config(policy, args):
    return policy.PolicyConfig(alpha=args.alpha, window_size=args.window_n, k_max=args.kmax,
                               horizon_mult=args.horizon_mult)


def _cli_args(command: str, run_dir: Path, seed: int):
    """The arguments the untraced run gave ``command``, with the CLI's defaults."""
    from darkscope import cli

    return cli.build_parser().parse_args(pipeline.command_args(command, run_dir, seed))


def traced_command(command: str, run_dir: Path, seed: int, rec: Recorder) -> dict:
    """Run one command's layer calls under ``rec``; return the layer counts."""
    from darkscope import evidence, policy, simulator, slippage, surprise, tape

    args = _cli_args("score" if command == "growth" else command, run_dir, seed)
    tape_file, path_file = run_dir / "sim/tape.jsonl", run_dir / "sim/path.jsonl"
    counts: dict = {}
    if command == "simulate":
        with rec.span("cli.simulate"):
            with rec.span("simulator.simulate"):
                scenario = simulator.parse_scenario(args.scenario.read_text())
                scenario = dataclasses.replace(scenario, seed=args.seed)
                tp, _ = simulator.simulate_scenario(scenario)
            with rec.span("tape.serialize"):
                list(tape.serialize_tape(tp))
        counts["simulator.events"] = len(tp)
    elif command == "score":
        with rec.span("cli.score"):
            with rec.span("tape.parse"):
                tp = _parse(tape, tape_file)
            with rec.span("surprise.score"):
                records = surprise.score_tape(tp, args.window_n, args.horizon_mult)
            with rec.span("evidence.update"):
                counts["evidence.updates"] = _ledger_updates(evidence, records, args.kmax)
        dark = sum(1 for e in tp.events if e.is_dark())
        scored = sum(1 for r in records if r.p_fwd is not None)
        counts["events"] = len(tp)
        counts["surprise.fills_scored"] = scored
        counts["surprise.fills_skipped"] = dark - len(records)
        counts["surprise.fills_censored"] = len(records) - scored
        counts["surprise.scored_share"] = scored / dark if dark else 0.0
    elif command == "backtest":
        with rec.span("cli.backtest"):
            with rec.span("tape.parse"):
                tp = _parse(tape, tape_file)
            with rec.span("slippage.path_parse"):
                path = _read_path(slippage, path_file)
            with rec.span("policy.replay"):
                report = policy.replay(tp, path, _policy_config(policy, args))
        counts["policy.decisions"] = report.decisions
        counts["policy.triggers"] = report.triggers
        counts["policy.trigger_rate"] = report.action_rate
        counts["policy.orders"] = len(report.orders)
    elif command == "report":
        with rec.span("cli.report"):
            with rec.span("tape.parse"):
                tp = _parse(tape, tape_file)
            with rec.span("slippage.path_parse"):
                path = _read_path(slippage, path_file)
            with rec.span("surprise.score"):
                records = surprise.score_tape(tp, args.window_n, args.horizon_mult)
            fills = [r.fill for r in records]
            config = slippage.SlippageConfig(tau=args.tau)
            with rec.span("slippage.slippages"):
                values, covered = slippage.slippages(fills, path, config)
            with rec.span("slippage.report"):
                slip_pairs = [(r, float(v)) for r, v, ok in zip(records, values, covered) if ok]
                size_pairs = [(r, r.fill.size) for r in records]
                thresholds = [float(x) for x in args.thresholds.split(",") if x.strip()]
                slippage.bucket_report(slip_pairs, args.buckets)
                slippage.size_threshold_report(size_pairs, thresholds, args.alpha)
        counts["slippage.covered_share"] = float(covered.mean()) if len(covered) else 0.0
    elif command == "power":
        with rec.span("cli.power"):
            with rec.span("slippage.crossing"):
                slippage.min_fills_bound(args.mu, args.sigma)
                slippage.empirical_crossing(args.mu, args.sigma, seeds=args.seeds, seed=args.seed,
                                            t_target=args.t_target)
    elif command == "growth":
        with open(tape_file) as fh:
            lines = fh.readlines()
        meta = 1 if json.loads(lines[0]).get("kind") == "meta" else 0
        sizes = {"full": lines, "quarter": lines[: meta + (len(lines) - meta) // 4]}
        path = _read_path(slippage, path_file)
        config = _policy_config(policy, _cli_args("backtest", run_dir, seed))
        for _ in range(GROWTH_ROUNDS):
            for size, text in sizes.items():
                with rec.span(f"{size}.tape.parse"):
                    tp = tape.parse_tape(text)
                with rec.span(f"{size}.surprise.score"):
                    records = surprise.score_tape(tp, args.window_n, args.horizon_mult)
                with rec.span(f"{size}.evidence.update"):
                    _ledger_updates(evidence, records, args.kmax)
                with rec.span(f"{size}.policy.replay"):
                    policy.replay(tp, path, config)
                del tp, records
    else:
        raise ValueError(f"unknown command {command!r}")
    return counts


def _durations(traces: dict, name: str, commands=None) -> list[float]:
    return [
        s["end"] - s["start"]
        for command, trace in traces.items() if commands is None or command in commands
        for s in trace["spans"] if s["name"] == name
    ]


def layer_metrics(traces: dict, wall_s: dict[str, float], peak_rss_mb: dict[str, float],
                  tape_bytes: int) -> dict[str, float]:
    """Per-layer metrics from each command's trace and the untraced CLI run.

    ``traces`` maps a command (and ``growth``) to ``{"spans", "counts"}``.
    """
    full = [c for c in traces if c != "growth"]

    def med(name: str, commands=full) -> float:
        return statistics.median(_durations(traces, name, commands))

    counts = {k: v for c in full for k, v in traces[c]["counts"].items()}
    parse_s = med("tape.parse")
    update_s = med("evidence.update")
    m = {
        "tape.parse_s": parse_s,
        "tape.parse_events_per_s": counts["events"] / parse_s,
        "tape.serialize_s": med("tape.serialize"),
        "tape.wire_bytes_per_event": tape_bytes / counts["events"],
        "simulator.simulate_s": med("simulator.simulate"),
        "simulator.events": counts["simulator.events"],
        "surprise.score_s": med("surprise.score"),
        "evidence.update_s": update_s,
        "evidence.updates_per_s": counts["evidence.updates"] / update_s,
        "policy.replay_s": med("policy.replay"),
        "slippage.path_parse_s": med("slippage.path_parse"),
        "slippage.slippages_s": med("slippage.slippages"),
        "slippage.report_s": med("slippage.report"),
        "slippage.crossing_s": med("slippage.crossing"),
    }
    for key in ("surprise.fills_scored", "surprise.fills_skipped", "surprise.fills_censored",
                "surprise.scored_share", "evidence.updates", "policy.decisions",
                "policy.triggers", "policy.trigger_rate", "policy.orders",
                "slippage.covered_share"):
        m[key] = counts[key]
    for layer in GROWTH_LAYERS:
        full_s = min(_durations(traces, f"full.{layer}", ("growth",)))
        m[f"{layer}_growth"] = full_s / min(_durations(traces, f"quarter.{layer}", ("growth",)))
    spans = 0
    for command, wall in wall_s.items():
        trace = traces[command]["spans"]
        root = next(i for i, s in enumerate(trace) if s["name"] == f"cli.{command}")
        layers = sum(s["end"] - s["start"] for s in trace if s["parent"] == root)
        m[f"cli.{command}.other_s"] = wall - layers
        m[f"cli.{command}.peak_rss_mb"] = peak_rss_mb[command]
        spans += len(trace)
    m["trace.overhead_share"] = spans * traces[full[0]]["span_cost_s"] / sum(wall_s.values())
    return m


def main(argv: list[str]) -> int:
    command, run_dir, seed, out = argv
    rec = Recorder()
    counts = traced_command(command, Path(run_dir), int(seed), rec)
    with open(out, "w") as fh:
        json.dump({"spans": rec.spans, "counts": counts, "span_cost_s": span_cost_s()}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
