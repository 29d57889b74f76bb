"""darkscope benchmark: the CLI pipeline end to end, and its layers traced.

Run from the repository root:

    python3 bench/run.py --workload desk-day --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --smoke            # every workload, tiny, output check only

``--trace 0`` repeats the command sequence (see ``pipeline.py``) until
``--seconds`` is spent, with a run of ``calibrate.py`` before and after every
timed invocation, and reports each timing as the median over repetitions of
its wall time scaled to machine speed (see ``scaled_times``). ``--trace 1``
runs the sequence once untraced, then replays each command's layer calls with
a span around each (``layers.py``) and reports per-layer metrics. Both check every
output file against a reference recorded from the seed CLI (``reference/``,
written by ``record.py``). The last stdout line is the result object; each
workload's environment record precedes it.
"""

from __future__ import annotations

import argparse
import json
import lzma
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import outputs
import pipeline

HERE = Path(__file__).resolve().parent
WORK = Path(".bench_build") / "darkscope-bench"
# Timings are reported in seconds on a machine where ``calibrate.py`` takes
# this long, about its time on a quiet 2-vCPU cloud VM.
CALIBRATION_S = 0.4
WRITER = {rel: command for command, files in pipeline.OUTPUTS.items() for rel in files}


def reference_for(workload: str, seed: int, smoke: bool) -> dict:
    scale = "smoke" if smoke else "full"
    with lzma.open(HERE / "reference" / scale / f"{workload}.json.xz", "rt") as fh:
        return json.load(fh)[str(pipeline.scenario_seed(seed))]


class Tally:
    """Command invocations attempted and failed (non-zero exit or bad output)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, invocations) -> None:
        for inv in invocations:
            self.attempted += 1
            if inv.returncode != 0:
                self.failed += 1
                self.problems.append(f"{inv.command}: exit code {inv.returncode}")

    def fail_commands(self, problems: list[tuple[str, str]], where: str) -> None:
        """Count each command whose files show a problem as one failure."""
        self.problems += [f"{where}: {rel}: {message}" for rel, message in problems]
        self.failed += len({WRITER[rel] for rel, _ in problems})


def measure(root: Path, env: dict, work: Path, tally: Tally, what: str) -> pipeline.Invocation:
    """One fresh interpreter running ``darkscope.cli --help`` (``help``) or the
    fixed reference work in ``calibrate.py`` (``calibrate``)."""
    if what == "help":
        inv = pipeline.invoke(["--help"], env, root, work / "log" / "help.txt", "help")
    else:
        inv = pipeline.invoke([], env, root, work / "log" / "calibrate.txt", "calibrate",
                              program=(str(HERE / "calibrate.py"),))
    tally.add([inv])
    return inv


def check_first(run_dir: Path, name: str, reference: dict, tally: Tally) -> dict:
    files = [f for fs in pipeline.OUTPUTS.values() for f in fs]
    summary = outputs.summarize(run_dir, files)
    tally.fail_commands(outputs.compare(reference, summary), f"{name} reference")
    return outputs.file_digests(run_dir, files)


def check_repeat(run_dir: Path, name: str, first: dict, tally: Tally) -> None:
    again = outputs.file_digests(run_dir, first)
    tally.fail_commands([(rel, "differs from the first repetition")
                         for rel in first if again.get(rel) != first[rel]], f"{name} rerun")


def environment(root: Path, run_dir: Path, workload: str, seed: int) -> dict:
    import numpy

    commit = None
    if (root / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = res.stdout.strip() or None
    tape_file = run_dir / "sim/tape.jsonl"
    events = fills = 0
    venues: set[str] = set()
    if tape_file.is_file():
        with open(tape_file) as fh:
            for line in fh:
                record = json.loads(line)
                if record.get("kind") in ("lit", "dark"):
                    events += 1
                if record.get("kind") == "dark":
                    fills += 1
                    venues.add(record["venue"])
    return {
        "workload": workload,
        "seed": seed,
        "scenario_seed": pipeline.scenario_seed(seed),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "events": events,
        "fills": fills,
        "venues": len(venues),
        "tape_bytes": tape_file.stat().st_size if tape_file.is_file() else 0,
    }


def scaled_times(timeline: list[pipeline.Invocation]) -> dict[str, list[float]]:
    """Each timed invocation's wall time over the mean of the calibrations
    just before and just after it, in seconds at ``CALIBRATION_S``.

    ``timeline`` alternates calibration and timed invocations, starting and
    ending with a calibration.
    """
    out: dict[str, list[float]] = {}
    for before, inv, after in zip(timeline[::2], timeline[1::2], timeline[2::2]):
        speed = (before.wall_s + after.wall_s) / 2 / CALIBRATION_S
        out.setdefault(inv.command, []).append(inv.wall_s / speed)
    return out


def end_to_end(root, env, work, name, seed, seconds, smoke, tally) -> tuple[dict, dict]:
    run_dir, scenario = work / "run", pipeline.WORKLOADS[name]
    measure(root, env, work, tally, "help")  # writes the bytecode cache, which users pay once
    reference = reference_for(name, seed, smoke)
    timeline = [measure(root, env, work, tally, "calibrate")]
    first = None
    peaks: list[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        # One set-up sample per repetition, so that their median sees the same
        # machine as the commands.
        timeline.append(measure(root, env, work, tally, "help"))
        calibrations: list[pipeline.Invocation] = []
        invs = pipeline.run_pipeline(
            root, run_dir, scenario, pipeline.scenario_seed(seed), smoke, env,
            between=lambda: calibrations.append(measure(root, env, work, tally, "calibrate")))
        tally.add(invs)
        if len(invs) < len(pipeline.COMMANDS) or invs[-1].returncode != 0:
            return {}, {}
        for calibration, inv in zip(calibrations, invs):
            timeline += [calibration, inv]
        timeline.append(measure(root, env, work, tally, "calibrate"))
        peaks.append(max(inv.peak_rss_mb for inv in invs if inv.command in pipeline.TAPE_COMMANDS))
        if first is None:
            first = check_first(run_dir, name, reference, tally)
        else:
            check_repeat(run_dir, name, first, tally)
        now = time.perf_counter()
        if smoke or now - start + (now - t0) > seconds:
            break
    info = environment(root, run_dir, name, seed)
    info["repetitions"] = len(peaks)
    info["timeline_s"] = [[inv.command, inv.wall_s] for inv in timeline]

    # Shared hosts run faster and slower in phases lasting from seconds to
    # minutes, and a whole run can fall into a slow one. Scaling each
    # invocation by the reference work timed just before and after it
    # cancels most of that; the median over repetitions takes out the rest.
    # The environment record keeps every raw wall time.
    scaled = scaled_times(timeline)
    metrics = {f"{c}_s": statistics.median(scaled[c]) for c in pipeline.COMMANDS}
    metrics["pipeline_s"] = sum(metrics[f"{c}_s"] for c in pipeline.COMMANDS)
    metrics["events_per_s"] = info["events"] / metrics["pipeline_s"]
    metrics["peak_rss_mb"] = statistics.median(peaks)
    metrics["setup_s"] = statistics.median(scaled["help"])
    return metrics, info


def traced(root, env, work, name, seed, tally) -> tuple[dict, dict]:
    run_dir, scenario = work / "run", pipeline.WORKLOADS[name]
    measure(root, env, work, tally, "help")
    invs = pipeline.run_pipeline(root, run_dir, scenario, pipeline.scenario_seed(seed), False, env)
    tally.add(invs)
    if len(invs) < len(pipeline.COMMANDS) or invs[-1].returncode != 0:
        return {}, {}
    check_first(run_dir, name, reference_for(name, seed, False), tally)
    traces = {}
    for command in (*pipeline.COMMANDS, "growth"):
        out = work / f"trace-{command}.json"
        subprocess.run(
            [sys.executable, str(HERE / "layers.py"), command, str(run_dir),
             str(pipeline.scenario_seed(seed)), str(out)],
            env=env, cwd=root, check=True, timeout=pipeline.COMMAND_TIMEOUT_S,
        )
        traces[command] = json.loads(out.read_text())
    with open(work / "spans.json", "w") as fh:
        json.dump({c: t["spans"] for c, t in traces.items()}, fh)
    info = environment(root, run_dir, name, seed)
    metrics = layers.layer_metrics(
        traces,
        {inv.command: inv.wall_s for inv in invs},
        {inv.command: inv.peak_rss_mb for inv in invs},
        info["tape_bytes"],
    )
    return metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(pipeline.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one repetition, every workload unless --workload")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "darkscope" / "cli.py").is_file():
        print("error: run from a darkscope checkout (src/darkscope/cli.py not found)",
              file=sys.stderr)
        return 2
    if args.workload is None and not args.smoke:
        parser.error("--workload is required unless --smoke")
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    unit_of = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    env = pipeline.child_env(root)
    tally = Tally()
    names = [args.workload] if args.workload else list(pipeline.WORKLOADS)
    metrics: dict[str, dict] = {}
    for name in names:
        work = WORK / f"{name}-{args.seed}-{args.trace}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            if args.trace:
                values, info = traced(root, env, work, name, args.seed, tally)
            else:
                values, info = end_to_end(root, env, work, name, args.seed, args.seconds,
                                          args.smoke, tally)
        finally:
            shutil.rmtree(work / "run", ignore_errors=True)
        print(json.dumps({"environment": info}))
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": unit_of[k]} for k, v in values.items()})

    for problem in tally.problems:
        print(f"check: {problem}", file=sys.stderr)
    correct = tally.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
