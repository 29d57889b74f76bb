"""Benchmark workloads and the darkscope CLI command sequence they drive.

Each workload is a seeded scenario file in the CLI's flat key=value format.
The text is written here, not by the library, so that the end-to-end numbers
and the output check depend on the CLI and its files only.

One repetition runs, in a closed loop with one client, the commands a desk
analyst would type:

    simulate --scenario  ->  score  ->  backtest  ->  report  ->  power

Every command runs with ``DARKSCOPE_TEST=1`` and an explicit seed, so a
missing seed is an error, never a clock-derived value.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

# The benchmark seed selects one of these scenario seeds (seed mod SEED_POOL).
# The output check needs a reference recorded from the seed CLI for every
# scenario seed it can meet, and that reference holds every float the
# analysis commands write (about 0.2 MB compressed per scenario seed for
# desk-day, 0.5 MB for fleet-150), so the pool is small.
SEED_POOL = 2

# Per-command limit, so that a hung command cannot hold a run past its budget.
COMMAND_TIMEOUT_S = 100.0

POWER_ARGS = ("--mu", "0.5", "--sigma", "12", "--seeds", "200")

# Files each command wrote at the seed commit, relative to the run directory.
# The check compares these only, so files that later versions add are ignored.
OUTPUTS = {
    "simulate": ("sim/tape.jsonl", "sim/path.jsonl", "sim/scenario.txt"),
    "score": ("score/scored.jsonl",),
    "backtest": ("backtest/actions.jsonl", "backtest/cohorts.tsv", "backtest/summary.tsv"),
    "report": (
        "report/slippage_by_pvalue.tsv",
        "report/signalling_by_min_size.tsv",
        "report/report.jsonl",
    ),
    "power": ("power/stdout.txt",),
}
COMMANDS = tuple(OUTPUTS)
TAPE_COMMANDS = ("simulate", "score", "backtest", "report")


def _scenario(seed: int, duration: float, dark_fill_rate: float, venues) -> str:
    """The ``leaky`` preset's scenario text with the given length, fill rate and
    venues; each venue is (name, active window or None)."""
    lines = [
        "name=leaky",
        "symbol=SYM",
        f"seed={seed}",
        f"duration={duration!r}",
        "lit_schedule=0.0:1.0",
        f"dark_fill_rate={dark_fill_rate!r}",
        "lit_size_log_mu=9.0",
        "lit_size_log_sigma=1.0",
        "price.sigma_per_trade=3.0",
        "price.leak_impact=1.5",
        "price.competing_drift=0.0",
        "price.start_mid=100.0",
        "fills_per_order=15",
    ]
    for venue, active in venues:
        prefix = f"venue.{venue}."
        lines += [
            f"{prefix}leak_prob=0.5",
            f"{prefix}leak_latency_mean=0.01",
            f"{prefix}leak_latency_kind=exp",
            f"{prefix}size_log_mu=8.82",
            f"{prefix}size_log_sigma=0.6",
            f"{prefix}sweep_prob=0.0",
            f"{prefix}latent_prob=0.0",
        ]
        if active is not None:
            lines.append(f"{prefix}active={active[0]!r}:{active[1]!r}")
    return "\n".join(lines) + "\n"


def desk_day(seed: int, smoke: bool) -> str:
    """The ``leaky`` preset at 25 000 s and 0.1 fills/s on one venue."""
    return _scenario(seed, 2_000.0 if smoke else 25_000.0, 0.1, [("DARK1", None)])


def fleet_150(seed: int, smoke: bool) -> str:
    """The acceptance-criterion-8 fleet (``leaky`` base, 150 venues with 600 s
    spans, a 60 s tail) but staggered by 100 s instead of 300 s, so that
    about six venues trade at once and the background lit tape is a third as
    long."""
    n, span, stagger = (4 if smoke else 150), 600.0, 100.0
    venues = [(f"DARK1{i:03d}", (i * stagger, i * stagger + span)) for i in range(n)]
    return _scenario(seed, (n - 1) * stagger + span + 60.0, 0.05, venues)


# Workload name -> scenario text for (scenario_seed, smoke). BENCHMARK.json
# records why each workload was chosen.
WORKLOADS = {"desk-day": desk_day, "fleet-150": fleet_150}


def scenario_seed(seed: int) -> int:
    return seed % SEED_POOL


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["DARKSCOPE_TEST"] = "1"
    env.pop("DARKSCOPE_LOG", None)
    return env


@dataclass(frozen=True)
class Invocation:
    command: str
    returncode: int
    wall_s: float
    peak_rss_mb: float


CLI = ("-m", "darkscope.cli")


def invoke(args: list[str], env: dict[str, str], cwd: Path, stdout: Path, command: str,
           program=CLI) -> Invocation:
    """Run one CLI command (or another ``program`` under the same interpreter);
    time it and read its own peak RSS.

    ``os.wait4`` on the child's pid gives that child's rusage. RUSAGE_CHILDREN
    would report the largest child so far, so later commands would inherit an
    earlier command's peak.
    """
    argv = [sys.executable, *program, *args]
    stdout.parent.mkdir(parents=True, exist_ok=True)
    with open(stdout, "wb") as out, open(stdout.with_suffix(".stderr"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(command, proc.returncode, wall, usage.ru_maxrss / 1024.0)


def command_args(command: str, run_dir: Path, seed: int) -> list[str]:
    tape_file, path_file = str(run_dir / "sim/tape.jsonl"), str(run_dir / "sim/path.jsonl")
    if command == "simulate":
        return ["simulate", "--scenario", str(run_dir / "scenario.txt"), "--seed", str(seed),
                "--output", str(run_dir / "sim")]
    if command == "score":
        return ["score", "--input", tape_file, "--output", str(run_dir / "score")]
    if command in ("backtest", "report"):
        return [command, "--input", tape_file, "--path", path_file,
                "--output", str(run_dir / command)]
    return ["power", *POWER_ARGS, "--seed", str(seed)]


def run_pipeline(root: Path, run_dir: Path, scenario, seed: int, smoke: bool,
                 env: dict[str, str], between=None) -> list[Invocation]:
    """One repetition of the command sequence into a fresh ``run_dir``,
    calling ``between()`` (if given) before each command.

    Stops at the first command that fails, since the later ones read its files.
    """
    for command in COMMANDS:
        out = run_dir / command if command != "simulate" else run_dir / "sim"
        if out.exists():
            for f in out.iterdir():
                f.unlink()
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "scenario.txt").write_text(scenario(seed, smoke))
    done: list[Invocation] = []
    for command in COMMANDS:
        if between is not None:
            between()
        stdout = run_dir / "power/stdout.txt" if command == "power" else run_dir / "log" / f"{command}.txt"
        inv = invoke(command_args(command, run_dir, seed), env, root, stdout, command)
        done.append(inv)
        if inv.returncode != 0:
            break
    return done
