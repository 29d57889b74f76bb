"""How a command process ends: ``python -m darkscope.cli`` runs ``cli.run``,
which flushes and leaves by ``os._exit``.

In a subprocess, a command writes the same stdout bytes and files as
``cli.main`` in-process, with the same exit codes and log lines. A closed
stdout pipe still ends as the interpreter ends it (exit 120, ``Exception
ignored``, no traceback), and a profiler running the module still gets to
print its report. The files a command reads and writes are UTF-8 under an
ASCII locale too, and DARKSCOPE_LOG takes the level names of ``logging``.
The garbage collector is off only in a run that leaves by ``os._exit``.
"""

import contextlib
import gc
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from darkscope import cli
from darkscope.cli import _log, main

ROOT = Path(__file__).resolve().parents[1]
POWER = ["power", "--mu", "0.5", "--sigma", "12", "--seeds", "5", "--seed", "1"]
SCENARIO = "duration=300.0\ndark_fill_rate=0.2\nvenue.D.leak_prob=0.5\n"


def env(**extra) -> dict[str, str]:
    """The environment of a command: buffered stdout, no log level or test
    mode unless given, and ``src`` on the path."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONUNBUFFERED", "DARKSCOPE_LOG", "DARKSCOPE_TEST")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return {**env, **extra}


def command(argv, cwd: Path, stdout=subprocess.PIPE, program=("-m", "darkscope.cli"), **extra):
    return subprocess.run([sys.executable, *program, *map(str, argv)], cwd=cwd, env=env(**extra),
                          stdout=stdout, stderr=subprocess.PIPE, timeout=120)


def in_process(argv, cwd: Path, monkeypatch) -> tuple[int, bytes]:
    monkeypatch.chdir(cwd)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(a) for a in argv])
    return code, out.getvalue().encode()


@pytest.fixture(scope="module")
def tape(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("sim")
    (out / "scenario.txt").write_text(SCENARIO)
    assert main(["simulate", "--scenario", str(out / "scenario.txt"), "--seed", "3",
                 "--output", str(out)]) == 0
    return out / "tape.jsonl"


@pytest.mark.parametrize("name", ["power", "score"])
def test_stdout_to_a_file_and_outputs_match_main(tmp_path, monkeypatch, tape, name):
    argv = POWER if name == "power" else ["score", "--input", tape, "--output", "out"]
    sub, own = tmp_path / "sub", tmp_path / "own"
    sub.mkdir(), own.mkdir()
    with open(tmp_path / "stdout", "wb") as fh:
        proc = command(argv, sub, stdout=fh)
    assert proc.returncode == 0, proc.stderr
    assert in_process(argv, own, monkeypatch) == (0, (tmp_path / "stdout").read_bytes())
    written = sorted(p.relative_to(sub) for p in sub.rglob("*") if p.is_file())
    assert written == sorted(p.relative_to(own) for p in own.rglob("*") if p.is_file())
    for rel in written:
        assert (sub / rel).read_bytes() == (own / rel).read_bytes(), rel


@pytest.mark.parametrize(
    "argv, extra, code",
    [
        (["score", "--input", "missing.jsonl", "--output", "out"], {}, 1),
        (POWER[:-2], {"DARKSCOPE_TEST": "1"}, 2),
        (["bogus"], {}, 2),
    ],
    ids=["missing input", "missing seed", "unknown command"],
)
def test_exit_codes(tmp_path, argv, extra, code):
    proc = command(argv, tmp_path, **extra)
    assert proc.returncode == code, proc.stderr
    assert b"Traceback" not in proc.stderr


def test_info_log_reaches_stderr(tmp_path):
    (tmp_path / "scenario.txt").write_text(SCENARIO)
    argv = ["simulate", "--scenario", "scenario.txt", "--seed", "3", "--output", "sim"]
    proc = command(argv, tmp_path, DARKSCOPE_LOG="INFO")
    assert proc.returncode == 0, proc.stderr
    # logging is imported at this first message and formats it as basicConfig does
    assert re.fullmatch(rb"INFO:darkscope\.cli:simulated custom: \d+ lit prints, \d+ dark fills\n", proc.stderr)


def test_clock_seed_warning_reaches_stderr(tmp_path):
    proc = command(POWER[:-2], tmp_path)  # no --seed, and DARKSCOPE_TEST unset
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(rb"WARNING:darkscope\.cli:no --seed given; derived \d+ from the clock\n", proc.stderr)


def test_an_unknown_log_level_means_warning(tmp_path):
    # BASIC_FORMAT names a string of logging's, not a level: simulate wrote its
    # files, then exited 1 with "Unknown level"
    argv = ["simulate", "--preset", "leaky", "--seed", "1", "--output", "sim"]
    proc = command(argv, tmp_path, DARKSCOPE_LOG="BASIC_FORMAT")
    assert (proc.returncode, proc.stderr) == (0, b"")


@pytest.mark.parametrize(
    "value, shown",
    [("NOTSET", 3), ("debug", 3), ("Info", 2), ("WARN", 1), ("WARNING", 1), ("ERROR", 0),
     ("CRITICAL", 0), ("FATAL", 0), ("", 1), ("root", 1)],
)
def test_log_level_names(monkeypatch, capsys, value, shown):
    monkeypatch.setenv("DARKSCOPE_LOG", value)
    levels = ("DEBUG", "INFO", "WARNING")
    for level in levels:
        _log(level, "message")
    assert capsys.readouterr().err.splitlines() == [f"{level}:darkscope.cli:message" for level in levels[3 - shown:]]


ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


def test_files_are_utf8_whatever_the_locale(tmp_path):
    # under the ASCII locale simulate could not read this scenario, and backtest
    # wrote a cohorts.tsv of its header alone before it exited 1
    steps = [
        ["simulate", "--scenario", "scenario.txt", "--seed", "3", "--output", "sim"],
        ["score", "--input", "text/tape.jsonl", "--output", "score"],
        ["backtest", "--input", "text/tape.jsonl", "--path", "text/path.jsonl", "--output", "bt"],
        ["report", "--input", "text/tape.jsonl", "--path", "text/path.jsonl", "--output", "rep"],
    ]
    written = {}
    for name, extra in (("ascii", ASCII_LOCALE), ("utf8", {"PYTHONUTF8": "1"})):
        run_dir = tmp_path / name
        (run_dir / "text").mkdir(parents=True)
        (run_dir / "scenario.txt").write_bytes(SCENARIO.replace("venue.D.", "venue.Börse.").encode())
        for argv in steps:
            proc = command(argv, run_dir, **extra)
            assert proc.returncode == 0, proc.stderr
            if argv[0] == "simulate":  # the others parse the text, without its caches
                for f in ("tape.jsonl", "path.jsonl"):
                    (run_dir / "text" / f).write_bytes((run_dir / "sim" / f).read_bytes())
        written[name] = {p.relative_to(run_dir): p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}
    assert written["ascii"] == written["utf8"]
    assert len(written["utf8"]) == 15
    assert b"venue.B\xc3\xb6rse.leak_prob=0.5\n" in written["utf8"][Path("sim/scenario.txt")]


def test_closed_stdout_pipe_is_reported_by_the_interpreter(tmp_path):
    read, write = os.pipe()
    os.close(read)  # no reader: the flush of power's buffered lines fails
    try:
        proc = command(POWER, tmp_path, stdout=write)
    finally:
        os.close(write)
    assert proc.returncode == 120, proc.stderr
    assert proc.stderr.startswith(b"Exception ignored"), proc.stderr
    assert b"Traceback" not in proc.stderr


def test_a_profiler_running_the_module_prints_its_report(tmp_path):
    proc = command(POWER, tmp_path, program=("-m", "cProfile", "-m", "darkscope.cli"))
    assert proc.returncode == 0, proc.stderr
    assert b"function calls" in proc.stdout


class Exited(Exception):
    pass


@pytest.mark.parametrize("top_level", [True, False], ids=["os._exit", "sys.exit"])
def test_the_collector_is_off_only_on_the_os_exit_path(monkeypatch, top_level):
    seen = []

    def exit_(code):
        raise Exited(code)

    monkeypatch.setattr(cli, "_top_level", lambda frame: top_level)
    monkeypatch.setattr(sys, "gettrace", lambda: None)  # as without coverage or a profiler
    monkeypatch.setattr(sys, "getprofile", lambda: None)
    monkeypatch.setattr(cli, "main", lambda: seen.append(gc.isenabled()) or 0)
    monkeypatch.setattr(os, "_exit", exit_)
    try:
        with pytest.raises(Exited if top_level else SystemExit):
            cli.run()
    finally:
        enabled = gc.isenabled()
        gc.enable()
    assert seen == [not top_level] and enabled is not top_level
