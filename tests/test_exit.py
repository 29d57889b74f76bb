"""How a command process ends: ``python -m darkscope.cli`` runs ``cli.run``,
which flushes and leaves by ``os._exit``.

In a subprocess, a command writes the same stdout bytes and files as
``cli.main`` in-process, with the same exit codes and log lines. A closed
stdout pipe still ends as the interpreter ends it (exit 120, ``Exception
ignored``, no traceback), and a profiler running the module still gets to
print its report.
"""

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from darkscope.cli import main

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
