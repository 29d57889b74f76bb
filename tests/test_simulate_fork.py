"""``simulate`` writes tape.jsonl in two processes: the forked child formats
the second half of the rows and appends them once the parent has written the
first, then hashes the file and writes its column cache.

Every file matches what one process writes, with ``os.fork`` or without it;
a child's error reaches the user as the parent's own, a parent that fails
before its half is on disk leaves the child writing nothing, and no run
leaves a process behind."""

import hashlib
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from darkscope import simulator, slippage, tape
from darkscope.cli import main
from darkscope.simulator import format_scenario
from darkscope.tape import BLOCK_ROWS, COLUMNS, cache_columns, write_columns
from oracle import path_to_lines, serialize_tape
from test_wire import PINNED, pinned_scenarios


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def text(lines) -> bytes:
    return "".join(line + "\n" for line in lines).encode()


def no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def simulate(capsys, out, scenario_file) -> tuple[int, list[str]]:
    """Exit code and stderr lines of ``simulate``, which prints nothing to
    stdout when it fails and leaves no process running."""
    code = main(["simulate", "--scenario", str(scenario_file), "--output", str(out)])
    captured = capsys.readouterr()
    assert no_child_left()
    assert code == 0 or captured.out == ""
    return code, captured.err.splitlines()


@pytest.fixture(params=[True, False], ids=["fork", "inline"])
def forks(request, monkeypatch):
    """Whether ``os.fork`` is there; without it the second half is written inline."""
    if not request.param:
        monkeypatch.delattr(os, "fork")
    return request.param


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.txt"
    path.write_text("duration=300\n")
    return path


@pytest.mark.parametrize("name, scenario", pinned_scenarios().items())
def test_simulated_files_are_the_pinned_bytes(tmp_path, capsys, forks, name, scenario):
    # the six presets, a fleet and a tie-heavy scenario, from their scenario text
    (tmp_path / "in.txt").write_text(format_scenario(scenario))
    out = tmp_path / "out"
    assert simulate(capsys, out, tmp_path / "in.txt") == (0, [])
    events, tape_sha, path_sha, cache_sha = PINNED[name]
    assert (out / "tape.jsonl").read_bytes().count(b"\n") == events + 1  # the meta line
    assert [sha256(out / f) for f in ("tape.jsonl", "path.jsonl", "tape.jsonl.cols")] == [
        tape_sha, path_sha, cache_sha
    ]
    assert (out / "scenario.txt").read_text() == format_scenario(scenario)


@pytest.fixture(scope="module")
def long_tape():
    tp, path = simulator.simulate_scenario(simulator.preset("null", seed=3, duration=1200.0))
    assert len(tp) > 2 * BLOCK_ROWS + 1 and tp.meta
    return tp, path


@pytest.mark.parametrize("rows", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1])
@pytest.mark.parametrize("meta", [True, False], ids=["meta", "no-meta"])
def test_each_tape_size_is_written_as_one_process_writes_it(
    tmp_path, capsys, monkeypatch, forks, scenario_file, long_tape, rows, meta
):
    tp, path = long_tape
    tp = replace(tp, meta=tp.meta if meta else {}, **{name: getattr(tp, name)[:rows] for name in COLUMNS})
    monkeypatch.setattr(simulator, "simulate_scenario", lambda scenario: (tp, path))
    out = tmp_path / "out"
    assert simulate(capsys, out, scenario_file) == (0, [])
    want = text(serialize_tape(tp))
    assert (out / "tape.jsonl").read_bytes() == want
    write_columns(tmp_path / "want.cols", hashlib.sha256(want).hexdigest(), *cache_columns(tp))
    assert (out / "tape.jsonl.cols").read_bytes() == (tmp_path / "want.cols").read_bytes()
    assert (out / "path.jsonl").read_bytes() == text(path_to_lines(path))


@pytest.mark.parametrize("error", [OSError, ValueError])
def test_a_failing_child_is_one_error_line(tmp_path, capsys, monkeypatch, forks, scenario_file, error):
    real = tape.write_columns

    def write_columns(file, *args):
        if file.name == "tape.jsonl.cols":  # the child's file; the parent's path cache is written
            raise error("no room for tape.jsonl.cols")
        real(file, *args)

    monkeypatch.setattr(tape, "write_columns", write_columns)
    out = tmp_path / "out"
    assert simulate(capsys, out, scenario_file) == (1, ["error: no room for tape.jsonl.cols"])
    assert not (out / "tape.jsonl.cols").exists()
    # the forked child fails beside the parent, which writes on; inline, the failure ends the run
    assert (out / "path.jsonl.cols").exists() == forks


def test_a_parent_failing_before_its_half_leaves_the_child_writing_nothing(
    tmp_path, capsys, monkeypatch, forks, scenario_file
):
    real = tape.serialize_tape

    def serialize_tape(tp, start=0, stop=None):
        if start == 0:  # the parent's half; the child's starts further on
            raise OSError("the first half failed")
        return real(tp, start, stop)

    monkeypatch.setattr(tape, "serialize_tape", serialize_tape)
    out = tmp_path / "out"
    assert simulate(capsys, out, scenario_file) == (1, ["error: the first half failed"])
    # the parent failed before it opened tape.jsonl; the child, which would
    # have made it by appending, was never released and wrote nothing
    assert list(out.iterdir()) == []


def test_an_interrupt_after_the_first_half_waits_for_the_child(
    tmp_path, capsys, monkeypatch, forks, scenario_file
):
    def path_lines(path):
        raise KeyboardInterrupt

    monkeypatch.setattr(slippage, "path_lines", path_lines)
    out = tmp_path / "out"
    with pytest.raises(KeyboardInterrupt):
        main(["simulate", "--scenario", str(scenario_file), "--output", str(out)])
    assert no_child_left()
    # released before the interrupt, the child wrote the whole tape and its cache
    lines = (out / "tape.jsonl").read_text().splitlines()
    assert json.loads(lines[0])["kind"] == "meta" and len(lines) > 2
    header = json.loads((out / "tape.jsonl.cols").read_bytes().split(b"\n", 1)[0])
    assert header["sha256"] == sha256(out / "tape.jsonl")


# Runs ``simulate`` in a fresh interpreter, where only what the command loads
# is loaded, and writes the modules the child imported after the fork.
CHILD_IMPORTS = """
import json, os, sys
from darkscope import cli, tape

real_fork, real_write, parent, loaded = os.fork, tape.write_columns, os.getpid(), []


def fork():
    pid = real_fork()
    if pid == 0:
        loaded.append(set(sys.modules))
    return pid


def write_columns(file, *args):
    real_write(file, *args)
    if os.getpid() != parent:  # the child's last step
        with open(sys.argv[1], "w") as fh:
            json.dump(sorted(set(sys.modules) - loaded[0]), fh)


os.fork, tape.write_columns = fork, write_columns
sys.exit(cli.main(["simulate", "--scenario", sys.argv[2], "--output", sys.argv[3]]))
"""


def test_the_child_imports_nothing(tmp_path, scenario_file):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-c", CHILD_IMPORTS, tmp_path / "imported", scenario_file, tmp_path / "out"]
    proc = subprocess.run(argv, env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "imported").read_text()) == []


def test_the_fork_warning_of_a_threaded_process_is_not_shown(tmp_path, capsys, monkeypatch, scenario_file):
    # Python >= 3.12 warns so in the parent when a process with a second
    # thread (numpy's OpenBLAS worker) forks; pytest runs with warnings as errors
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            message = f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may lead to deadlocks in the child."
            warnings.warn(message, DeprecationWarning, stacklevel=2)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert simulate(capsys, tmp_path / "out", scenario_file) == (0, [])
    assert (tmp_path / "out" / "tape.jsonl.cols").exists()
