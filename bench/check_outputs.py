"""Mutation check of the benchmark's output check.

    python3 bench/check_outputs.py

Runs the smoke ``desk-day`` sequence once (scenario seed 0) and confirms that

1. its files pass the check against the recorded reference;
2. one small Fisher ``combined_p`` in ``score/scored.jsonl`` (the smallest
   that is neither first nor last in its column) changed by 1e-11 relative
   fails it;
3. the same value changed by 1e-13 relative, within ``REL_TOL``, passes;
4. a copy of the reference with that value changed by 1e-11 relative fails.

Prints one line per case and exits 0 when all four hold.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
from pathlib import Path

import outputs
import pipeline
import run

WORKLOAD = "desk-day"
FILE = "score/scored.jsonl"
GROUP = "evidence/signalling"


def _group_of(obj: dict) -> str:
    return "/".join(str(obj[k]) for k in ("kind", "ledger", "report") if k in obj)


def _target(lines: list[str]) -> tuple[int, int]:
    """(line number, position in the column) of the smallest interior combined_p."""
    rows = [(i, json.loads(line)) for i, line in enumerate(lines)]
    column = [(i, obj["combined_p"]) for i, obj in rows if _group_of(obj) == GROUP]
    pos = min(range(1, len(column) - 1), key=lambda k: column[k][1])
    return column[pos][0], pos


def _perturbed(run_dir: Path, files, line_no: int, factor: float) -> dict:
    path = run_dir / FILE
    original = path.read_text()
    lines = original.splitlines()
    obj = json.loads(lines[line_no])
    obj["combined_p"] *= factor
    lines[line_no] = json.dumps(obj)
    try:
        path.write_text("\n".join(lines) + "\n")
        return outputs.summarize(run_dir, files)
    finally:
        path.write_text(original)


def main() -> int:
    root = Path.cwd()
    env = pipeline.child_env(root)
    run_dir = Path(".bench_build") / "darkscope-check-outputs"
    files = [f for fs in pipeline.OUTPUTS.values() for f in fs]
    reference = run.reference_for(WORKLOAD, 0, smoke=True)
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        invs = pipeline.run_pipeline(root, run_dir, pipeline.WORKLOADS[WORKLOAD], 0, True, env)
        if any(inv.returncode != 0 for inv in invs) or len(invs) < len(pipeline.COMMANDS):
            print("error: the smoke pipeline failed", file=sys.stderr)
            return 1
        summary = outputs.summarize(run_dir, files)
        line_no, pos = _target((run_dir / FILE).read_text().splitlines())
        bad_ref = copy.deepcopy(reference)
        bad_ref[FILE][GROUP]["fields"]["combined_p"]["float"]["all"][pos] *= 1 + 1e-11
        cases = [
            ("unchanged outputs pass", summary, reference, True),
            ("combined_p x (1 + 1e-11) fails", _perturbed(run_dir, files, line_no, 1 + 1e-11),
             reference, False),
            ("combined_p x (1 + 1e-13) passes", _perturbed(run_dir, files, line_no, 1 + 1e-13),
             reference, True),
            ("reference copy x (1 + 1e-11) fails", summary, bad_ref, False),
        ]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    value = reference[FILE][GROUP]["fields"]["combined_p"]["float"]["all"][pos]
    print(f"target: {FILE} [{GROUP}] combined_p #{pos} = {value!r}")
    ok = True
    for label, candidate, ref, should_pass in cases:
        problems = outputs.compare(ref, candidate)
        held = (not problems) == should_pass
        ok &= held
        print(f"{'ok  ' if held else 'FAIL'} {label}: {problems or 'no mismatch'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
