"""Record the output-check reference from the CLI of the current checkout.

    python3 bench/record.py --workload desk-day           # full size
    python3 bench/record.py --workload desk-day --smoke   # smoke size

Runs the command sequence once for every scenario seed in the pool and writes
``bench/reference/<full|smoke>/<workload>.json.xz``: one summary (see
``outputs.py``) per scenario seed. The committed references were written by
the CLI at the commit that introduced the benchmark; rerecording them from a
later commit would make the check compare that commit with itself.
"""

from __future__ import annotations

import argparse
import json
import lzma
import shutil
import sys
from pathlib import Path

import outputs
import pipeline

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(pipeline.WORKLOADS), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    root = Path.cwd()
    env = pipeline.child_env(root)
    name = args.workload
    scenario = pipeline.WORKLOADS[name]
    scale = "smoke" if args.smoke else "full"
    run_dir = Path(".bench_build") / "darkscope-record" / f"{scale}-{name}"
    files = [f for fs in pipeline.OUTPUTS.values() for f in fs]
    reference = {}
    try:
        for seed in range(pipeline.SEED_POOL):
            invs = pipeline.run_pipeline(root, run_dir, scenario, seed, args.smoke, env)
            failed = [inv for inv in invs if inv.returncode != 0]
            if failed or len(invs) < len(pipeline.COMMANDS):
                print(f"error: seed {seed}: {failed[0].command if failed else 'pipeline'} failed",
                      file=sys.stderr)
                return 1
            reference[str(seed)] = outputs.summarize(run_dir, files)
            print(f"{name} seed {seed}: recorded", file=sys.stderr)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    out = HERE / "reference" / scale / f"{name}.json.xz"
    out.parent.mkdir(parents=True, exist_ok=True)
    with lzma.open(out, "wt", preset=9 | lzma.PRESET_EXTREME) as fh:
        json.dump(reference, fh, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
