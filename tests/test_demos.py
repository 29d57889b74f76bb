"""Each demo script runs to completion against the package in src/ and prints
exactly the text it printed when its sha256 was recorded."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# sha256 of each demo's stdout, recorded while demos imported from the package root
STDOUT_SHA256 = {
    "01_timing_surprise.py": "a379eac37999da23629185a3799210b966f377e4761d79254779359c03ced30c",
    "02_fisher_evidence.py": "bf713fd1861aa3750bff660e0c818128810d97ac8923f5c83cb5cd6770cb71a6",
    "03_slippage_power.py": "6d01fd82ca83089a6bb569b10c23bb3a940fb682b55765b731ec8dc2c57e3599",
}


def test_demos_found():
    assert [d.name for d in DEMOS] == list(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name]
