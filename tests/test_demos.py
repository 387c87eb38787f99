"""Every demo script runs to completion (exit code 0) and prints no numpy scalar reprs."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
ARGS = {"05_table_sweep.py": ["10000"]}  # sweep bound; the default 10^5 takes ~10 s


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo), *ARGS.get(demo.name, [])],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert not re.search(r"np\.\w+\(", proc.stdout), proc.stdout
