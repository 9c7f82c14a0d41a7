"""Every demo runs to completion as a script."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(name for name in os.listdir(os.path.join(ROOT, "demos")) if name.endswith(".py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    path = os.pathsep.join(p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    if demo.startswith("05_"):
        agree = [line for line in proc.stdout.splitlines() if line.startswith("generic engine == Sweedler")]
        assert len(agree) == 1 and agree[0].endswith("True"), proc.stdout
