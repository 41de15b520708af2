"""Every demo script runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMO_DIR.glob("*.py")))
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(DEMO_DIR / demo)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
