"""Smoke tests: the bundled scripts run end to end on a fixture."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PATTERN = ROOT / "src" / "ssckit" / "fixtures" / "star4_pattern.json"


@pytest.mark.parametrize("script, extra", [
    ("sweep_dims.py", ["--draws", "3"]),
    ("leader_sweep.py", []),
])
def test_script_runs(script, extra):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), str(PATTERN), *extra],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
