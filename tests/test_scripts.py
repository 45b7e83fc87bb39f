"""Smoke tests for the scripts: each runs to completion and every match flag
it prints reads True."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["reproduce_anchor_counts.py"],
    ["degeneration_checks.py", "--max-n", "2"],
    ["loop_family_table.py", "--max-total", "3"],
])
def test_script_runs_and_matches(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]),
                           *argv[1:]],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "True" in proc.stdout
    assert "False" not in proc.stdout
