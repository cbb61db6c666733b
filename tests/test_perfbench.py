"""The benchmark's self-test: its output checks reject perturbed results."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_checks_catch_perturbed_outputs():
    # among others, a lattice matrix with one entry moved must fail the
    # benchmark's independent lattice check
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest passed" in proc.stdout
