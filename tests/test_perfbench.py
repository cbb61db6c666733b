"""The benchmark's self-test, and one call of each of its per-layer runs."""

import importlib
import itertools
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


def test_every_benchmark_layer_runs_on_its_workload(monkeypatch, tmp_path):
    # the per-layer run (--trace 1) calls package functions that no other
    # test calls in the same way; run each workload's layers once, untraced
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    run = importlib.import_module("run")
    monkeypatch.setattr(workloads, "OUT", tmp_path)
    for name in workloads.NAMES:
        for op in itertools.chain.from_iterable(workloads.BUILD[name](1)):
            raw = workloads.RUN[name](op, run.NoTrace())
            if name != "lattices" or raw.verdict:
                break
        workloads.LAYERS[name](op, raw, run.NoTrace())
