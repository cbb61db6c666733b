#!/usr/bin/env python3
"""Shows that the benchmark's checks reject wrong outputs.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  For each workload it runs a few
real operations, requires their outputs to pass the checks, then perturbs
one output (a soliton, a torsion value, a CSV row of a sweep, a lattice
matrix) and requires the checks to count it as failed.  Exits 1 if a right
output is rejected or a wrong one goes unnoticed.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 1


def outputs(name, ops):
    return [(op, wl.SUMMARIZE[name](wl.RUN[name](op, run.NoTrace()))) for op in ops]


def perturb_soliton(out):
    first = list(out[0])
    params = list(first[0])
    params[4] += 1e-6  # c1
    first[0] = tuple(params)
    return (tuple(first), *out[1:])


def perturb_torsion(out):
    return dict(out, tau0=out["tau0"] + 1e-6)


def perturb_sweep(out):
    """Scale a1 in the tenth row of the second trajectory by 1.001."""
    code, text = out
    lines = text.splitlines()
    row = [i for i, ln in enumerate(lines) if ln.startswith("# start")][1] + 11
    cells = lines[row].split(",")
    cells[1] = repr(float(cells[1]) * 1.001)
    lines[row] = ",".join(cells)
    return code, "\n".join(lines)


def perturb_lattice(out):
    verdict, reason, mats, flags = out
    X = [list(r) for r in mats[1]]
    X[0][0] += 1
    return verdict, reason, (mats[0], tuple(tuple(r) for r in X), *mats[2:]), flags


def main() -> int:
    wl.OUT.mkdir(exist_ok=True)
    cases = [
        ("solitons", wl.build_solitons(SEED)[:2], perturb_soliton),
        ("torsion-general", wl.build_torsion(SEED)[0], perturb_torsion),
        ("flow-sweep", wl.build_flow(SEED)[0], perturb_sweep),
        ("lattices", [op for op in wl.build_lattices(SEED)[0]
                      if op.kind in ("builtin", "field")][:4], perturb_lattice),
    ]
    ok = True
    for name, ops, perturb in cases:
        ops = [op for b in ops for op in b] if isinstance(ops[0], list) else ops
        res = outputs(name, ops)
        right = checks.check_outputs(name, res)
        res[0] = (res[0][0], perturb(res[0][1]))
        wrong = checks.check_outputs(name, res)
        print(f"{name}: {len(ops)} right outputs -> {len(right)} failed checks; "
              f"one perturbed -> {len(wrong)} failed checks")
        for msg in wrong[:3]:
            print(f"    {msg}")
        ok = ok and not right and bool(wrong)
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
