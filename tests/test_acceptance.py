"""Acceptance gate: one test per criterion, one [PASS]/[FAIL] line each.

Every test computes its full criterion first, prints a single verdict line,
then asserts.  Sub-failures are collected so that one red check never hides
another inside the same criterion.
"""

import io
import json
import time
import contextlib

import numpy as np

import lattice_oracle
import reference_formulas as ref
from g2solv import cli
from g2solv.coflow import (
    CoclosedParams,
    FlowOptions,
    integrate,
    modified_soliton_residual,
    soliton_solve,
)
from g2solv.forms import PHI, PSI, hodge
from g2solv.g2core import closed_triple, erp_residual, laplacians, torsion_forms
from g2solv.liealg import BracketTriple, ce_differential, homothety_invariant
from g2solv.numberlat import BUILTIN_EXAMPLES, mult_independence


def _verdict(label, failures):
    tag = "[FAIL]" if failures else "[PASS]"
    print(f"{tag} {label}")
    assert not failures, f"{label}: " + "; ".join(failures)


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return code, buf.getvalue()


def _int_det4(M):
    # exact cofactor expansion over Python ints
    def det(rows):
        if len(rows) == 1:
            return rows[0][0]
        total = 0
        for j, x in enumerate(rows[0]):
            if x == 0:
                continue
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * x * det(minor)
        return total
    return det([list(r) for r in M])


def _int_matmul(X, Y):
    return [[sum(X[i][k] * Y[k][j] for k in range(4)) for j in range(4)]
            for i in range(4)]


def test_criterion_1_lattice_reproduction():
    failures = []
    expected_spectra = {
        "kl-2015": np.sort((2.0 * np.cos(2.0 * np.pi * np.array([1, 2, 4, 7]) / 15.0)) ** 2),
        "kl-sqrt3": np.sort([2.0 + np.sqrt(3.0), 2.0 - np.sqrt(3.0),
                             2.0 + np.sqrt(3.0), 2.0 - np.sqrt(3.0)]),
    }
    t0 = time.perf_counter()
    payloads = {}
    for name in ("kl-2015", "kl-sqrt3"):
        code, out = _run_cli(["verify-lattice", "--example", name])
        if code != 0:
            failures.append(f"{name}: exit code {code}")
            continue
        payloads[name] = json.loads(out)
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.3f}s >= 1s")
    for name, payload in payloads.items():
        ex = BUILTIN_EXAMPLES[name]
        if payload["matrices"] != ex["reference"]:
            failures.append(f"{name}: matrices differ from the reference")
        if not payload.get("reproduces_reference", False):
            failures.append(f"{name}: reproduces_reference is false")
        mats = payload["matrices"]
        for i, M in enumerate(mats):
            if _int_det4(M) != 1:
                failures.append(f"{name}: det of matrix {i} is not exactly 1")
        for i in range(3):
            for j in range(i + 1, 3):
                if _int_matmul(mats[i], mats[j]) != _int_matmul(mats[j], mats[i]):
                    failures.append(f"{name}: matrices {i},{j} do not commute exactly")
        residual = lattice_oracle.diag_residual(payload["roots"], mats, payload["spectra"])
        if residual >= 1e-9:
            failures.append(f"{name}: diagonalization residual too large")
        spectrum = np.sort(np.linalg.eigvals(np.array(mats[0], dtype=float)).real)
        if np.abs(spectrum - expected_spectra[name]).max() > 1e-9:
            failures.append(f"{name}: first-unit spectrum mismatch")
        indep = mult_independence(ex["poly"], ex["units"])
        if indep["rank"] != 3:
            failures.append(f"{name}: independence rank {indep['rank']} != 3")
    _verdict("criterion 1: lattice reproduction (exact)", failures)


def test_criterion_2_torsion_class_property():
    failures = []
    rng = np.random.default_rng(20240215)
    t0 = time.perf_counter()
    for k in range(100):
        mats = []
        for _ in range(3):
            d = rng.uniform(-2.0, 2.0, size=4)
            d -= d.mean()
            mats.append(np.diag(d))
        t = BracketTriple(*mats)
        tf = torsion_forms(t)
        if tf.tau0 != 0.0:
            failures.append(f"sample {k}: tau0 = {tf.tau0} != 0")
        if tf.tau1.norm() >= 1e-12:
            failures.append(f"sample {k}: |tau1| = {tf.tau1.norm()}")
        tau2_ref = -1.0 * hodge(ce_differential(t, PSI))
        tau3_ref = hodge(ce_differential(t, PHI))
        if (tf.tau2 - tau2_ref).norm() >= 1e-11:
            failures.append(f"sample {k}: tau2 != -*dpsi")
        if (tf.tau3 - tau3_ref).norm() >= 1e-11:
            failures.append(f"sample {k}: tau3 != *dphi")
        if failures:
            break
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.3f}s >= 5s")
    _verdict("criterion 2: torsion class of diagonal triples", failures)


def _commuting_triple(rng, scale=1.5):
    G = rng.normal(size=(4, 4))
    G = G / np.linalg.norm(G)
    mats = []
    for _ in range(3):
        c = rng.uniform(-scale, scale, size=3)
        M = c[0] * G + c[1] * (G @ G) + c[2] * (G @ G @ G)
        M -= np.trace(M) / 4.0 * np.eye(4)
        mats.append(M)
    return mats


def test_criterion_3_formula_cross_check():
    failures = []
    tol = 1e-11
    rng = np.random.default_rng(31415)
    for k in range(25):
        A, B, C = _commuting_triple(rng)
        t = BracketTriple(A, B, C)
        lap = laplacians(t)
        dphi = ce_differential(t, PHI)
        dpsi = ce_differential(t, PSI)
        pairs = [
            ("dphi", dphi, ref.general_dphi(A, B, C)),
            ("*dphi", hodge(dphi), ref.general_star_dphi(A, B, C)),
            ("*d*dphi", hodge(ce_differential(t, hodge(dphi))), ref.general_star_d_star_dphi(A, B, C)),
            ("dpsi", dpsi, ref.general_dpsi(A, B, C)),
            ("*dpsi", hodge(dpsi), ref.general_star_dpsi(A, B, C)),
            ("d*dpsi", ce_differential(t, hodge(dpsi)), ref.general_d_star_dpsi(A, B, C)),
        ]
        lap_ref = ref.general_star_d_star_dphi(A, B, C) - ref.general_d_star_dpsi(A, B, C)
        pairs.append(("lap phi", lap["phi"], lap_ref))
        pairs.append(("lap psi", lap["psi"], hodge(lap_ref)))
        for label, got, want in pairs:
            if (got - want).norm() >= tol:
                failures.append(f"general sample {k}: {label}")
    rng = np.random.default_rng(27182)
    for k in range(25):
        a, b, c = (rng.uniform(-2.0, 2.0, size=4) for _ in range(3))
        a, b, c = (v - v.mean() for v in (a, b, c))
        t = BracketTriple(np.diag(a), np.diag(b), np.diag(c))
        lap = laplacians(t)
        dphi = ce_differential(t, PHI)
        dpsi = ce_differential(t, PSI)
        pairs = [
            ("dphi", dphi, ref.diagonal_dphi(a, b, c)),
            ("*dphi", hodge(dphi), ref.diagonal_star_dphi(a, b, c)),
            ("*d*dphi", hodge(ce_differential(t, hodge(dphi))), ref.diagonal_star_d_star_dphi(a, b, c)),
            ("dpsi", dpsi, ref.diagonal_dpsi(a, b, c)),
            ("*dpsi", hodge(dpsi), ref.diagonal_star_dpsi(a, b, c)),
            ("d*dpsi", ce_differential(t, hodge(dpsi)), ref.diagonal_d_star_dpsi(a, b, c)),
            ("lap phi", lap["phi"], ref.diagonal_lap_phi(a, b, c)),
            ("lap psi", lap["psi"], ref.diagonal_lap_psi(a, b, c)),
        ]
        for label, got, want in pairs:
            if (got - want).norm() >= tol:
                failures.append(f"diagonal sample {k}: {label}")
    _verdict("criterion 3: differential and Laplacian formula cross-check", failures)


def test_criterion_4_pinched_compact_example():
    failures = []
    res = erp_residual(closed_triple(1.0, 1.0, 1.0))
    if res["residual_norm"] >= 1e-9:
        failures.append(f"residual {res['residual_norm']} >= 1e-9 at (1,1,1)")
    if abs(res["tau_norm_sq"] - 24.0) > 1e-9:
        failures.append(f"|tau|^2 = {res['tau_norm_sq']} != 24")
    F1 = homothety_invariant(closed_triple(1.0, 1.0, 1.0))
    if abs(F1 - 3.0) > 1e-9:
        failures.append(f"F = {F1} != 3 at (1,1,1)")
    res2 = erp_residual(closed_triple(2.0, 1.0, 1.0))
    F2 = homothety_invariant(closed_triple(2.0, 1.0, 1.0))
    if abs(F2 - 2.0) > 1e-9:
        failures.append(f"F = {F2} != 2 at (2,1,1)")
    if res2["residual_norm"] <= 0.1:
        failures.append(f"residual {res2['residual_norm']} <= 0.1 at (2,1,1)")
    _verdict("criterion 4: extremally pinched compact example", failures)


def test_criterion_5_soliton_suite():
    failures = []
    rng = np.random.default_rng(55)
    bases = []
    while len(bases) < 1000:
        a1, a2, b1, b2 = rng.uniform(-2.0, 2.0, size=4)
        if (a1 - a2) ** 2 - 4 * b1 * b2 >= 0 and (b1 - b2) ** 2 - 4 * a1 * a2 >= 0:
            bases.append((a1, a2, b1, b2))
    worst_res, worst_lam, worst_mod = 0.0, 0.0, np.inf
    n_solutions = 0
    for a1, a2, b1, b2 in bases:
        sols = soliton_solve(a1, a2, b1, b2)
        lam_expect = 2.0 * ((a1 - a2) ** 2 + (b1 - b2) ** 2)
        for sol in sols:
            n_solutions += 1
            worst_res = max(worst_res, sol.residual)
            worst_lam = max(worst_lam, abs(sol.lam - lam_expect))
            worst_mod = min(worst_mod, modified_soliton_residual(sol.params, 1.0)["residual"])
    if worst_res >= 1e-9:
        failures.append(f"worst soliton residual {worst_res}")
    if worst_lam >= 1e-9:
        failures.append(f"worst lambda deviation {worst_lam}")
    if n_solutions == 0:
        failures.append("no solutions found over 1000 admissible bases")
    if worst_mod <= 1e-3:
        failures.append(f"modified residual {worst_mod} <= 1e-3 somewhere")
    std = soliton_solve(1.0, 1.0, 1.0, -1.0)
    if not std or any(sol.lam != 8.0 for sol in std):
        failures.append("case (1,1,1,-1) did not yield lambda = 8")
    _verdict("criterion 5: soliton suite over 1000 admissible bases", failures)


def test_criterion_6_flow_dynamics():
    failures = []

    # Run 1 stays on the invariant slice (a, a, b, -b, c, c).  There the
    # linearization at the soliton has eigenvalues -6 (radial) and
    # -6 +- 4 sqrt(3) i (transverse), so the direction approaches the soliton
    # ray like 1/t (about 0.19/t in the 2-norm), not exponentially: the 1e-4
    # bound is reached only after t ~ 1100, hence t_max = 2000.
    t0 = time.perf_counter()
    traj = integrate(CoclosedParams(2.0, 2.0, 1.0, -1.0, 0.5, 0.5), 2000.0,
                     FlowOptions(samples=2001))
    run1 = time.perf_counter() - t0
    if run1 >= 10.0:
        failures.append(f"run 1 took {run1:.2f}s >= 10s")
    n = traj.norms()
    if np.diff(n).max() > 1e-9:
        failures.append(f"run 1: N increased by {np.diff(n).max()}")
    target = np.array([1.0, 1.0, 1.0, -1.0, 1.0, 1.0]) / np.sqrt(6.0)
    direction = traj.params[-1] / np.linalg.norm(traj.params[-1])
    dev = np.abs(direction - target).max()
    if dev >= 1e-4:
        failures.append(f"run 1: direction deviates {dev:.3e} >= 1e-4 at t = 2000")
    ts = np.array([250.0, 500.0, 1000.0, 2000.0])
    rows = traj.params[np.searchsorted(traj.times, ts)]
    err = np.linalg.norm(rows / np.linalg.norm(rows, axis=1)[:, None] - target, axis=1)
    slope = np.polyfit(np.log(ts), np.log(err), 1)[0]
    if abs(slope + 1.0) >= 0.02:
        failures.append(f"run 1: deviation decays like t^{slope:.4f}, "
                        "the linearization predicts t^-1")

    t0 = time.perf_counter()
    traj = integrate(CoclosedParams(1.0, 1.0, 2.0, 2.0, 1.0, 1.0), 50.0,
                     FlowOptions(samples=501))
    run2 = time.perf_counter() - t0
    if run2 >= 10.0:
        failures.append(f"run 2 took {run2:.2f}s >= 10s")
    ab = traj.params[:, 0] * traj.params[:, 2]  # a1 b1, which the flow conserves
    ab_drift = np.abs(ab - ab[0]).max()
    if ab_drift >= 1e-8:
        failures.append(f"run 2: ab drift {ab_drift}")
    target = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0]) / 2.0
    dev = np.abs(traj.params[-1] / np.linalg.norm(traj.params[-1]) - target).max()
    if dev >= 1e-4:
        failures.append(f"run 2: direction deviates {dev:.3e}")

    t0 = time.perf_counter()
    traj = integrate(CoclosedParams(1.0, 1.0, 1.0, -1.0, 1.0, 1.0), 10.0,
                     FlowOptions(samples=201))
    run3 = time.perf_counter() - t0
    if run3 >= 10.0:
        failures.append(f"run 3 took {run3:.2f}s >= 10s")
    dirs = traj.params / np.linalg.norm(traj.params, axis=1)[:, None]
    drift = np.abs(dirs - dirs[0]).max()
    if drift >= 1e-8:
        failures.append(f"run 3: soliton direction drift {drift}")

    _verdict("criterion 6: flow dynamics on the three benchmark starts", failures)


def test_criterion_7_audit_report():
    failures = []
    code, out = _run_cli(["audit"])
    if code != 0:
        failures.append(f"audit exit code {code}")
    claims = {c["claim_id"]: c for c in json.loads(out)["claims"]}
    for cid in ("norm_derivative_sign_near_degenerate",
                "ode_coefficient_identity",
                "soliton_count_range"):
        if cid not in claims:
            failures.append(f"missing claim {cid}")
    for cid, claim in claims.items():
        for key in ("source_location", "source_value", "computed_value", "agrees"):
            if key not in claim:
                failures.append(f"{cid}: missing field {key}")
    ii = claims.get("ode_coefficient_identity")
    if ii is not None:
        if not ii["agrees"] or ii["computed_value"] >= 1e-14:
            failures.append(f"coefficient identity deviation {ii['computed_value']}")
    counts = claims.get("soliton_count_range", {}).get("computed_value", {})
    if counts and not set(counts) <= {"0", "1", "2", "4"}:
        failures.append(f"unexpected solution counts {sorted(counts)}")
    _verdict("criterion 7: audit report", failures)
