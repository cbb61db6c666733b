"""Checks of each workload's outputs, run after the timed loop.

Every check compares against something computed here, apart from the
package: closed forms, properties the method must have, the dense exterior
algebra in `tests/dense_oracle.py` (which shares no code with the package),
exact integer arithmetic, and sympy.  Each check returns a list of messages,
empty when the output is right.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent


def _close(x, y, rel, floor=0.0) -> bool:
    return abs(x - y) <= rel * max(abs(x), abs(y)) + floor


# -- solitons ------------------------------------------------------------------


def check_soliton(op, out) -> list[str]:
    a1, a2, b1, b2 = op.data
    P = (a1 - a2) ** 2 - 4 * b1 * b2
    Q = (b1 - b2) ** 2 - 4 * a1 * a2
    lam = 2.0 * ((a1 - a2) ** 2 + (b1 - b2) ** 2)
    want = (2 if P > 0 else 1) * (2 if Q > 0 else 1)
    err = []
    if len(out) != want:
        err.append(f"base {op.data}: {len(out)} solutions, expected {want}")
    for params, lam_got, res, ls_res, mod_res, tau0, t1, t2, t3 in out:
        c1, c2 = params[4], params[5]
        tag = f"base {op.data} solution {params[4:]}"
        if params[:4] != op.data:
            err.append(f"{tag}: base changed to {params[:4]}")
        if not _close(lam_got, lam, 1e-12):
            err.append(f"{tag}: lambda {lam_got}, expected {lam}")
        if not _close((c1 + c2) ** 2, P, 1e-9, 1e-12):
            err.append(f"{tag}: (c1+c2)^2 = {(c1 + c2) ** 2}, expected {P}")
        if not _close((c1 - c2) ** 2, Q, 1e-9, 1e-12):
            err.append(f"{tag}: (c1-c2)^2 = {(c1 - c2) ** 2}, expected {Q}")
        if not (res < 1e-9 and ls_res < 1e-9):
            err.append(f"{tag}: residuals {res}, {ls_res} not below 1e-9")
        if not mod_res > 1e-3:
            err.append(f"{tag}: m=1 modified residual {mod_res} not above 1e-3")
        # a soliton of the coclosed family has d psi = 0, hence tau1 = tau2 = 0
        if not (t1 < 1e-9 and t2 < 1e-9):
            err.append(f"{tag}: |tau1| = {t1}, |tau2| = {t2}, expected 0")
    return err


# -- torsion-general -----------------------------------------------------------

# phi = e^127 + e^347 + e^567 + e^135 - e^146 - e^236 - e^245, written out here
# so that the oracle does not take it from the package
PHI = {(1, 2, 7): 1.0, (3, 4, 7): 1.0, (5, 6, 7): 1.0, (1, 3, 5): 1.0,
       (1, 4, 6): -1.0, (2, 3, 6): -1.0, (2, 4, 5): -1.0}
ORACLE_SAMPLE = 8  # triples per run checked against the dense oracle


@functools.cache
def dense_oracle():
    sys.path.insert(0, str(ROOT / "tests"))
    import dense_oracle

    return dense_oracle


def oracle_torsion(t):
    """d(phi), d(psi), tau0, |tau|^2 and lap(phi) from the dense oracle."""
    do = dense_oracle()
    c = do.structure_tensor(t.A, t.B, t.C)
    phi = do.from_dict(3, PHI)
    psi = do.hodge(phi, 3)
    dphi, dpsi = do.d(c, phi, 3), do.d(c, psi, 4)
    tau0 = float(do.hodge(do.wedge(dphi, 4, phi, 3), 7)) / 7.0
    tau = -do.hodge(dpsi, 5)  # -*d*phi, with *phi = psi
    lap = do.hodge(do.d(c, do.hodge(dphi, 4), 3), 4) - do.d(c, do.hodge(dpsi, 5), 2)
    return {"dphi": dphi, "dpsi": dpsi, "tau0": tau0,
            "norm_sq_tau": do.inner(tau, tau, 2), "lap_phi": lap}


def _dict_dev(a: dict, b: dict) -> float:
    return max((abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in set(a) | set(b)), default=0.0)


def check_against_oracle(op, out) -> list[str]:
    from g2solv import forms, liealg

    do = dense_oracle()
    t = op.data[0]
    ref = oracle_torsion(t)
    dev = {
        "dphi": do.max_dev(ref["dphi"], 4, liealg.ce_differential(t, forms.PHI)),
        "dpsi": do.max_dev(ref["dpsi"], 5, liealg.ce_differential(t, forms.PSI)),
        "tau0": abs(ref["tau0"] - out["tau0"]),
        "|tau|^2": abs(ref["norm_sq_tau"] - out["norm_sq_tau"]),
        "lap phi": _dict_dev(do.to_dict(ref["lap_phi"], 3), out["lap_phi"]),
    }
    return [f"{op.kind} triple: {k} is {v} away from the dense oracle"
            for k, v in dev.items() if not v < 1e-10]


def expected_compatible(op):
    """For a triple of polynomials in M: compatible exactly when M has real
    eigenvalues (generic triples are independent).  None near the boundary."""
    M = op.data[1]
    ev = np.linalg.eigvals(M)
    if np.abs(ev.imag).max() > 1e-3:
        return False
    if np.abs(ev.imag).max() == 0.0 and np.diff(np.sort(ev.real)).min() > 1e-3:
        mats = np.stack([X.ravel() for X in op.data[0].matrices()])
        s = np.linalg.svd(mats, compute_uv=False)
        if s[-1] > 1e-6 * s[0]:
            return True
    return None


def check_torsion(op, out) -> list[str]:
    err = []
    tag = f"{op.kind} triple"
    tau1, tau2, tau3 = out["tau_norms"]
    flags = dict(out["class"])
    if flags != {"W1": abs(out["tau0"]) > 1e-10, "W2": tau2 > 1e-10,
                 "W3": tau3 > 1e-10, "W4": tau1 > 1e-10}:
        err.append(f"{tag}: torsion class {flags} disagrees with the torsion forms")
    if out["F_report"] is None or not _close(out["F_report"], out["F"], 1e-12):
        err.append(f"{tag}: ricci_report F {out['F_report']} != homothety_invariant {out['F']}")
    if op.kind == "general":
        want = expected_compatible(op)
        if want is not None and out["compatible"][2] != want:
            err.append(f"{tag}: compatible {out['compatible']}, expected {want}")
        return err
    a, b, c = op.data[1]
    n2, n4 = a * a + b * b + c * c, a ** 4 + b ** 4 + c ** 4
    if not _close(out["F"], n2 * n2 / n4, 1e-10):
        err.append(f"{tag} {op.data[1]}: F {out['F']}, expected {n2 * n2 / n4}")
    if not (abs(out["tau0"]) < 1e-10 and tau1 < 1e-10 and tau3 < 1e-10):
        err.append(f"{tag} {op.data[1]}: closed, yet tau0, tau1 or tau3 is nonzero")
    if out["compatible"][2] is not True:
        err.append(f"{tag} {op.data[1]}: diagonal triple reported not compatible")
    if op.kind == "multiple":
        k = a
        res, nsq = out["erp"]
        if not (res < 1e-10 and _close(nsq, 24 * k * k, 1e-12)
                and _close(out["norm_sq_tau"], 24 * k * k, 1e-12)):
            err.append(f"{tag} k={k}: ERP residual {res}, |tau|^2 {nsq}, expected 0 and {24 * k * k}")
    return err


# -- flow-sweep ----------------------------------------------------------------


def parse_sweep(text: str):
    """[(start, status, rows)] from the sweep CSV, rows as an array."""
    blocks = []
    for line in text.splitlines():
        if line.startswith("# start"):
            _, _, start, _, status = line.split(" ")
            blocks.append((tuple(float(x) for x in start.split(",")), status, []))
        elif line and not line.startswith("t,"):
            blocks[-1][2].append([float(x) for x in line.split(",")])
    return [(s, st, np.array(rows)) for s, st, rows in blocks]


def check_trajectory(start, status, R, ray_f=None) -> list[str]:
    tag = f"start {start}"
    if status == "diverged":
        return [f"{tag}: diverged"]
    if R.shape != (wl.SWEEP_SAMPLES, 12):
        return [f"{tag}: {R.shape} table, expected ({wl.SWEEP_SAMPLES}, 12)"]
    err = []
    t, P = R[:, 0], R[:, 1:7]
    N, F, r, s, tc = R[:, 7], R[:, 8], R[:, 9], R[:, 10], R[:, 11]
    a1, a2, b1, b2, c1, c2 = P.T
    if np.abs(t - np.linspace(0.0, wl.SWEEP_T_MAX, wl.SWEEP_SAMPLES)).max() > 1e-12:
        err.append(f"{tag}: sample times are not the requested grid")
    if np.abs(P[0] - start).max() > 1e-15:
        err.append(f"{tag}: first row {P[0]} is not the start")
    if not np.allclose(N, (P * P).sum(axis=1), rtol=1e-12, atol=0):
        err.append(f"{tag}: N != |p|^2")
    if np.any(N[1:] > N[:-1] * (1 + 1e-10)):
        err.append(f"{tag}: N increases")
    for x, y in ((a1, a2), (b1, b2), (c1, c2)):
        # x/y is conserved: x(t) y(0) - y(t) x(0) = 0
        drift = np.abs(x * y[0] - y * x[0])
        if np.any(drift > 1e-7 * np.hypot(x, y) * math.hypot(x[0], y[0]) + 1e-300):
            err.append(f"{tag}: a ratio a1/a2, b1/b2 or c1/c2 is not conserved")
            break
    # F = (tr G)^2 / tr(G^2), G the Gram matrix of the diagonals of A, B, C
    D = np.stack([np.stack([a1, -a1, a2, -a2], 1),
                  np.stack([b1, b2, -b1, -b2], 1),
                  np.stack([c1, c2, -c2, -c1], 1)], 1)
    G = np.einsum("nik,njk->nij", D, D)
    F_ref = np.trace(G, axis1=1, axis2=2) ** 2 / np.einsum("nij,nji->n", G, G)
    if not np.allclose(F, F_ref, rtol=1e-10, atol=0):
        err.append(f"{tag}: F differs from (tr G)^2 / tr(G^2)")
    closed = ((b1 + b2) ** 2 + (c1 + c2) ** 2, (a1 - a2) ** 2 + (b1 - b2) ** 2,
              (a1 + a2) ** 2 + (c1 - c2) ** 2)
    for name, got, want in zip(("r", "s", "tc"), (r, s, tc), closed):
        if not np.allclose(got, want, rtol=1e-12, atol=1e-300):
            err.append(f"{tag}: {name} differs from its closed form")
    if ray_f is not None:
        exact = np.outer(ray_f / np.sqrt(1 + 4 * ray_f ** 2 * t), [1, 1, 1, -1, 1, 1])
        if not np.allclose(P, exact, rtol=1e-7, atol=0):
            err.append(f"{tag}: leaves the exact f/sqrt(1+4 f^2 t) solution")
    return err


def check_flow(op, out) -> list[str]:
    code, text = out
    _, starts, f = op.data
    blocks = parse_sweep(text)
    err = [] if code == 0 else [f"sweep exit code {code}"]
    if [b[0] for b in blocks] != starts:
        return err + [f"sweep reports starts {[b[0] for b in blocks]}, ran {starts}"]
    for k, (start, status, R) in enumerate(blocks):
        err += check_trajectory(start, status, R, f if k == 0 else None)
    return err


# -- lattices ------------------------------------------------------------------


def _imul(X, Y):
    return [[sum(X[i][k] * Y[k][j] for k in range(4)) for j in range(4)] for i in range(4)]


def _idet(X) -> int:
    """Bareiss fraction-free elimination, exact in integers."""
    M = [list(r) for r in X]
    sign, prev = 1, 1
    for k in range(3):
        if M[k][k] == 0:
            for i in range(k + 1, 4):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, 4):
            for j in range(k + 1, 4):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[3][3]


def q_of_companion(p, q):
    a0, a1, a2, a3 = p.coeffs()
    C = [[0, 0, 0, -a0], [1, 0, 0, -a1], [0, 1, 0, -a2], [0, 0, 1, -a3]]
    out = [[0] * 4 for _ in range(4)]
    power = [[int(i == j) for j in range(4)] for i in range(4)]
    for c in q.coeffs():
        out = [[out[i][j] + c * power[i][j] for j in range(4)] for i in range(4)]
        power = _imul(power, C)
    return out


@functools.cache
def sympy_field(coeffs):
    """(irreducible, number of distinct real roots, square-free) by sympy."""
    import sympy

    x = sympy.Symbol("x")
    a0, a1, a2, a3 = coeffs
    P = sympy.Poly(x ** 4 + a3 * x ** 3 + a2 * x ** 2 + a1 * x + a0, x)
    return P.is_irreducible, P.sqf_part().count_roots(), P.is_sqf


def independence_sigma(p, ks) -> float:
    """sigma_min of L[i, j] = log (r_j - k_i)^2 over the roots r_j of p."""
    a0, a1, a2, a3 = p.coeffs()
    r = np.roots([1, a3, a2, a1, a0]).real
    L = np.array([[2 * math.log(abs(x - k)) for x in r] for k in ks])
    return float(np.linalg.svd(L, compute_uv=False)[-1])


def check_certified_matrices(op, mats) -> list[str]:
    p, units = op.data[0], op.data[1]
    err = []
    if len(mats) != len(units):
        return [f"{op.kind} {p.coeffs()}: {len(mats)} matrices for {len(units)} units"]
    for q, X in zip(units, mats):
        X = [list(r) for r in X]
        if X != q_of_companion(p, q):
            err.append(f"{op.kind} {p.coeffs()}: matrix of {q.coeffs()} is not q(companion)")
        if _idet(X) != 1:
            err.append(f"{op.kind} {p.coeffs()}: det of {q.coeffs()} is {_idet(X)}, not 1")
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            X, Y = [list(r) for r in mats[i]], [list(r) for r in mats[j]]
            if _imul(X, Y) != _imul(Y, X):
                err.append(f"{op.kind} {p.coeffs()}: matrices {i} and {j} do not commute")
    return err


def check_lattice(op, out) -> list[str]:
    from g2solv import numberlat

    verdict, reason, mats, flags = out
    flags = dict(flags)
    p = op.data[0]
    tag = f"{op.kind} {p.coeffs()}"
    if op.kind == "builtin":
        ref = numberlat.BUILTIN_EXAMPLES[op.data[2]]["reference"]
        err = [] if verdict else [f"{tag}: built-in not certified ({reason})"]
        if [[list(r) for r in X] for X in mats] != ref:
            err.append(f"{tag}: matrices differ from the reference")
        return err + check_certified_matrices(op, mats)
    if op.kind == "non-unit":
        ok = not verdict and flags.get("units_valid") is False
        return [] if ok else [f"{tag}: non-unit not rejected ({flags})"]
    irreducible, n_real, sqf = sympy_field(p.coeffs())
    if op.kind == "not-totally-real":
        ok = n_real < 4 and not verdict and flags.get("totally_real") is False
        return [] if ok else [f"{tag}: complex roots not rejected ({flags})"]
    # seeded fields and the squares of four consecutive integers
    if op.kind == "square" and irreducible:
        return [f"{tag}: sympy finds this square irreducible"]
    if flags.get("irreducible") != irreducible:
        return [f"{tag}: irreducible {flags.get('irreducible')}, sympy says {irreducible}"]
    if not (irreducible and sqf and n_real == 4):
        return [f"{tag}: certified a field that sympy rejects"] if verdict else []
    sigma = independence_sigma(p, [0, *op.data[2][:2]])
    if 1e-9 < sigma < 1e-3:
        return [f"{tag}: independence undecided here, sigma_min {sigma}"]
    if verdict != (sigma >= 1e-3):
        return [f"{tag}: verdict {verdict} ({reason}), expected {sigma >= 1e-3}"]
    return check_certified_matrices(op, mats) if verdict else []


CHECK = {"solitons": check_soliton, "torsion-general": check_torsion,
         "flow-sweep": check_flow, "lattices": check_lattice}


def check_outputs(name: str, results) -> list[str]:
    """Check every (op, output) pair.  Outputs of an op that ran before must
    equal its first output; first outputs get the full check, and the first
    ORACLE_SAMPLE triples also the dense-oracle one."""
    first, err, sampled = {}, [], 0
    for op, out in results:
        if id(op) in first:
            if out != first[id(op)]:
                err.append(f"{op.kind} {op.data[:1]}: output changed between repeats")
            continue
        first[id(op)] = out
        try:
            err += CHECK[name](op, out)
        except (ValueError, TypeError, IndexError, KeyError) as exc:
            err.append(f"{op.kind}: output unreadable ({type(exc).__name__}: {exc})")
        if name == "torsion-general" and sampled < ORACLE_SAMPLE:
            sampled += 1
            err += check_against_oracle(op, out)
    return err


def check_cold(name: str, blocks, proc) -> list[str]:
    """Output of one `python -m g2solv` cold start (see workloads.cold_argv)."""
    if proc.returncode != 0:
        return []  # already reported with its exit code
    op = blocks[0][0]
    try:
        if name == "solitons":
            sols = json.loads(proc.stdout)["solutions"]
            out = [(tuple(s["params"]), s["lambda"], s["residual"], 0.0,
                    s["modified_residual"], 0.0, 0.0, 0.0, 0.0) for s in sols]
            return [f"cold start: {e}" for e in check_soliton(op, out)]
        if name == "torsion-general":
            payload = json.loads(proc.stdout)
            from g2solv import g2core

            tf = g2core.torsion_forms(wl.structure(op.data[0]))
            ok = (_close(payload["tau0"], tf.tau0, 1e-12, 1e-15)
                  and _close(payload["norm_sq_tau"], tf.norm_sq_tau, 1e-12, 1e-15))
            return [] if ok else ["cold start: torsion report differs from torsion_forms"]
        if name == "flow-sweep":
            lines = proc.stdout.strip().splitlines()
            rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:-1]])
            status = lines[-1].split()[-1]
            return [f"cold start: {e}" for e in check_trajectory(op.data[1][1], status, rows)]
        payload = json.loads(proc.stdout)
        ok = payload["verdict"] is True and payload["reproduces_reference"] is True
        return [] if ok else ["cold start: kl-2015 not certified or not reproduced"]
    except (ValueError, KeyError, IndexError) as exc:
        return [f"cold start output unreadable: {type(exc).__name__}: {exc}"]
