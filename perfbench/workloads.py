"""Seeded inputs for each workload and the package calls the benchmark times.

A workload's inputs are a list of blocks.  A block is a fixed mix of
operations, and a run always finishes whole blocks, so the mix a run measures
does not depend on where its clock stops.  An operation is one timed call
into the package on `items` items: a base, a triple, a field, or the starts of
one sweep.

Only public module-level functions of `g2solv` and `g2solv.cli.run` are
called, so the benchmark keeps measuring the same work while the package is
refactored underneath it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from g2solv import cli, coflow, forms, g2core, liealg, numberlat

OUT = Path(__file__).resolve().parent / "out"

NAMES = ("solitons", "torsion-general", "flow-sweep", "lattices")

# Sizes.  A 10 s run covers about 150 soliton bases, 56 torsion blocks,
# 30 sweeps and 200 lattice blocks on a 2-vCPU x86 VM, so solitons and sweeps
# seldom repeat an input and the other two cycle through their pools.
SOLITON_BASES = 256
TORSION_BLOCKS = 32  # 6 general + 1 closed + 1 multiple of (1,1,1) each
SWEEPS = 32  # 1 soliton-ray start + 3 random starts each
SWEEP_T_MAX = 50.0
SWEEP_SAMPLES = 101
LATTICE_BLOCKS = 8  # 5 fixed + 27 seeded fields each


@dataclass
class Op:
    kind: str
    data: tuple
    items: int = 1


def rng_for(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, NAMES.index(name)])


def structure(triple):
    """torsion_forms and friends take a G2Structure built by g2core.structure;
    where that wrapper is gone they take the triple itself."""
    make = getattr(g2core, "structure", None)
    return make(triple) if make else triple


# -- solitons ------------------------------------------------------------------


def build_solitons(seed: int):
    rng = rng_for("solitons", seed)
    blocks = []
    while len(blocks) < SOLITON_BASES:
        a1, a2, b1, b2 = (float(x) for x in rng.uniform(-2.0, 2.0, size=4))
        if (a1 - a2) ** 2 - 4 * b1 * b2 >= 0 and (b1 - b2) ** 2 - 4 * a1 * a2 >= 0:
            blocks.append([Op("base", (a1, a2, b1, b2))])
    return blocks


def run_soliton(op: Op, tr):
    with tr.span("coflow.soliton_solve"):
        sols = coflow.soliton_solve(*op.data)
    out = []
    for s in sols:
        with tr.span("coflow.soliton_residual"):
            ls = coflow.soliton_residual(s.params)
        with tr.span("coflow.modified_soliton_residual"):
            mod = coflow.modified_soliton_residual(s.params, 1.0)
        with tr.span("g2core.torsion_forms"):
            tf = g2core.torsion_forms(structure(s.params.to_triple()))
        out.append((s, ls, mod, tf))
    return out


def summarize_soliton(raw):
    return tuple(
        (tuple(float(x) for x in s.params.as_array()), s.lam, s.residual,
         ls["residual"], mod["residual"],
         tf.tau0, tf.tau1.norm(), tf.tau2.norm(), tf.tau3.norm())
        for s, ls, mod, tf in raw
    )


def form_layers(triple, tr):
    """The form primitives on this triple's d(phi), d(psi) and on psi."""
    with tr.span("liealg.ce_differential"):
        dphi = liealg.ce_differential(triple, forms.PHI)
    with tr.span("liealg.ce_differential"):
        dpsi = liealg.ce_differential(triple, forms.PSI)
    with tr.span("forms.wedge"):
        forms.wedge(dphi, forms.PHI)
    with tr.span("forms.hodge"):
        forms.hodge(dphi)
    with tr.span("forms.hodge"):
        forms.hodge(dpsi)
    with tr.span("forms.theta"):
        forms.theta(triple.A, forms.PSI)


def layers_soliton(op: Op, raw, tr):
    for s, *_ in raw:
        form_layers(s.params.to_triple(), tr)


# -- torsion-general -----------------------------------------------------------


def general_triple(rng):
    """Commuting traceless triple: three polynomials in one random matrix."""
    M = rng.standard_normal((4, 4))
    M /= max(1.0, np.linalg.norm(M, 2))
    mats = []
    for _ in range(3):
        c = rng.uniform(-1.0, 1.0, size=4)
        X = c[0] * np.eye(4) + c[1] * M + c[2] * M @ M + c[3] * M @ M @ M
        mats.append(X - (np.trace(X) / 4.0) * np.eye(4))
    return M, liealg.BracketTriple(*mats)


def build_torsion(seed: int):
    rng = rng_for("torsion-general", seed)
    blocks = []
    for _ in range(TORSION_BLOCKS):
        block = []
        for _ in range(6):
            M, t = general_triple(rng)
            block.append(Op("general", (t, M)))
        a, b, c = (float(x) for x in rng.uniform(-2.0, 2.0, size=3))
        block.append(Op("closed", (g2core.closed_triple(a, b, c), (a, b, c))))
        k = float(rng.uniform(0.5, 2.0))
        block.append(Op("multiple", (g2core.closed_triple(k, k, k), (k, k, k))))
        blocks.append(block)
    return blocks


def run_torsion(op: Op, tr):
    t = op.data[0]
    s = structure(t)
    with tr.span("g2core.torsion_forms"):
        tf = g2core.torsion_forms(s)
    with tr.span("g2core.torsion_class"):
        cls = g2core.torsion_class(s)
    with tr.span("g2core.laplacians"):
        lap = g2core.laplacians(s)
    with tr.span("liealg.ricci_report"):
        rep = liealg.ricci_report(t)
    with tr.span("liealg.check_compatible"):
        comp = liealg.check_compatible(t)
    with tr.span("liealg.homothety_invariant"):
        F = liealg.homothety_invariant(t)
    erp = None
    if op.kind != "general":
        with tr.span("g2core.erp_residual"):
            erp = g2core.erp_residual(s)
    return tf, cls, lap, rep, comp, F, erp


def summarize_torsion(raw):
    tf, cls, lap, rep, comp, F, erp = raw
    return {
        "tau0": tf.tau0,
        "tau_norms": (tf.tau1.norm(), tf.tau2.norm(), tf.tau3.norm()),
        "norm_sq_tau": tf.norm_sq_tau,
        "class": tuple(sorted(cls.items())),
        "lap_phi": dict(lap["phi"].coeffs),
        "scal": rep["scal"],
        "F_report": rep["F"],
        "F": F,
        "compatible": (comp.independent, comp.simultaneously_diagonalizable,
                       comp.compatible),
        "erp": None if erp is None else (erp["residual_norm"], erp["tau_norm_sq"]),
    }


def layers_torsion(op: Op, raw, tr):
    form_layers(op.data[0], tr)


# -- flow-sweep ----------------------------------------------------------------


def build_flow(seed: int):
    """Each sweep has one start on the soliton ray f(1,1,1,-1,1,1), whose exact
    solution is known, and three uniform random starts."""
    rng = rng_for("flow-sweep", seed)
    OUT.mkdir(exist_ok=True)
    blocks = []
    for k in range(SWEEPS):
        f = float(rng.uniform(0.3, 1.5))
        starts = [tuple(f * x for x in (1.0, 1.0, 1.0, -1.0, 1.0, 1.0))]
        starts += [tuple(float(x) for x in rng.uniform(-1.5, 1.5, size=6))
                   for _ in range(3)]
        path = OUT / f"starts-{seed}-{k}.txt"
        path.write_text("".join(",".join(repr(x) for x in s) + "\n" for s in starts))
        blocks.append([Op("sweep", (path, starts, f), items=len(starts))])
    return blocks


def run_flow(op: Op, tr):
    csv = OUT / f"sweep-{os.getpid()}.csv"  # read and removed by summarize_flow
    # Global options go before the subcommand, and --workers is left at the
    # default, so the default pool is what gets measured.
    argv = ["--out", str(csv), "flow", "--sweep", str(op.data[0]),
            "--t-max", repr(SWEEP_T_MAX), "--samples", str(SWEEP_SAMPLES)]
    with tr.span("cli.run"):
        code = cli.run(argv)
    return code, csv


def summarize_flow(raw):
    code, csv = raw
    text = csv.read_text()
    csv.unlink()
    return code, text


def layers_flow(op: Op, raw, tr):
    opts = coflow.FlowOptions(samples=SWEEP_SAMPLES)
    for s in op.data[1]:
        with tr.span("coflow.integrate"):
            traj = coflow.integrate(coflow.CoclosedParams(*s), SWEEP_T_MAX, opts)
        with tr.span("coflow.invariants"):
            traj.invariants()
        with tr.span("coflow.coefficients"):
            traj.coefficients()


# -- lattices ------------------------------------------------------------------

NON_UNIT = (numberlat.QuarticPoly(1, 4, -4, -1), (0, 0, 1, 0), (2, 0, 0, 0), (0, 1, 0, 0))
NOT_TOTALLY_REAL = numberlat.QuarticPoly(1, 1, 1, 1)  # 5th cyclotomic polynomial
CONSECUTIVE = ((1, 2, 3), (-1, 1, 2), (-2, -1, 1), (-3, -2, -1))


def field_poly(a: int, b: int, c: int) -> numberlat.QuarticPoly:
    """p(t) = t (t-a)(t-b)(t-c) + 1, stored as (a0, a1, a2, a3)."""
    return numberlat.QuarticPoly(1, -a * b * c, a * b + a * c + b * c, -(a + b + c))


def field_op(a: int, b: int, c: int, kind: str) -> Op:
    """u, u-a and u-b are units of Z[u], since p(0) = p(a) = p(b) = 1; the
    lattice takes their squares."""
    p = field_poly(a, b, c)
    units = [numberlat.poly_square_mod(numberlat.UnitSpec(-k, 1, 0, 0), p)
             for k in (0, a, b)]
    return Op(kind, (p, units, (a, b, c)))


def build_lattices(seed: int):
    rng = rng_for("lattices", seed)
    blocks = []
    for k in range(LATTICE_BLOCKS):
        block = []
        for name in ("kl-2015", "kl-sqrt3"):
            ex = numberlat.BUILTIN_EXAMPLES[name]
            block.append(Op("builtin", (ex["poly"], ex["units"], name)))
        p, *units = NON_UNIT
        block.append(Op("non-unit", (p, [numberlat.UnitSpec(*u) for u in units], None)))
        block.append(Op("not-totally-real",
                        (NOT_TOTALLY_REAL, [numberlat.UnitSpec(0, 1, 0, 0)] * 3, None)))
        block.append(field_op(*CONSECUTIVE[k % len(CONSECUTIVE)], "square"))
        while len(block) < 32:
            a, b, c = (int(x) for x in rng.choice(np.arange(-15, 16), 3, replace=False))
            if 0 not in (a, b, c):
                block.append(field_op(a, b, c, "field"))
        blocks.append(block)
    return blocks


def run_lattice(op: Op, tr):
    with tr.span("numberlat.certify_lattice"):
        return numberlat.certify_lattice(op.data[0], op.data[1])


def summarize_lattice(cert):
    return (cert.verdict, cert.reason,
            tuple(tuple(tuple(r) for r in X) for X in cert.matrices),
            tuple(sorted((k, v) for k, v in cert.checks.items()
                         if isinstance(v, bool))))


def layers_lattice(op: Op, cert, tr):
    if not cert.verdict:
        return
    p, units = op.data[0], op.data[1]
    with tr.span("numberlat.roots"):
        numberlat.roots(p)
    with tr.span("numberlat.is_irreducible"):
        numberlat.is_irreducible(p)
    for q in units:
        with tr.span("numberlat.unit_matrix"):
            numberlat.unit_matrix(p, q)
    with tr.span("numberlat.mult_independence"):
        numberlat.mult_independence(p, units)


# -- registry --------------------------------------------------------------------


def cold_argv(name: str, blocks) -> list[str]:
    """Arguments of the `python -m g2solv` cold start for this workload.

    Values that may start with '-' are passed as --opt=value, and matrices as
    @file, since argparse takes a separate '-0.5,...' for an option name.
    """
    first = blocks[0][0]
    if name == "solitons":
        return ["soliton", "--base=" + ",".join(repr(x) for x in first.data),
                "--modified-m", "1"]
    if name == "torsion-general":
        paths = []
        for k, M in enumerate(first.data[0].matrices()):
            paths.append(OUT / f"cold-matrix-{k}.txt")
            paths[-1].write_text(";".join(",".join(repr(float(x)) for x in row) for row in M))
        return ["torsion", "--triple", *(f"@{p}" for p in paths)]
    if name == "flow-sweep":
        return ["flow", "--init=" + ",".join(repr(x) for x in first.data[1][1]),
                "--t-max", repr(SWEEP_T_MAX), "--samples", str(SWEEP_SAMPLES)]
    return ["verify-lattice", "--example", "kl-2015"]


BUILD = {"solitons": build_solitons, "torsion-general": build_torsion,
         "flow-sweep": build_flow, "lattices": build_lattices}
RUN = {"solitons": run_soliton, "torsion-general": run_torsion,
       "flow-sweep": run_flow, "lattices": run_lattice}
SUMMARIZE = {"solitons": summarize_soliton, "torsion-general": summarize_torsion,
             "flow-sweep": summarize_flow, "lattices": summarize_lattice}
LAYERS = {"solitons": layers_soliton, "torsion-general": layers_torsion,
          "flow-sweep": layers_flow, "lattices": layers_lattice}
