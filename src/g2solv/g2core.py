"""Torsion of the model G2-structure on the solvable algebras.

The positive 3-form is the fixed

    phi = e^127 + e^347 + e^567 + e^135 - e^146 - e^236 - e^245,

with dual 4-form psi = *phi, and the metric is the one making e_1..e_7
orthonormal.  Structure-dependence enters purely through the exterior
derivative of the algebra, so every quantity here is finite linear algebra
on the coefficient vectors of forms.

Torsion components are normalized by

    tau0 = (1/7) * (dphi ^ phi)
    tau1 = -(1/12) * (*dphi ^ phi)
    tau2 = -*dpsi + 4 * (tau1 ^ psi)
    tau3 = *dphi - tau0 phi - 3 * (tau1 ^ phi)

so that dphi = tau0 psi + 3 tau1 ^ phi + *tau3 and
dpsi = 4 tau1 ^ psi + tau2 ^ phi.

Every verdict is decided at the unit entries `BracketTriple.unit`, and
every magnitude is scaled back from there (`forms._scaled`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tables
from .config import TOL
from .forms import KForm, _norm, _scaled, hodge
from .liealg import BracketTriple


@dataclass
class TorsionForms:
    tau0: float
    tau1: KForm
    tau2: KForm
    tau3: KForm
    tau_two_form: KForm  # -*d*phi, the full torsion 2-form when dphi = 0
    norm_sq_tau: float
    closed: bool  # dphi = 0
    torsion_class: dict  # W1..W4: whether tau0, tau2, tau3, tau1 are nonzero


def _parts(v: np.ndarray) -> list:
    """Coefficient vectors of the `tables._torsion_parts` (tau0 one entry
    long) in a product v of `tables._torsion_map`, here always with t.unit."""
    return [v[rows] for rows in tables._PART_ROWS]


def _class_flags(tau0: float, tau1: np.ndarray, tau2: np.ndarray, tau3: np.ndarray) -> dict:
    """W1..W4: whether tau0, tau2, tau3, tau1 are nonzero, by norm against
    `TOL.zero_form`, from the unit triple's coefficient vectors (`_parts`)."""
    return {
        "W1": abs(tau0) > TOL.zero_form,
        "W2": _norm(tau2) > TOL.zero_form,
        "W3": _norm(tau3) > TOL.zero_form,
        "W4": _norm(tau1) > TOL.zero_form,
    }


def torsion_forms(t: BracketTriple) -> TorsionForms:
    """Torsion parts, |tau|^2 and class flags of t, all read off v, the
    triple's product of `tables._torsion_map` with its unit entries: the
    flags and `closed` on v, the parts (degree 1) and |tau|^2 (degree 2)
    scaled back."""
    v = t._unit_torsion
    tau0, tau1, tau2, tau3, dphi, tau = _parts(v)
    full = _scaled(v, t.exponent)
    return TorsionForms(
        tau0=float(full[0]),
        tau1=KForm._of(1, full[tables._PART_ROWS[1]]),
        tau2=KForm._of(2, full[tables._PART_ROWS[2]]),
        tau3=KForm._of(3, full[tables._PART_ROWS[3]]),
        tau_two_form=KForm._of(2, full[tables._PART_ROWS[5]]),
        norm_sq_tau=_scaled(float(tau.dot(tau)), 2 * t.exponent),
        closed=_norm(dphi) <= TOL.zero_form,
        torsion_class=_class_flags(float(tau0[0]), tau1, tau2, tau3),
    )


def torsion_class(t: BracketTriple) -> dict:
    """Flags for the four torsion components, by norm against `TOL.zero_form`
    at unit scale: the class flags of `torsion_forms`, without its forms."""
    tau0, tau1, tau2, tau3, *_ = _parts(t._unit_torsion)
    return _class_flags(float(tau0[0]), tau1, tau2, tau3)


def laplacians(t: BracketTriple) -> dict:
    """Hodge Laplacians of psi and phi: lap_psi = d*dphi - *d*dpsi from the
    triple's shared `_unit_lap_psi`, scaled back (degree 2), and
    lap_phi = *lap_psi."""
    lap_psi = KForm._of(4, _scaled(t._unit_lap_psi, 2 * t.exponent))
    return {"phi": hodge(lap_psi), "psi": lap_psi}


def _unit_modified(t: BracketTriple, m: float):
    """(v, k) with 2^k v the modified coflow's velocity lap psi +
    2 d((m - tr T) phi) = lap psi + 2 (m - (7/4) tau0) dphi, from the
    triple's shared unit lap psi and torsion rows.  With e = t.exponent and
    m - tr T = 2^h mu, h the larger of e and the exponent of m, it is
    2^(e + h) (2^(e - h) lap + 2 mu dphi) with lap and dphi at unit scale,
    whose larger term is of order 1 however m and the entries compare."""
    e = t.exponent
    h = max(e, math.frexp(m)[1])
    v = t._unit_torsion
    tau0, dphi = float(v[0]), v[tables._PART_ROWS[4]]
    mu = math.ldexp(m, -h) - 1.75 * math.ldexp(tau0, e - h)
    return _scaled(t._unit_lap_psi, e - h) + 2.0 * mu * dphi, e + h


def erp_residual(t: BracketTriple) -> dict:
    """Residual of the extremal pinching identity for a closed structure:

        d tau = (1/6)|tau|^2 phi + (1/6) * (tau ^ tau),   tau = -*d*phi.

    Raises when dphi != 0, since tau is only the full torsion there.  The
    residual and |tau|^2 are taken at unit scale; `relative_residual` is
    their quotient, 0 where tau counts as zero (`TOL.zero_form`).
    """
    *_, dphi, tau = _parts(t._unit_torsion)
    if _norm(dphi) > TOL.zero_form:
        raise ValueError("extremal pinching residual needs a closed structure")
    nsq = float(tau.dot(tau))
    r = _norm(t._quadratic(tables._erp_table))
    return {"residual_norm": _scaled(r, 2 * t.exponent),
            "tau_norm_sq": _scaled(nsq, 2 * t.exponent),
            "relative_residual": r / nsq if nsq > TOL.zero_form ** 2 else 0.0}


# diagonals of D1, D2, D3 in `closed_triple`
_CLOSED_SIGNS = np.array([[1.0, 1.0, -1.0, -1.0],
                          [1.0, -1.0, 1.0, -1.0],
                          [1.0, -1.0, -1.0, 1.0]])


def closed_triple(a: float, b: float, c: float) -> BracketTriple:
    """The diagonal triples with dphi = 0: (a D1, b D2, c D3) for the three
    traceless sign patterns pairing off the coefficient constraints.

    Built with `BracketTriple.from_diagonals`, so it raises ValueError for a
    non-finite coefficient; the traces are tested without overflow, so any
    finite a, b, c give a triple."""
    return BracketTriple.from_diagonals(np.array([[a], [b], [c]], dtype=float) * _CLOSED_SIGNS)
