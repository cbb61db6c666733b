"""Torsion of the model G2-structure on the solvable algebras.

The positive 3-form is the fixed

    phi = e^127 + e^347 + e^567 + e^135 - e^146 - e^236 - e^245,

with dual 4-form psi = *phi, and the metric is the one making e_1..e_7
orthonormal.  Structure-dependence enters purely through the exterior
derivative of the algebra, so every quantity here is a finite combinatorial
computation on sparse forms.

Torsion components are normalized by

    tau0 = (1/7) * (dphi ^ phi)
    tau1 = -(1/12) * (*dphi ^ phi)
    tau2 = -*dpsi + 4 * (tau1 ^ psi)
    tau3 = *dphi - tau0 phi - 3 * (tau1 ^ phi)

so that dphi = tau0 psi + 3 tau1 ^ phi + *tau3 and
dpsi = 4 tau1 ^ psi + tau2 ^ phi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TOL
from .forms import PHI, PSI, KForm, hodge, inner, wedge
from .liealg import BracketTriple, ce_differential, homothety_invariant


@dataclass
class TorsionForms:
    tau0: float
    tau1: KForm
    tau2: KForm
    tau3: KForm
    tau_two_form: KForm  # -*d*phi, the full torsion 2-form when dphi = 0
    norm_sq_tau: float


def _tau0(dphi: KForm) -> float:
    return hodge(wedge(dphi, PHI)).scalar() / 7.0


def _lap_phi(t: BracketTriple, dphi: KForm, dpsi: KForm) -> KForm:
    """lap phi = *d*dphi - d*dpsi; d has no codifferential shortcut here."""
    return hodge(ce_differential(t, hodge(dphi))) - ce_differential(t, hodge(dpsi))


def torsion_forms(t: BracketTriple) -> TorsionForms:
    dphi = ce_differential(t, PHI)
    dpsi = ce_differential(t, PSI)
    tau0 = _tau0(dphi)
    tau1 = hodge(wedge(hodge(dphi), PHI)) * (-1.0 / 12.0)
    tau2 = -hodge(dpsi) + 4.0 * hodge(wedge(tau1, PSI))
    tau3 = hodge(dphi) - tau0 * PHI - 3.0 * hodge(wedge(tau1, PHI))
    tau = -hodge(dpsi)  # -*d*phi, as psi = *phi
    return TorsionForms(
        tau0=tau0,
        tau1=tau1,
        tau2=tau2,
        tau3=tau3,
        tau_two_form=tau,
        norm_sq_tau=inner(tau, tau),
    )


def torsion_class(t: BracketTriple, tol: float | None = None) -> dict:
    """Flags for the four torsion components, by norm against `tol`."""
    cut = TOL.zero_form if tol is None else tol
    tf = torsion_forms(t)
    return {
        "W1": abs(tf.tau0) > cut,
        "W2": tf.tau2.norm() > cut,
        "W3": tf.tau3.norm() > cut,
        "W4": tf.tau1.norm() > cut,
    }


def trace_torsion(t: BracketTriple) -> float:
    """Trace of the full torsion endomorphism, (7/4) tau0."""
    return 1.75 * _tau0(ce_differential(t, PHI))


def laplacians(t: BracketTriple) -> dict:
    """Hodge Laplacians of phi and psi: lap_phi = *d*dphi - d*dpsi and
    lap_psi = *lap_phi."""
    lap_phi = _lap_phi(t, ce_differential(t, PHI), ce_differential(t, PSI))
    return {"phi": lap_phi, "psi": hodge(lap_phi)}


def modified_laplacian_psi(t: BracketTriple, m: float) -> KForm:
    """Velocity of the modified coflow, lap psi + 2 d((m - tr T) phi).

    On a left-invariant structure m - tr T is constant, so the second term
    is 2 (m - tr T) dphi."""
    dphi = ce_differential(t, PHI)
    lap_psi = hodge(_lap_phi(t, dphi, ce_differential(t, PSI)))
    return lap_psi + 2.0 * (m - 1.75 * _tau0(dphi)) * dphi


def erp_residual(t: BracketTriple) -> dict:
    """Residual of the extremal pinching identity for a closed structure:

        d tau = (1/6)|tau|^2 phi + (1/6) * (tau ^ tau),   tau = -*d*phi.

    Raises when dphi != 0, since tau is only the full torsion there.
    """
    if not ce_differential(t, PHI).is_zero():
        raise ValueError("extremal pinching residual needs a closed structure")
    tau = -hodge(ce_differential(t, PSI))
    nsq = inner(tau, tau)
    res = ce_differential(t, tau) - (nsq / 6.0) * PHI - hodge(wedge(tau, tau)) / 6.0
    return {"residual_norm": res.norm(), "tau_norm_sq": nsq}


_D1 = np.diag([1.0, 1.0, -1.0, -1.0])
_D2 = np.diag([1.0, -1.0, 1.0, -1.0])
_D3 = np.diag([1.0, -1.0, -1.0, 1.0])


def closed_triple(a: float, b: float, c: float) -> BracketTriple:
    """The diagonal triples with dphi = 0: (a D1, b D2, c D3) for the three
    traceless sign patterns pairing off the coefficient constraints."""
    return BracketTriple(a * _D1, b * _D2, c * _D3)


def closed_family_invariant(a: float, b: float, c: float) -> float:
    """Homothety invariant along the closed diagonal family."""
    return homothety_invariant(closed_triple(a, b, c))
