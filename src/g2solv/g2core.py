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

dphi, dpsi and so every torsion part are linear in the 48 entries of
(A, B, C), and the Laplacians are quadratic in them.  Each is read off one
table built on first use: `_torsion_map`, the formulas above applied once
per entry, and `_laplacian_table`, whose coefficients are all +-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .config import TOL
from .forms import BASIS, PHI, PSI, KForm, _hodge_table, hodge, inner, wedge
from .liealg import BracketTriple, _d_table, ce_differential

# dphi, the Laplacians, the ERP residual and tr(Ric^2) are at most quadratic
# in the entries of (A, B, C), and their norms square them again, so the
# reports reach fourth powers of the entries; entries below this bound leave
# those a margin of 2^64 below the float range
MAX_ENTRY = 2.0 ** 240

_ENTRIES = 48  # entries of (A, B, C), the length of `BracketTriple.entries`


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


def _torsion_parts(dphi: KForm, dpsi: KForm) -> tuple:
    """(tau0, tau1, tau2, tau3, dphi, tau) from dphi and dpsi, tau = -*dpsi."""
    tau0 = hodge(wedge(dphi, PHI)).scalar() / 7.0
    tau1 = hodge(wedge(hodge(dphi), PHI)) * (-1.0 / 12.0)
    tau2 = -hodge(dpsi) + 4.0 * hodge(wedge(tau1, PSI))
    tau3 = hodge(dphi) - tau0 * PHI - 3.0 * hodge(wedge(tau1, PHI))
    tau = -hodge(dpsi)  # -*d*phi, as psi = *phi
    return tau0, tau1, tau2, tau3, dphi, tau


# degrees of the parts of `_torsion_parts`, and the rows of `_torsion_map`
# that hold each
_PART_DEGREES = (0, 1, 2, 3, 4, 2)
_PART_ENDS = np.cumsum([len(BASIS[k]) for k in _PART_DEGREES]).tolist()
_PART_ROWS = [slice(a, b) for a, b in zip([0, *_PART_ENDS], _PART_ENDS)]


def _linear_d(alpha: KForm) -> np.ndarray:
    """The matrix L with d alpha = L @ t.entries, from `_d_table`."""
    out, src, entry, sign = _d_table(alpha.degree)
    L = np.zeros((len(BASIS[alpha.degree + 1]), _ENTRIES))
    np.add.at(L, (out, entry), sign * alpha.vec[src])
    return L


@cache
def _torsion_map() -> np.ndarray:
    """(120, 48) matrix taking t.entries to the parts of `_torsion_parts`,
    concatenated (tau0 a single row).

    Every part is linear in (dphi, dpsi), which are linear in the entries,
    so column j is `_torsion_parts` applied once to d(phi) and d(psi) of the
    j-th unit entry.
    """
    Lphi, Lpsi = _linear_d(PHI), _linear_d(PSI)
    cols = []
    for j in range(Lphi.shape[1]):
        parts = _torsion_parts(KForm._of(4, Lphi[:, j]), KForm._of(5, Lpsi[:, j]))
        cols.append(np.concatenate([[parts[0]], *(x.vec for x in parts[1:])]))
    return np.column_stack(cols)


def _mapped_parts(t: BracketTriple) -> list:
    """Coefficient vectors of the `_torsion_parts` of t (tau0 one entry
    long): slices of one product with `_torsion_map`."""
    v = _torsion_map() @ t.entries
    return [v[rows] for rows in _PART_ROWS]


def _norm(x: np.ndarray) -> float:
    """`KForm.norm` of the form with coefficients x, bit for bit."""
    return math.sqrt(x @ x)


def _class_flags(tau0: float, tau1: np.ndarray, tau2: np.ndarray, tau3: np.ndarray) -> dict:
    """W1..W4: whether tau0, tau2, tau3, tau1 are nonzero, by norm against
    `TOL.zero_form`, from the coefficient vectors of `_mapped_parts`."""
    return {
        "W1": abs(tau0) > TOL.zero_form,
        "W2": _norm(tau2) > TOL.zero_form,
        "W3": _norm(tau3) > TOL.zero_form,
        "W4": _norm(tau1) > TOL.zero_form,
    }


def torsion_forms(t: BracketTriple) -> TorsionForms:
    """Torsion parts, |tau|^2 and class flags of t, every one read off the
    vector of one product with `_torsion_map`."""
    tau0, tau1, tau2, tau3, dphi, tau = _mapped_parts(t)
    tau0 = float(tau0[0])
    return TorsionForms(
        tau0=tau0,
        tau1=KForm._of(1, tau1),
        tau2=KForm._of(2, tau2),
        tau3=KForm._of(3, tau3),
        tau_two_form=KForm._of(2, tau),
        norm_sq_tau=float(tau @ tau),
        closed=_norm(dphi) <= TOL.zero_form,
        torsion_class=_class_flags(tau0, tau1, tau2, tau3),
    )


def torsion_class(t: BracketTriple) -> dict:
    """Flags for the four torsion components, by norm against `TOL.zero_form`:
    the class flags of `torsion_forms`, read off the one mapped vector
    without building its forms."""
    tau0, tau1, tau2, tau3, *_ = _mapped_parts(t)
    return _class_flags(float(tau0[0]), tau1, tau2, tau3)


def _linear_hodge(L: np.ndarray, k: int) -> np.ndarray:
    """*(L @ e) = _linear_hodge(L, k) @ e for a k-form L @ e."""
    src, sign = _hodge_table(k)
    return sign[:, None] * L[src]


def _d_of_linear(L: np.ndarray, k: int):
    """d of the k-form L @ e as terms (out, i, j, coef) of sum coef e_i e_j."""
    out, src, entry, sign = _d_table(k)
    row, i = np.nonzero((L != 0)[src])
    return out[row], i, entry[row], sign[row] * L[src[row], i]


@cache
def _laplacian_table():
    """(out, i, j, coef) with lap psi = sum coef e_i e_j over i <= j, each
    term adding to the 4-form coefficient `out`; e = t.entries.

    lap psi = d*dphi - *d*dpsi is quadratic in e, and composing the +-1
    tables of d and the Hodge star leaves every coefficient +-1.
    """
    first = _d_of_linear(_linear_hodge(_linear_d(PHI), 4), 3)
    out, i, j, coef = _d_of_linear(_linear_hodge(_linear_d(PSI), 5), 2)
    # as ** = 1, * sends the 3-form n to sign[n] times the 4-form src[n]
    src, sign = _hodge_table(4)
    second = (src[out], i, j, -sign[out] * coef)
    out, i, j, coef = map(np.concatenate, zip(first, second))
    # sum the terms of each (out, i <= j) in a dict: sorting for it (argsort,
    # np.unique) would add the pages of numpy's sort code to every process
    acc = {}
    keys = (out * _ENTRIES + np.minimum(i, j)) * _ENTRIES + np.maximum(i, j)
    for key, c in zip(keys.tolist(), coef.tolist()):
        acc[key] = acc.get(key, 0.0) + c
    keys = np.array([key for key, c in acc.items() if c != 0.0])
    out, ij = np.divmod(keys, _ENTRIES * _ENTRIES)
    return (out, *np.divmod(ij, _ENTRIES),
            np.array([c for c in acc.values() if c != 0.0]))


def _lap_psi(t: BracketTriple) -> KForm:
    out, i, j, coef = _laplacian_table()
    e = t.entries
    return KForm._of(4, np.bincount(out, coef * e[i] * e[j], minlength=len(BASIS[4])))


def laplacians(t: BracketTriple) -> dict:
    """Hodge Laplacians of psi and phi: lap_psi = d*dphi - *d*dpsi, read
    off the quadratic table `_laplacian_table`, and lap_phi = *lap_psi."""
    lap_psi = _lap_psi(t)
    return {"phi": hodge(lap_psi), "psi": lap_psi}


def modified_laplacian_psi(t: BracketTriple, m: float, lap_psi: KForm) -> KForm:
    """Velocity of the modified coflow, lap psi + 2 d((m - tr T) phi), given
    lap psi of t (`laplacians(t)["psi"]`).

    On a left-invariant structure m - tr T is constant, so the second term
    is 2 (m - tr T) dphi, with tr T = (7/4) tau0; tau0 and dphi are rows of
    the one product with `_torsion_map`."""
    tau0, *_, dphi, _ = _mapped_parts(t)
    return lap_psi + 2.0 * (m - 1.75 * float(tau0[0])) * KForm._of(4, dphi)


def erp_residual(t: BracketTriple) -> dict:
    """Residual of the extremal pinching identity for a closed structure:

        d tau = (1/6)|tau|^2 phi + (1/6) * (tau ^ tau),   tau = -*d*phi.

    Raises when dphi != 0, since tau is only the full torsion there.
    """
    *_, dphi, tau = _mapped_parts(t)
    if _norm(dphi) > TOL.zero_form:
        raise ValueError("extremal pinching residual needs a closed structure")
    tau = KForm._of(2, tau)
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
