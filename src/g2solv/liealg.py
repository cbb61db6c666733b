"""Solvable Lie algebras a x| R^4 determined by a commuting matrix triple.

The algebra has orthonormal basis e_1..e_7 with abelian factor
a = span(e_7, e_1, e_2) acting on the abelian ideal n = span(e_3..e_6) by

    ad e_7 |_n = A,    ad e_1 |_n = B,    ad e_2 |_n = C.

The Jacobi identity is exactly pairwise commutation of A, B, C.  Everything
downstream (differentials, curvature) is phrased against the covector dual:
n-covectors f^1..f^4 correspond to e^3..e^6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from itertools import product

import numpy as np

from .config import TOL
from .forms import BASIS, DIM, KForm, _covector_wedge, zero_form

# presentation permutation: internal order (e1..e7) -> display order (e7,e1,e2,e3..e6)
_DISPLAY = [6, 0, 1, 2, 3, 4, 5]
# a-block order (e7, e1, e2), the covectors paired with A, B, C -> internal slots
_A_SLOTS = np.array([6, 0, 1])
# width of an eigenvalue cluster in `_real_diagonalizable`, relative to |M|:
# rounding splits a defective double eigenvalue by about sqrt(eps) |M| times
# a factor that grows with the conditioning of its Jordan basis (1e-7 is not
# rare), and a real split wider than the cluster would pass a Jordan block as
# diagonalizable
_EIG_CLUSTER = 1e-6


@dataclass(frozen=True)
class BracketTriple:
    """Commuting traceless triple (A, B, C) of finite real 4x4 matrices.

    The triple is immutable: A, B and C are read-only views of one (3, 4, 4)
    copy of the input, and `entries` is its flattened 48-vector, the
    coordinates the Chevalley-Eilenberg differential is linear in.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    entries: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("A", "B", "C"):
            if np.shape(getattr(self, name)) != (4, 4):
                raise ValueError(f"{name} must be 4x4")
        mats = np.array([self.A, self.B, self.C], dtype=float)
        mats.flags.writeable = False
        # NaN or inf entries would pass the comparisons below (inf against inf
        # or NaN compares false)
        if not np.isfinite(mats).all():
            raise ValueError("entries must be finite")
        scale = max(1.0, np.abs(mats).max())
        if (np.abs(mats.trace(axis1=1, axis2=2)) > TOL.bracket * scale).any():
            raise ValueError("matrices must be traceless (unimodular algebra)")
        # diagonal matrices commute exactly in floating point: M_i M_j and
        # M_j M_i have the same rounded diagonal and exact zeros off it, so
        # the commutator check could only pass them
        if np.count_nonzero(mats) > np.count_nonzero(mats.diagonal(axis1=1, axis2=2)):
            # products of entries of 1e154 or more overflow, and inf - inf is
            # NaN, which no comparison rejects: above 1 the products are taken
            # on the stack divided by an exact power of two, which scales
            # them and the bound alike, and a NaN fails `<=`
            unit = mats
            if scale > 1.0:
                exp = math.frexp(scale)[1]
                unit, scale = np.ldexp(mats, -exp), math.ldexp(scale, -exp)
            products = unit[:, None] @ unit  # products[i, j] = M_i M_j
            if not np.abs(products - products.swapaxes(0, 1)).max() <= TOL.bracket * scale * scale:
                raise ValueError("matrices must commute (Jacobi identity)")
        for name, M in zip(("A", "B", "C"), mats):
            object.__setattr__(self, name, M)
        object.__setattr__(self, "entries", mats.reshape(-1))

    def matrices(self):
        return (self.A, self.B, self.C)


@dataclass
class CompatibilityReport:
    independent: bool
    simultaneously_diagonalizable: bool
    compatible: bool
    reason: str


@cache
def _d_table(k: int):
    """(out, src, entry, sign) for d on k-forms, 0 <= k < 7: entry `entry` of
    the flattened (A, B, C) sends basis k-form `src` to `sign` times basis
    (k+1)-form `out`.

    With M_a the a-th matrix, acting on e^3..e^6 by zero-based rows and
    columns, and e^v its covector (e^7, e^1, e^2, at the zero-based slots
    `_A_SLOTS` of `_covector_wedge`), entry (a, i, j) contributes
    the term -M_a[i, j] e^v ^ e^{j+3} ^ i(e_{i+3}) of d.  With E_v = e^v ^ (.)
    that is the block -E_v E_{j+3} E_{i+3}^T, a signed partial permutation,
    so every sign is +-1.
    """
    rows = []
    if k > 0:
        n_lo, n_mid = len(BASIS[k - 1]), len(BASIS[k])
        lower, upper = _covector_wedge(k - 1), _covector_wedge(k)
        for entry, (v, i, j) in enumerate(product(_A_SLOTS, range(4), range(4))):
            E_v = upper[:, v * n_mid:(v + 1) * n_mid]
            E_j = lower[:, (j + 2) * n_lo:(j + 3) * n_lo]
            E_i = lower[:, (i + 2) * n_lo:(i + 3) * n_lo]
            block = -(E_v @ E_j @ E_i.T)
            out, src = np.nonzero(block)
            rows.extend(zip(out, src, [entry] * len(out), block[out, src]))
    out, src, entry, sign = np.array(rows, dtype=np.int64).reshape(-1, 4).T
    return out, src, entry, sign.astype(float)


def ce_differential(t: BracketTriple, alpha: KForm) -> KForm:
    """Chevalley-Eilenberg exterior derivative of a left-invariant form,

        d = e^7 ^ theta(A) + e^1 ^ theta(B) + e^2 ^ theta(C).

    Each term is an antiderivation that kills e^1, e^2, e^7 and sends an
    n-covector f^k (dual to e_{k+2}) to its share of the rule de(x, y) =
    -e([x, y]):  df^k = -sum_j (A[k,j] e^7 + B[k,j] e^1 + C[k,j] e^2) ^ f^j.
    d is linear in the 48 entries of (A, B, C), so it is evaluated from the
    signed index table `_d_table`.
    """
    k = alpha.degree
    if k >= DIM:
        return zero_form(DIM)
    out, src, entry, sign = _d_table(k)
    terms = sign * alpha.vec[src] * t.entries[entry]
    return KForm._of(k + 1, np.bincount(out, terms, minlength=len(BASIS[k + 1])))


def _real_diagonalizable(M: np.ndarray) -> bool:
    """Whether M is diagonalizable over the reals: its eigenvalues are real
    (to `TOL.eig_imag`), and each cluster of eigenvalues within
    `_EIG_CLUSTER` |M| of its least one, lam, has an eigenspace of its size,
    counted as the singular values of M - lam I within `_EIG_CLUSTER` of
    zero relative to the largest.

    Two cases are decided without that count.  A matrix with no nonzero
    entry off its diagonal is diagonal, so no eigenvalue is computed.  A
    cluster of one eigenvalue needs an eigenspace of dimension 1, and every
    eigenvalue has one: LAPACK's QR algorithm is backward stable (Golub &
    Van Loan, Matrix Computations, 4th ed., Sec. 7.5), so a computed real
    eigenvalue lam is exact for some M + E with |E| about eps |M|, and the
    least singular value of M - lam I is at most |E|, far inside the cut.
    (The two members of a complex pair share their real part, so they never
    form two clusters of one.)  Only clusters of two or more get the SVD.
    """
    if np.count_nonzero(M) == np.count_nonzero(M.diagonal()):
        return True
    vals = np.linalg.eigvals(M)
    if np.abs(vals.imag).max(initial=0.0) > TOL.eig_imag * max(1.0, np.abs(vals).max()):
        return False
    vals = np.sort(vals.real)
    width = _EIG_CLUSTER * max(1.0, np.linalg.norm(M))
    i = 0
    while i < len(vals):
        j = i
        while j + 1 < len(vals) and vals[j + 1] - vals[i] <= width:
            j += 1
        if j > i:
            s = np.linalg.svd(M - vals[i] * np.eye(len(M)), compute_uv=False)
            if (s <= _EIG_CLUSTER * max(1.0, s[0])).sum() < j + 1 - i:
                return False
        i = j + 1
    return True


def check_compatible(t: BracketTriple) -> CompatibilityReport:
    """Linear independence plus simultaneous real diagonalizability.

    Independence is decided on the matrices each divided by its largest
    entry, so it does not depend on their relative scales.

    Commuting matrices that are each diagonalizable over the reals are
    simultaneously so (Horn & Johnson, Matrix Analysis, 2nd ed., Thm
    1.3.21), and `BracketTriple` guarantees that A, B and C commute; so the
    triple is decided one matrix at a time, without building a joint
    eigenbasis.
    """
    stack = t.entries.reshape(3, -1)
    scale = np.abs(stack).max(axis=1, keepdims=True)
    independent = bool(scale.all())  # a zero matrix makes the triple dependent
    if independent:
        s = np.linalg.svd(stack / scale, compute_uv=False)
        independent = bool(s.min() > TOL.rank_rel * s.max())
    diagonalizable = all(map(_real_diagonalizable, t.matrices()))

    if not independent:
        reason = "triple is linearly dependent"
    elif not diagonalizable:
        reason = "triple is not simultaneously real-diagonalizable"
    else:
        reason = "compatible"
    return CompatibilityReport(
        independent=independent,
        simultaneously_diagonalizable=diagonalizable,
        compatible=independent and diagonalizable,
        reason=reason,
    )


def _ricci(mats: np.ndarray) -> np.ndarray:
    """Ricci operators of triples stacked as (..., 3, 4, 4), shape (..., 7, 7),
    in the internal basis (e_1..e_7).

    The a-block (slots e_7, e_1, e_2) is -[tr S(X)S(Y)] for X, Y running over
    (A, B, C) with S the symmetrization; the n-block is
    (1/2)([A,A^T] + [B,B^T] + [C,C^T]); the two blocks never mix.
    """
    sym = 0.5 * (mats + np.swapaxes(mats, -1, -2))
    ric = np.zeros(mats.shape[:-3] + (DIM, DIM))
    ric[..., _A_SLOTS[:, None], _A_SLOTS] = -np.einsum("...iab,...jba->...ij", sym, sym)
    ric[..., 2:6, 2:6] = 0.5 * (mats @ np.swapaxes(mats, -1, -2)
                                - np.swapaxes(mats, -1, -2) @ mats).sum(axis=-3)
    return ric


def _unit_ricci(mats: np.ndarray):
    """Ricci operators of triples stacked as (..., 3, 4, 4), each triple first
    divided by its largest entry, and those divisors, shape (..., 1, 1, 1)
    (1 for a zero triple)."""
    scale = np.abs(mats).max(axis=(-3, -2, -1), keepdims=True, initial=0.0)
    scale[scale == 0.0] = 1.0
    return _ricci(mats / scale), scale


def _curvature_scalars(ric: np.ndarray):
    """scal, tr(Ric^2) and F = scal^2 / tr(Ric^2) of Ricci operators
    (..., 7, 7) at unit scale; F is NaN where flat, that is where tr(Ric^2)
    is not above `TOL.zero_form`^2."""
    scal = np.trace(ric, axis1=-2, axis2=-1)
    ric_sq = np.einsum("...ij,...ji->...", ric, ric)
    with np.errstate(invalid="ignore", divide="ignore"):
        return scal, ric_sq, np.where(ric_sq > TOL.zero_form ** 2, scal ** 2 / ric_sq, np.nan)


def homothety_invariants(mats: np.ndarray) -> np.ndarray:
    """scal^2 / tr(Ric^2) for triples stacked as (..., 3, 4, 4); NaN where flat.

    Each triple is first divided by its largest entry, so flatness is judged
    at unit scale: the zero triple and triples with vanishing Ricci curvature
    (commuting skew-symmetric matrices, say) give NaN, while any nonzero
    multiple of a non-flat triple gets the same value as the triple itself.
    """
    return _curvature_scalars(_unit_ricci(np.asarray(mats, dtype=float))[0])[2]


def homothety_invariant(t: BracketTriple) -> float:
    """scal^2 / tr(Ric^2), invariant under rescaling of the metric: the
    one-triple case of `homothety_invariants`, raising on a flat metric."""
    F = float(homothety_invariants(t.entries.reshape(3, 4, 4)))
    if np.isnan(F):
        raise ValueError("homothety invariant undefined on a flat metric")
    return F


def solvsoliton_check(t: BracketTriple) -> dict:
    """Test the algebraic Ricci-soliton condition for this split class:
    A, B, C normal and the a-block of Ric a multiple of the identity."""
    A, B, C = t.matrices()
    if all(np.abs(M).max() == 0.0 for M in (A, B, C)):
        return {"is_solvsoliton": False, "lam": None, "flat": True}
    scale = max(1.0, *(np.abs(M).max() for M in (A, B, C)))
    normal = all(
        np.abs(M @ M.T - M.T @ M).max() <= TOL.solvsoliton * scale * scale
        for M in (A, B, C)
    )
    ric = _ricci(t.entries.reshape(3, 4, 4))
    block = ric[np.ix_(_A_SLOTS, _A_SLOTS)]
    c = float(np.trace(block)) / 3.0
    isotropic = np.abs(block - c * np.eye(3)).max() <= TOL.solvsoliton * max(1.0, abs(c))
    ok = bool(normal and isotropic)
    return {"is_solvsoliton": ok, "lam": c if ok else None, "flat": False}


def to_display_order(M: np.ndarray) -> np.ndarray:
    """Permute a 7x7 matrix from internal (e1..e7) to (e7,e1,e2,e3..e6) order."""
    M = np.asarray(M)
    return M[np.ix_(_DISPLAY, _DISPLAY)]


def ricci_report(t: BracketTriple) -> dict:
    """JSON-ready curvature summary in display basis order.

    One Ricci pass at unit scale, as in `homothety_invariants`, gives F;
    the operator, scal and tr(Ric^2) are then scaled back by powers of the
    largest entry."""
    unit, scale = _unit_ricci(t.entries.reshape(3, 4, 4))
    scal, ric_sq, F = _curvature_scalars(unit)
    sq = scale[0, 0, 0] ** 2
    return {
        "ricci": to_display_order(unit * sq).tolist(),
        "scal": float(scal * sq),
        "trace_ric_sq": float(ric_sq * sq * sq),
        "F": None if np.isnan(F) else float(F),
    }
