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
from functools import cached_property

import numpy as np

from . import tables
from .config import TOL
from .forms import BASIS, DIM, KForm, _scaled, _to_unit, zero_form

# width of an eigenvalue cluster in `_real_diagonalizable`, relative to |M|:
# rounding splits a defective double eigenvalue by about sqrt(eps) |M| times
# a factor that grows with the conditioning of its Jordan basis (1e-7 is not
# rare), and a real split wider than the cluster would pass a Jordan block as
# diagonalizable
_EIG_CLUSTER = 1e-6


@dataclass(frozen=True)
class BracketTriple:
    """Commuting traceless triple (A, B, C) of finite real 4x4 matrices.

    The triple is immutable: A, B and C are read-only views of `entries`,
    the flattened 48-vector of a copy of the input, the coordinates the
    Chevalley-Eilenberg differential is linear in, held as 2^`exponent`
    times the read-only unit entries `unit` (`_to_unit`), on which the
    traces and commutators are checked against `TOL.bracket`.
    `diagonal` says whether every nonzero entry lies on a diagonal
    (`tables._DIAGONAL`); `from_diagonals` builds such a triple from its
    three diagonals.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    entries: np.ndarray = field(init=False, repr=False, compare=False)
    exponent: int = field(init=False, repr=False, compare=False)
    unit: np.ndarray = field(init=False, repr=False, compare=False)
    diagonal: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("A", "B", "C"):
            if np.shape(getattr(self, name)) != (4, 4):
                raise ValueError(f"{name} must be 4x4")
        mats = np.array([self.A, self.B, self.C], dtype=float)
        mats.flags.writeable = False
        entries = mats.reshape(-1)
        unit, e = _to_unit(entries)
        unit.flags.writeable = False
        _check_traceless(unit[tables._DIAGONAL])
        # diagonal matrices commute exactly in floating point: M_i M_j and
        # M_j M_i have the same rounded diagonal and exact zeros off it, so
        # the commutator check could only pass them
        diagonal = np.count_nonzero(entries) == np.count_nonzero(entries[tables._DIAGONAL])
        if not diagonal:
            U = unit.reshape(3, 4, 4)
            products = U[:, None] @ U  # products[i, j] = M_i M_j
            if np.abs(products - products.swapaxes(0, 1)).max() > TOL.bracket:
                raise ValueError("matrices must commute (Jacobi identity)")
        self._keep(entries, unit, e, diagonal)

    def _keep(self, entries: np.ndarray, unit: np.ndarray, e: int, diagonal: bool):
        """Hold the checked read-only 48-vectors `entries` = 2^e `unit`, with
        A, B and C views of `entries`."""
        A, B, C = entries.reshape(3, 4, 4)
        # a frozen dataclass's fields are written past its __setattr__
        vars(self).update(A=A, B=B, C=C, entries=entries, exponent=e, unit=unit,
                          diagonal=diagonal)

    @classmethod
    def from_diagonals(cls, D) -> "BracketTriple":
        """The diagonal triple (diag D[0], diag D[1], diag D[2]) of a (3, 4)
        array D; it raises, with the same message, exactly when
        `BracketTriple(*map(np.diag, D))` does.

        Diagonal matrices commute, so only finiteness and the traces are
        checked, on the unit diagonals U, D = 2^e U.  D and U are written
        onto the diagonals of the entries and of the unit entries: D is not
        rebuilt from U, where entries far below the largest would
        underflow."""
        D = np.asarray(D, dtype=float)
        if D.shape != (3, 4):
            raise ValueError("diagonals must form a 3x4 array")
        U, e = _to_unit(D)
        _check_traceless(U)
        stack = np.zeros((2, 48))
        stack[0, tables._DIAGONAL], stack[1, tables._DIAGONAL] = D, U
        stack.flags.writeable = False
        out = cls.__new__(cls)
        out._keep(*stack, e, True)
        return out

    @cached_property
    def _unit_torsion(self) -> np.ndarray:
        """The rows of every torsion part at unit scale, shared by the
        torsion reports; the triple is immutable, so it cannot go stale."""
        v = tables._torsion_map().dot(self.unit)
        v.flags.writeable = False
        return v

    @cached_property
    def _unit_lap_psi(self) -> np.ndarray:
        """lap psi at unit scale, shared by the Laplacian reports."""
        return self._quadratic(tables._laplacian_table)

    def _quadratic(self, build) -> np.ndarray:
        """The read-only outputs of the table `build()` on the unit entries,
        from its terms on two diagonal entries alone on a diagonal triple
        (`tables._diagonal`)."""
        v = tables._quadratic(tables._diagonal(build) if self.diagonal else build(), self.unit)
        v.flags.writeable = False
        return v

    def matrices(self):
        return (self.A, self.B, self.C)


def _check_traceless(diagonals: np.ndarray):
    """Raise unless each row of the (3, 4) unit-scale diagonals sums to
    within `TOL.bracket` of zero."""
    if any(abs(a + b + c + d) > TOL.bracket for a, b, c, d in diagonals.tolist()):
        raise ValueError("matrices must be traceless (unimodular algebra)")


@dataclass
class CompatibilityReport:
    independent: bool
    simultaneously_diagonalizable: bool
    compatible: bool
    reason: str


def ce_differential(t: BracketTriple, alpha: KForm) -> KForm:
    """Chevalley-Eilenberg exterior derivative of a left-invariant form,

        d = e^7 ^ theta(A) + e^1 ^ theta(B) + e^2 ^ theta(C).

    Each term is an antiderivation that kills e^1, e^2, e^7 and sends an
    n-covector f^k (dual to e_{k+2}) to its share of the rule de(x, y) =
    -e([x, y]):  df^k = -sum_j (A[k,j] e^7 + B[k,j] e^1 + C[k,j] e^2) ^ f^j.
    It is taken on the unit entries and alpha at unit scale (`_to_unit`),
    and scaled back once by both exponents (`_scaled`): where d alpha
    leaves the float range it raises ValueError instead of inf or NaN.
    """
    a, e = _to_unit(alpha.vec)
    k = alpha.degree
    if k >= DIM:
        return zero_form(DIM)
    out, src, entry, sign = tables._d_table(k)
    d = np.bincount(out, sign * a[src] * t.unit[entry], minlength=len(BASIS[k + 1]))
    return KForm._of(k + 1, _scaled(d, t.exponent + e))


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
    eigenbasis.  A compatible general triple takes 4 LAPACK calls (the SVD
    and one eigenvalue solve per matrix) instead of the 16 a joint
    eigenbasis took, and a closed triple 1 (the SVD) instead of 10.
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


def _homothety(scal, ric_sq):
    """F = scal^2 / tr(Ric^2), elementwise, of curvatures taken at unit
    scale; NaN where flat, that is where tr(Ric^2) is not above
    `TOL.zero_form`^2."""
    return scal * scal / np.where(ric_sq > TOL.zero_form ** 2, ric_sq, np.nan)


def _unit_curvature(t: BracketTriple):
    """(ric, scal, ric_sq, F) of the unit triple: the Ricci operator in display
    order, scal the trace of its a-block (the n-block is a sum of
    commutators, so traceless), tr(Ric^2) = |ric|^2 and F."""
    ric = t._quadratic(tables._ricci_table).reshape(DIM, DIM)
    scal, ric_sq = float(ric[:3, :3].trace()), float(np.vdot(ric, ric))
    return ric, scal, ric_sq, float(_homothety(scal, ric_sq))


def homothety_invariant(t: BracketTriple) -> float:
    """scal^2 / tr(Ric^2), invariant under rescaling of the metric.  Flatness
    is judged at unit scale (`_unit_curvature`), so it raises on the zero
    triple and on triples with vanishing Ricci curvature (commuting
    skew-symmetric matrices, say) at any scale."""
    F = _unit_curvature(t)[3]
    if math.isnan(F):
        raise ValueError("homothety invariant undefined on a flat metric")
    return F


def ricci_report(t: BracketTriple) -> dict:
    """JSON-ready curvature summary in display basis order (e_7, e_1, e_2,
    e_3..e_6), the a-block first.  F is read at unit scale, as in
    `homothety_invariant`, and the rest is scaled back from there (Ric and
    scal have degree 2 in the entries, tr(Ric^2) degree 4)."""
    ric, scal, ric_sq, F = _unit_curvature(t)
    return {
        "ricci": _scaled(ric, 2 * t.exponent).tolist(),
        "scal": _scaled(scal, 2 * t.exponent),
        "trace_ric_sq": _scaled(ric_sq, 4 * t.exponent),
        "F": None if math.isnan(F) else F,
    }
