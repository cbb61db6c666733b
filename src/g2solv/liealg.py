"""Solvable Lie algebras a x| R^4 determined by a commuting matrix triple.

The algebra has orthonormal basis e_1..e_7 with abelian factor
a = span(e_7, e_1, e_2) acting on the abelian ideal n = span(e_3..e_6) by

    ad e_7 |_n = A,    ad e_1 |_n = B,    ad e_2 |_n = C.

The Jacobi identity is exactly pairwise commutation of A, B, C.  Everything
downstream (differentials, curvature) is phrased against the covector dual:
n-covectors f^1..f^4 correspond to e^3..e^6.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class BracketTriple:
    """Commuting traceless triple (A, B, C) of real 4x4 matrices.

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
        scale = max(1.0, np.abs(mats).max())
        if (np.abs(mats.trace(axis1=1, axis2=2)) > 1e-10 * scale).any():
            raise ValueError("matrices must be traceless (unimodular algebra)")
        products = mats[:, None] @ mats  # products[i, j] = M_i M_j
        if np.abs(products - products.swapaxes(0, 1)).max() > 1e-10 * scale * scale:
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
    eigenbasis: np.ndarray | None
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


def _real_eigenspaces(M: np.ndarray, tol: float):
    """Eigenvalues with basis matrices of their eigenspaces, or None if M is
    not real-diagonalizable."""
    vals, vecs = np.linalg.eig(M)
    if np.abs(vals.imag).max(initial=0.0) > tol * max(1.0, np.abs(vals).max()):
        return None
    vals = vals.real
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs.real[:, order]
    groups = []
    i = 0
    scale = max(1.0, np.abs(vals).max())
    while i < len(vals):
        j = i
        while j + 1 < len(vals) and abs(vals[j + 1] - vals[i]) <= 1e-8 * scale:
            j += 1
        groups.append((vals[i], list(range(i, j + 1))))
        i = j + 1
    # geometric multiplicity must match the cluster size
    spaces = []
    for lam, idx in groups:
        E = M - lam * np.eye(M.shape[0])
        ns = _nullspace(E, tol)
        if ns.shape[1] < len(idx):
            return None
        spaces.append((lam, ns[:, : len(idx)]))
    return spaces


def _nullspace(M: np.ndarray, rel_tol: float) -> np.ndarray:
    U, s, Vt = np.linalg.svd(M)
    cutoff = max(1.0, s.max(initial=0.0)) * max(rel_tol, 1e-10)
    rank = int((s > cutoff).sum())
    return Vt[rank:].T


def check_compatible(t: BracketTriple) -> CompatibilityReport:
    """Linear independence plus simultaneous real diagonalizability.

    The eigenbasis witness is built by refining the eigenspaces of A by B and
    then by C; for commuting real-diagonalizable matrices this always lands on
    a joint eigenbasis.
    """
    A, B, C = t.matrices()
    stack = np.stack([A.ravel(), B.ravel(), C.ravel()])
    s = np.linalg.svd(stack, compute_uv=False)
    independent = bool(s.min() > TOL.rank_rel * max(1.0, s.max()))

    basis_blocks = [np.eye(4)]
    diagonalizable = True
    for M in (A, B, C):
        refined = []
        for P in basis_blocks:
            # restrict M to the invariant subspace spanned by the columns of P
            sub = np.linalg.lstsq(P, M @ P, rcond=None)[0]
            spaces = _real_eigenspaces(sub, TOL.eig_imag)
            if spaces is None:
                diagonalizable = False
                break
            refined.extend(P @ V for _, V in spaces)
        if not diagonalizable:
            break
        basis_blocks = refined

    eigenbasis = None
    if diagonalizable:
        eigenbasis = np.hstack(basis_blocks)
        for M in (A, B, C):
            D = np.linalg.solve(eigenbasis, M @ eigenbasis)
            off = D - np.diag(np.diag(D))
            if np.abs(off).max() > 1e-7 * max(1.0, np.abs(D).max()):
                diagonalizable = False
                eigenbasis = None
                break

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
        eigenbasis=eigenbasis,
        reason=reason,
    )


def ricci_operator(t: BracketTriple) -> np.ndarray:
    """Ricci operator in the internal basis (e_1..e_7).

    The a-block (slots e_7, e_1, e_2) is -[tr S(X)S(Y)] for X, Y running over
    (A, B, C) with S the symmetrization; the n-block is
    (1/2)([A,A^T] + [B,B^T] + [C,C^T]); the two blocks never mix.
    """
    return _ricci(np.stack(t.matrices()))


def _ricci(mats: np.ndarray) -> np.ndarray:
    """Ricci operators of triples stacked as (..., 3, 4, 4), shape (..., 7, 7)."""
    sym = 0.5 * (mats + np.swapaxes(mats, -1, -2))
    ric = np.zeros(mats.shape[:-3] + (DIM, DIM))
    ric[..., _A_SLOTS[:, None], _A_SLOTS] = -np.einsum("...iab,...jba->...ij", sym, sym)
    ric[..., 2:6, 2:6] = 0.5 * (mats @ np.swapaxes(mats, -1, -2)
                                - np.swapaxes(mats, -1, -2) @ mats).sum(axis=-3)
    return ric


def scalar_curvature(t: BracketTriple) -> float:
    return float(np.trace(ricci_operator(t)))


def homothety_invariants(mats: np.ndarray) -> np.ndarray:
    """scal^2 / tr(Ric^2) for triples stacked as (..., 3, 4, 4); NaN where flat.

    Each triple is first divided by its largest entry, so flatness is judged
    at unit scale: the zero triple and triples with vanishing Ricci curvature
    (commuting skew-symmetric matrices, say) give NaN, while any nonzero
    multiple of a non-flat triple gets the same value as the triple itself.
    """
    mats = np.asarray(mats, dtype=float)
    scale = np.abs(mats).max(axis=(-3, -2, -1), keepdims=True, initial=0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        ric = _ricci(mats / scale)
        scal = np.trace(ric, axis1=-2, axis2=-1)
        denom = np.einsum("...ij,...ji->...", ric, ric)
        return np.where(denom > TOL.zero_form ** 2, scal ** 2 / denom, np.nan)


def homothety_invariant(t: BracketTriple) -> float:
    """scal^2 / tr(Ric^2), invariant under rescaling of the metric: the
    one-triple case of `homothety_invariants`, raising on a flat metric."""
    F = float(homothety_invariants(np.stack(t.matrices())))
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
        np.abs(M @ M.T - M.T @ M).max() <= 1e-9 * scale * scale for M in (A, B, C)
    )
    ric = ricci_operator(t)
    block = ric[np.ix_(_A_SLOTS, _A_SLOTS)]
    c = float(np.trace(block)) / 3.0
    isotropic = np.abs(block - c * np.eye(3)).max() <= 1e-9 * max(1.0, abs(c))
    ok = bool(normal and isotropic)
    return {"is_solvsoliton": ok, "lam": c if ok else None, "flat": False}


def to_display_order(M: np.ndarray) -> np.ndarray:
    """Permute a 7x7 matrix from internal (e1..e7) to (e7,e1,e2,e3..e6) order."""
    M = np.asarray(M)
    return M[np.ix_(_DISPLAY, _DISPLAY)]


def ricci_report(t: BracketTriple) -> dict:
    """JSON-ready curvature summary in display basis order."""
    ric = ricci_operator(t)
    try:
        F = homothety_invariant(t)
    except ValueError:
        F = None
    return {
        "ricci": to_display_order(ric).tolist(),
        "scal": float(np.trace(ric)),
        "trace_ric_sq": float(np.trace(ric @ ric)),
        "F": F,
    }
