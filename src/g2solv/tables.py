"""Tables of the reports that are polynomials in the 48 entries u of (A, B,
C), M_a[i, j] at u[16 a + 4 i + j], each built on first use.  d and the
torsion parts are linear in u.  lap psi, the extremal-pinching residual and
the Ricci operator are quadratic, each a table (out, i, j, coef,
denominator, size): output out[n] of `size` adds coef[n] u[i[n]] u[j[n]] /
denominator, i <= j, and the integer coefficients make every cancellation
exact.
"""

from __future__ import annotations

from functools import cache
from itertools import product

import numpy as np

from .forms import (BASIS, DIM, PHI, PSI, KForm, _covector_wedge, _hodge_table, _wedge_table,
                    hodge, wedge)

_ENTRIES = 48  # entries of (A, B, C), the length of `BracketTriple.entries`

# a-block order (e7, e1, e2), the covectors paired with A, B, C -> internal slots
_A_SLOTS = np.array([6, 0, 1])

# M_a[k, k] is entry 16 a + 5 k of the 48 entries of (A, B, C): the (3, 4)
# positions of the diagonals, the one diagonal layout of the package
_DIAGONAL = 16 * np.arange(3)[:, None] + 5 * np.arange(4)


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
    """The matrix L with d alpha = L @ u, from `_d_table`."""
    out, src, entry, sign = _d_table(alpha.degree)
    L = np.zeros((len(BASIS[alpha.degree + 1]), _ENTRIES))
    np.add.at(L, (out, entry), sign * alpha.vec[src])
    return L


@cache
def _torsion_map() -> np.ndarray:
    """(120, 48) matrix taking u to the parts of `_torsion_parts`,
    concatenated (tau0 a single row), integers over 84 up to rounding.  Each
    part is linear in u: column j is `_torsion_parts` of d(phi), d(psi) of u_j."""
    Lphi, Lpsi = _linear_d(PHI), _linear_d(PSI)
    cols = []
    for j in range(Lphi.shape[1]):
        parts = _torsion_parts(KForm._of(4, Lphi[:, j]), KForm._of(5, Lpsi[:, j]))
        cols.append(np.concatenate([[parts[0]], *(x.vec for x in parts[1:])]))
    return np.column_stack(cols)


def _linear_tau() -> np.ndarray:
    """The (21, 48) matrix T with tau = -*dpsi = T @ u; its entries are +-1."""
    src, sign = _hodge_table(5)
    return -sign[:, None] * _linear_d(PSI)[src]


def _d_of_linear(L: np.ndarray, k: int):
    """d of the k-form L @ u as terms (out, i, j, coef) of sum coef u_i u_j."""
    return _bilinear(L, np.eye(_ENTRIES), *_d_table(k))


def _bilinear(L1: np.ndarray, L2: np.ndarray, out, a, b, c):
    """The terms (out, i, j, coef) of c (L1[a] . u)(L2[b] . u) for each index
    row (out, a, b, c), from the nonzero entries of L1 and L2 alone."""
    (r1, i), (r2, j) = np.nonzero(L1), np.nonzero(L2)
    n1, n2 = np.bincount(r1, minlength=len(L1)), np.bincount(r2, minlength=len(L2))
    # index row k pairs each of the n1[a[k]] nonzeros of row a[k] of L1 with
    # each of the n2[b[k]] of row b[k] of L2
    pairs = n1[a] * n2[b]
    k = np.repeat(np.arange(len(a)), pairs)
    n, m = np.divmod(np.arange(len(k)) - np.repeat(np.cumsum(pairs) - pairs, pairs), n2[b[k]])
    p1, p2 = (np.cumsum(n1) - n1)[a[k]] + n, (np.cumsum(n2) - n2)[b[k]] + m
    return out[k], i[p1], j[p2], c[k] * L1[r1[p1], i[p1]] * L2[r2[p2], j[p2]]


def _merge(terms, denominator: int, size: int):
    """The table of the term lists (out, i, j, coef) in `terms`, summed per
    (out, i <= j) in the order each first appears, zeros dropped."""
    out, i, j, coef = map(np.concatenate, zip(*terms))
    # sum the terms of each (out, i <= j) in a dict: sorting for it (argsort,
    # np.unique) would add the pages of numpy's sort code to every process
    acc = {}
    keys = (out * _ENTRIES + np.minimum(i, j)) * _ENTRIES + np.maximum(i, j)
    for key, c in zip(keys.tolist(), coef.tolist()):
        acc[key] = acc.get(key, 0.0) + c
    keys = np.array([key for key, c in acc.items() if c != 0.0])
    out, ij = np.divmod(keys, _ENTRIES * _ENTRIES)
    return (out, *np.divmod(ij, _ENTRIES), np.array([c for c in acc.values() if c != 0.0]),
            denominator, size)


@cache
def _laplacian_table():
    """lap psi = d*dphi - *d*dpsi = d*dphi + *d tau; every coefficient is +-1."""
    src, sign = _hodge_table(4)
    first = _d_of_linear(sign[:, None] * _linear_d(PHI)[src], 3)
    out, i, j, coef = _d_of_linear(_linear_tau(), 2)
    # as ** = 1, * sends the 3-form n to sign[n] times the 4-form src[n]
    return _merge([first, (src[out], i, j, sign[out] * coef)], 1, len(BASIS[4]))


@cache
def _erp_table():
    """R = d tau - |tau|^2 phi / 6 - *(tau ^ tau) / 6, tau = T @ u with
    T = `_linear_tau`, and |tau|^2 the sum of the squares of the rows of T."""
    T = _linear_tau()
    out, i, j, coef = _d_of_linear(T, 2)
    rows, slots = np.nonzero(np.outer(np.ones(len(T)), PHI.vec))
    w_out, left, right, w_sign = _wedge_table(2, 2)
    # as ** = 1, * sends the 4-form o to sign[o] times the 3-form src[o]
    src, sign = _hodge_table(3)
    pinching = _bilinear(T, T, np.concatenate([slots, src[w_out]]),
                         np.concatenate([rows, left]), np.concatenate([rows, right]),
                         -np.concatenate([PHI.vec[slots], sign[w_out] * w_sign]))
    return _merge([(out, i, j, 6.0 * coef), pinching], 6, len(BASIS[3]))


@cache
def _ricci_table():
    """The Ricci operator in display order (e_7, e_1, e_2, e_3..e_6): the
    a-block is -(1/4) S S^T, S the rows M + M^T flattened, M = A, B, C, and
    the n-block (1/2)(X X^T - Y Y^T) = (1/2) sum [M, M^T] with X = [A|B|C]
    and Y = [A^T|B^T|C^T]; no term lies outside the blocks."""
    a, i, j = np.indices((3, 4, 4)).reshape(3, -1)
    eye, flip = np.eye(_ENTRIES), np.eye(_ENTRIES)[16 * a + 4 * j + i]
    L = np.vstack([eye + flip, eye, flip])  # rows of S, X and Y
    p, q, k = np.indices((3, 3, 16)).reshape(3, -1)
    i, j, a, m = np.indices((4, 4, 3, 4)).reshape(4, -1)
    out, xi, xj = DIM * (i + 3) + j + 3, 16 * a + 4 * i + m, 16 * a + 4 * j + m
    rows = zip([DIM * p + q, 16 * p + k, 16 * q + k, -np.ones(len(k))],
               [out, _ENTRIES + xi, _ENTRIES + xj, np.full(len(m), 2.0)],
               [out, 2 * _ENTRIES + xi, 2 * _ENTRIES + xj, np.full(len(m), -2.0)])
    return _merge([_bilinear(L, L, *map(np.concatenate, rows))], 4, DIM * DIM)


@cache
def _diagonal(build):
    """The terms of the quadratic table `build()` on two diagonal entries
    (`_DIAGONAL`), in their order.  Every other term has an off-diagonal
    factor, an exact zero on a diagonal triple, so `_quadratic` of the
    restriction is that of the full table there, bit for bit."""
    out, i, j, coef, denominator, size = build()
    diagonal = np.bincount(_DIAGONAL.ravel(), minlength=_ENTRIES) > 0
    keep = diagonal[i] & diagonal[j]
    return out[keep], i[keep], j[keep], coef[keep], denominator, size


def _quadratic(table, u: np.ndarray) -> np.ndarray:
    """The outputs of a quadratic table at the entries u, summed term by
    term in its order and divided by its denominator."""
    out, i, j, coef, denominator, size = table
    return np.bincount(out, coef * u[i] * u[j], minlength=size) / denominator
