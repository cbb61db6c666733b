"""Brute-force dense exterior algebra used to cross-check the package.

Forms of degree p are stored as fully antisymmetric numpy arrays of shape
(7,)*p with zero-based indices.  Every operation below works on that
representation with textbook permutation formulas and shares no code with
the package implementation.
"""

import itertools
from math import factorial

import numpy as np

N = 7


def parity(seq):
    """Sign of the permutation sorting a tuple of distinct integers."""
    inv = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inv += 1
    return -1 if inv % 2 else 1


def from_dict(degree, coeffs):
    """Dense tensor from {one-based increasing index tuple: coefficient}."""
    if degree == 0:
        return np.array(coeffs.get((), 0.0))
    T = np.zeros((N,) * degree)
    for I, c in coeffs.items():
        idx0 = tuple(i - 1 for i in I)
        for perm in itertools.permutations(idx0):
            T[perm] = parity(perm) * c
    return T


def to_dict(T, degree):
    if degree == 0:
        v = float(T)
        return {(): v} if v else {}
    out = {}
    for I in itertools.combinations(range(N), degree):
        v = float(T[I])
        if v:
            out[tuple(i + 1 for i in I)] = v
    return out


def from_kform(alpha):
    return from_dict(alpha.degree, alpha.coeffs)


def max_dev(T, degree, alpha):
    """Largest componentwise gap between a dense tensor and a package form."""
    da = to_dict(T, degree)
    keys = set(da) | set(alpha.coeffs)
    return max((abs(da.get(I, 0.0) - alpha.coeffs.get(I, 0.0)) for I in keys),
               default=0.0)


def _eps():
    e = np.zeros((N,) * N)
    for perm in itertools.permutations(range(N)):
        e[perm] = parity(perm)
    return e


EPS = _eps()


def hodge(T, degree):
    if degree == 0:
        return float(T) * EPS
    axes = list(range(degree))
    return np.tensordot(T, EPS, axes=(axes, axes)) / factorial(degree)


def inner(Ta, Tb, degree):
    if degree == 0:
        return float(Ta) * float(Tb)
    axes = list(range(degree))
    return float(np.tensordot(Ta, Tb, axes=(axes, axes))) / factorial(degree)


def wedge(Ta, pa, Tb, pb):
    """Shuffle-sum exterior product on increasing index tuples."""
    deg = pa + pb
    if deg > N:
        return np.zeros((N,) * N)
    out = {}
    for K in itertools.combinations(range(N), deg):
        tot = 0.0
        for pos in itertools.combinations(range(deg), pa):
            S = tuple(K[i] for i in pos)
            R = tuple(K[i] for i in range(deg) if i not in pos)
            va = float(Ta[S]) if pa else float(Ta)
            vb = float(Tb[R]) if pb else float(Tb)
            tot += parity(S + R) * va * vb
        if tot:
            out[tuple(i + 1 for i in K)] = tot
    return from_dict(deg, out)


def structure_tensor(A, B, C):
    """c[i, j, k] with [e_i, e_j] = sum_k c[i, j, k] e_k, zero-based.

    The abelian factor span(e7, e1, e2) acts on span(e3..e6) by A, B, C:
    [e7, e_{j+3}] = sum_k A[k, j] e_{k+3} and likewise for e1, e2.
    """
    c = np.zeros((N, N, N))
    for M, a in ((np.asarray(A, float), 6),
                 (np.asarray(B, float), 0),
                 (np.asarray(C, float), 1)):
        for j in range(4):
            for k in range(4):
                c[a, j + 2, k + 2] = M[k, j]
                c[j + 2, a, k + 2] = -M[k, j]
    return c


def ricci(c):
    """Ricci tensor of the metric Lie algebra with orthonormal basis e_1..e_7
    and structure tensor c (as from `structure_tensor`), zero-based.

    Besse, Einstein Manifolds (1987), 7.38, for a unimodular algebra (mean
    curvature vector H = 0):

        Ric(x, y) = -1/2 sum_i <[x, e_i], [y, e_i]> - 1/2 B(x, y)
                    + 1/4 sum_ij <[e_i, e_j], x> <[e_i, e_j], y>,

    with B(x, y) = tr(ad x ad y) the Killing form and (ad e_x)[k, j] =
    c[x, j, k].
    """
    brackets = np.einsum("xik,yik->xy", c, c)
    killing = np.einsum("xjk,ykj->xy", c, c)
    dual = np.einsum("ijx,ijy->xy", c, c)
    return -0.5 * brackets - 0.5 * killing + 0.25 * dual


def d(c, T, degree):
    """Koszul-sum differential (dx)(x_0..x_p) = sum (-1)^{i+j} x([xi,xj],..)."""
    if degree >= N:
        return np.zeros((N,) * N)
    out = {}
    for K in itertools.combinations(range(N), degree + 1):
        tot = 0.0
        for a in range(len(K)):
            for b in range(a + 1, len(K)):
                rest = K[:a] + K[a + 1:b] + K[b + 1:]
                brkt = c[K[a], K[b]]
                for m in np.nonzero(brkt)[0]:
                    if degree == 0:
                        continue
                    sub = (int(m),) + rest
                    if len(set(sub)) < len(sub):
                        continue
                    tot += ((-1) ** (a + b)) * brkt[m] * float(T[sub])
        if tot:
            out[tuple(i + 1 for i in K)] = tot
    return from_dict(degree + 1, out)


def theta(D, T, degree):
    """Derivation action with theta(D) e^k = -sum_m D[k, m] e^m.

    Accepts a 4x4 block (acting on e_3..e_6) or a full 7x7 matrix.
    """
    D = np.asarray(D, dtype=float)
    if D.shape == (4, 4):
        full = np.zeros((N, N))
        full[2:6, 2:6] = D
        D = full
    if degree == 0:
        return np.zeros(())
    out = np.zeros_like(T)
    # slot k of the input contributes -D[k, m] to slot m of the output, so
    # the contraction runs over the first axis of D
    for a in range(degree):
        out -= np.moveaxis(np.tensordot(D, T, axes=([0], [a])), 0, a)
    return out


# shared random-input scaffolding for the test modules

def commuting_triple(rng, scale=1.0):
    """Random commuting traceless triple: three polynomials in one matrix."""
    M = rng.standard_normal((4, 4))
    M /= max(1.0, np.linalg.norm(M, 2))
    mats = []
    for _ in range(3):
        coef = rng.uniform(-scale, scale, size=4)
        X = coef[0] * np.eye(4) + coef[1] * M + coef[2] * M @ M + coef[3] * M @ M @ M
        X -= (np.trace(X) / 4.0) * np.eye(4)
        mats.append(X)
    return mats


def diagonal_triple(rng, scale=1.0):
    """Random diagonal traceless triple."""
    mats = []
    for _ in range(3):
        v = rng.uniform(-scale, scale, size=4)
        v -= v.mean()
        mats.append(np.diag(v))
    return mats
