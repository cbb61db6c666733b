"""Closed-form expansions of the exterior derivatives of the fixed 3-form.

Everything here was derived once by hand from the derivation action of the
triple on the self-dual 2-forms and is kept frozen as an independent check
against the combinatorial differential in the package.  General formulas
take arbitrary commuting traceless matrices; the diagonal versions take the
four diagonal entries of each matrix.  `bracket_flow_rhs` is the oracle
for the coflow parameter ODE, and `compatible` the oracle for
`liealg.check_compatible`.
"""

import numpy as np

from g2solv.forms import KForm, monomial, theta, wedge

# omega_7/1/2 span the self-dual 2-forms on the nilpotent directions e_3..e_6
# that enter phi; the barred ones span the anti-self-dual complement and show
# up in every exterior derivative.
OMEGA7 = KForm(2, {(3, 4): 1.0, (5, 6): 1.0})
OMEGA1 = KForm(2, {(3, 5): 1.0, (4, 6): -1.0})
OMEGA2 = KForm(2, {(3, 6): -1.0, (4, 5): -1.0})

OMEGA7_BAR = KForm(2, {(3, 4): 1.0, (5, 6): -1.0})
OMEGA1_BAR = KForm(2, {(3, 5): 1.0, (4, 6): 1.0})
OMEGA2_BAR = KForm(2, {(3, 6): -1.0, (4, 5): 1.0})


def _e(*idx):
    return monomial(idx)


# -- arbitrary commuting triples ----------------------------------------------


def general_dphi(A, B, C):
    return (wedge(theta(B, OMEGA7) - theta(A, OMEGA1), _e(1, 7))
            + wedge(theta(C, OMEGA7) - theta(A, OMEGA2), _e(2, 7))
            + wedge(theta(B, OMEGA2) - theta(C, OMEGA1), _e(1, 2)))


def general_star_dphi(A, B, C):
    At, Bt, Ct = A.T, B.T, C.T
    return (wedge(theta(Bt, OMEGA7) - theta(At, OMEGA1), _e(2))
            - wedge(theta(Ct, OMEGA7) - theta(At, OMEGA2), _e(1))
            - wedge(theta(Bt, OMEGA2) - theta(Ct, OMEGA1), _e(7)))


def general_star_d_star_dphi(A, B, C):
    At, Bt, Ct = A.T, B.T, C.T
    t17 = theta(B, OMEGA7) - theta(A, OMEGA1)
    t27 = theta(C, OMEGA7) - theta(A, OMEGA2)
    t12 = theta(B, OMEGA2) - theta(C, OMEGA1)
    return (wedge(theta(Bt, t17) + theta(Ct, t27), _e(7))
            + wedge(theta(Bt, t12) - theta(At, t27), _e(2))
            + wedge(-theta(Ct, t12) - theta(At, t17), _e(1)))


def general_dpsi(A, B, C):
    return wedge(theta(A, OMEGA7) + theta(B, OMEGA1) + theta(C, OMEGA2),
                 _e(1, 2, 7))


def general_star_dpsi(A, B, C):
    At, Bt, Ct = A.T, B.T, C.T
    return -(theta(At, OMEGA7) + theta(Bt, OMEGA1) + theta(Ct, OMEGA2))


def general_d_star_dpsi(A, B, C):
    At, Bt, Ct = A.T, B.T, C.T
    w7 = theta(At, OMEGA7) + theta(Bt, OMEGA1) + theta(Ct, OMEGA2)
    return (-wedge(theta(A, w7), _e(7))
            - wedge(theta(B, w7), _e(1))
            - wedge(theta(C, w7), _e(2)))


# -- diagonal triples -----------------------------------------------------------
# a, b, c are the diagonal entry vectors (a_1..a_4) etc. with zero sum; the
# derivation action pairs the entry sums (1,2), (1,3), (1,4) with the three
# self-dual directions


def diagonal_dphi(a, b, c):
    return (wedge(-(b[0] + b[1]) * OMEGA7_BAR + (a[0] + a[2]) * OMEGA1_BAR, _e(1, 7))
            + wedge(-(c[0] + c[1]) * OMEGA7_BAR + (a[0] + a[3]) * OMEGA2_BAR, _e(2, 7))
            + wedge(-(b[0] + b[3]) * OMEGA2_BAR + (c[0] + c[2]) * OMEGA1_BAR, _e(1, 2)))


def diagonal_star_dphi(a, b, c):
    return (wedge(-(b[0] + b[1]) * OMEGA7_BAR + (a[0] + a[2]) * OMEGA1_BAR, _e(2))
            - wedge(-(c[0] + c[1]) * OMEGA7_BAR + (a[0] + a[3]) * OMEGA2_BAR, _e(1))
            - wedge(-(b[0] + b[3]) * OMEGA2_BAR + (c[0] + c[2]) * OMEGA1_BAR, _e(7)))


def diagonal_star_d_star_dphi(a, b, c):
    s12 = lambda v: v[0] + v[1]
    s13 = lambda v: v[0] + v[2]
    s14 = lambda v: v[0] + v[3]
    return (wedge((s12(b) ** 2 + s12(c) ** 2) * OMEGA7
                  - s13(b) * s13(a) * OMEGA1
                  - s14(c) * s14(a) * OMEGA2, _e(7))
            + wedge((s14(b) ** 2 + s14(a) ** 2) * OMEGA2
                    - s13(b) * s13(c) * OMEGA1
                    - s12(a) * s12(c) * OMEGA7, _e(2))
            + wedge(-s14(c) * s14(b) * OMEGA2
                    + (s13(c) ** 2 + s13(a) ** 2) * OMEGA1
                    - s12(a) * s12(b) * OMEGA7, _e(1)))


def diagonal_dpsi(a, b, c):
    return -wedge((a[0] + a[1]) * OMEGA7_BAR + (b[0] + b[2]) * OMEGA1_BAR
                  + (c[0] + c[3]) * OMEGA2_BAR, _e(1, 2, 7))


def diagonal_star_dpsi(a, b, c):
    return ((a[0] + a[1]) * OMEGA7_BAR + (b[0] + b[2]) * OMEGA1_BAR
            + (c[0] + c[3]) * OMEGA2_BAR)


def diagonal_d_star_dpsi(a, b, c):
    s12 = lambda v: v[0] + v[1]
    s13 = lambda v: v[0] + v[2]
    s14 = lambda v: v[0] + v[3]
    return (-wedge(s12(a) ** 2 * OMEGA7 + s13(a) * s13(b) * OMEGA1
                   + s14(a) * s14(c) * OMEGA2, _e(7))
            - wedge(s12(a) * s12(b) * OMEGA7 + s13(b) ** 2 * OMEGA1
                    + s14(b) * s14(c) * OMEGA2, _e(1))
            - wedge(s12(a) * s12(c) * OMEGA7 + s13(c) * s13(b) * OMEGA1
                    + s14(c) ** 2 * OMEGA2, _e(2)))


def _diagonal_coefficients(a, b, c):
    r = (a[0] + a[1]) ** 2 + (b[0] + b[1]) ** 2 + (c[0] + c[1]) ** 2
    s = (a[0] + a[2]) ** 2 + (b[0] + b[2]) ** 2 + (c[0] + c[2]) ** 2
    t = (a[0] + a[3]) ** 2 + (b[0] + b[3]) ** 2 + (c[0] + c[3]) ** 2
    return r, s, t


def diagonal_lap_phi(a, b, c):
    r, s, t = _diagonal_coefficients(a, b, c)
    return (wedge(r * OMEGA7, _e(7)) + wedge(s * OMEGA1, _e(1))
            + wedge(t * OMEGA2, _e(2)))


def diagonal_lap_psi(a, b, c):
    r, s, t = _diagonal_coefficients(a, b, c)
    return (wedge(r * OMEGA7, _e(1, 2)) + wedge(s * OMEGA1, _e(2, 7))
            - wedge(t * OMEGA2, _e(1, 7)))


# -- the coclosed six-parameter slice ---------------------------------------------


def coclosed_entries(p):
    a = np.array([p.a1, -p.a1, p.a2, -p.a2])
    b = np.array([p.b1, p.b2, -p.b1, -p.b2])
    c = np.array([p.c1, p.c2, -p.c2, -p.c1])
    return a, b, c


def coclosed_tau3(p):
    return (wedge(-(p.b1 + p.b2) * OMEGA7_BAR + (p.a1 + p.a2) * OMEGA1_BAR, _e(2))
            + wedge((p.c1 + p.c2) * OMEGA7_BAR - (p.a1 - p.a2) * OMEGA2_BAR, _e(1))
            + wedge((p.b1 - p.b2) * OMEGA2_BAR - (p.c1 - p.c2) * OMEGA1_BAR, _e(7)))


def coclosed_coefficients(p):
    """(r, s, t) of lap psi = r w7^e12 - s w2^e17 + t w1^e27 at the point p.
    Squares are products, which round as numpy's `** 2` does (a float `** 2`
    goes through pow and may differ in the last bit), so reports may be
    compared with these exactly."""
    bp, bm, cp, cm = p.b1 + p.b2, p.b1 - p.b2, p.c1 + p.c2, p.c1 - p.c2
    ap, am = p.a1 + p.a2, p.a1 - p.a2
    return bp * bp + cp * cp, bm * bm + am * am, cm * cm + ap * ap


def coclosed_lap_phi(p):
    r, s, t = coclosed_coefficients(p)
    return (wedge(r * OMEGA7, _e(7)) + wedge(s * OMEGA2, _e(2))
            + wedge(t * OMEGA1, _e(1)))


def coclosed_lap_psi(p):
    r, s, t = coclosed_coefficients(p)
    return (wedge(r * OMEGA7, _e(1, 2)) - wedge(s * OMEGA2, _e(1, 7))
            + wedge(t * OMEGA1, _e(2, 7)))


def bracket_flow_generator(p):
    """The a-slots (e7, e1, e2) of the diagonal Q, zero on n, with
    theta(-Q) psi = `coclosed_lap_psi`: each slot is half the two of r, s, t
    whose 4-forms contain its covector, less the third."""
    r, s, t = coclosed_coefficients(p)
    return 0.5 * (-r + s + t), 0.5 * (r + s - t), 0.5 * (r - s + t)


def bracket_flow_rhs(p):
    """Independent oracle for coflow._rate: evolve the structure constants
    by theta_plus(Q) directly and read the parameter derivatives back off."""
    qa, qb, qc = bracket_flow_generator(p)
    a1, a2, b1, b2, c1, c2 = p.a1, p.a2, p.b1, p.b2, p.c1, p.c2
    # mu' = Q mu(.,.) - mu(Q., .) - mu(., Q.): with Q zero on n and diagonal
    # on a this contracts to A' = -qa A, B' = -qb B, C' = -qc C.
    return np.array([-qa * a1, -qa * a2, -qb * b1, -qb * b2, -qc * c1, -qc * c2])


# -- compatibility -----------------------------------------------------------------
# The per-cluster singular-value rule that decided real diagonalizability
# before any shortcut: every matrix gets its eigenvalues, and every cluster,
# one eigenvalue or more, gets its rank count.  The cuts are copies of the
# package's: 1e-9 for imaginary parts (TOL.eig_imag) and for the
# independence rank (TOL.rank_rel), 1e-6 for the cluster width.


def _real_diagonalizable(M):
    vals = np.linalg.eigvals(M)
    if np.abs(vals.imag).max() > 1e-9 * max(1.0, np.abs(vals).max()):
        return False
    vals = np.sort(vals.real)
    width = 1e-6 * max(1.0, np.linalg.norm(M))
    i = 0
    while i < len(vals):
        j = i
        while j + 1 < len(vals) and vals[j + 1] - vals[i] <= width:
            j += 1
        s = np.linalg.svd(M - vals[i] * np.eye(len(M)), compute_uv=False)
        if (s <= 1e-6 * max(1.0, s[0])).sum() < j + 1 - i:
            return False
        i = j + 1
    return True


def compatible(A, B, C):
    """(independent, simultaneously real-diagonalizable) for a commuting
    triple: independence from the singular values of the three matrices,
    each divided by its largest entry, and diagonalizability one matrix at
    a time."""
    rows = [M.ravel() / np.abs(M).max() for M in (A, B, C) if np.abs(M).max() > 0.0]
    independent = len(rows) == 3
    if independent:
        s = np.linalg.svd(np.array(rows), compute_uv=False)
        independent = bool(s.min() > 1e-9 * s.max())
    return independent, all(_real_diagonalizable(M) for M in (A, B, C))
