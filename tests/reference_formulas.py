"""Closed-form expansions of the exterior derivatives of the fixed 3-form.

Everything here was derived once by hand from the derivation action of the
triple on the self-dual 2-forms and is kept frozen as an independent check
against the combinatorial differential in the package.  General formulas
take arbitrary commuting traceless matrices; the diagonal versions take the
four diagonal entries of each matrix.  `bracket_flow_rhs` is the oracle
for the coflow parameter ODE.
"""

import numpy as np

from g2solv.forms import (
    OMEGA1,
    OMEGA1_BAR,
    OMEGA2,
    OMEGA2_BAR,
    OMEGA7,
    OMEGA7_BAR,
    monomial,
    theta,
    wedge,
)


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


def _coclosed_coefficients(p):
    r = (p.b1 + p.b2) ** 2 + (p.c1 + p.c2) ** 2
    s = (p.b1 - p.b2) ** 2 + (p.a1 - p.a2) ** 2
    t = (p.c1 - p.c2) ** 2 + (p.a1 + p.a2) ** 2
    return r, s, t


def coclosed_lap_phi(p):
    r, s, t = _coclosed_coefficients(p)
    return (wedge(r * OMEGA7, _e(7)) + wedge(s * OMEGA2, _e(2))
            + wedge(t * OMEGA1, _e(1)))


def coclosed_lap_psi(p):
    r, s, t = _coclosed_coefficients(p)
    return (wedge(r * OMEGA7, _e(1, 2)) - wedge(s * OMEGA2, _e(1, 7))
            + wedge(t * OMEGA1, _e(2, 7)))


def bracket_flow_generator(p):
    """The a-slots (e7, e1, e2) of the diagonal Q, zero on n, with
    theta(-Q) psi = `coclosed_lap_psi`: each slot is half the two of r, s, t
    whose 4-forms contain its covector, less the third."""
    r, s, t = _coclosed_coefficients(p)
    return 0.5 * (-r + s + t), 0.5 * (r + s - t), 0.5 * (r - s + t)


def bracket_flow_rhs(p):
    """Independent oracle for coflow.ode_rhs: evolve the structure constants
    by theta_plus(Q) directly and read the parameter derivatives back off."""
    qa, qb, qc = bracket_flow_generator(p)
    a1, a2, b1, b2, c1, c2 = p.a1, p.a2, p.b1, p.b2, p.c1, p.c2
    # mu' = Q mu(.,.) - mu(Q., .) - mu(., Q.): with Q zero on n and diagonal
    # on a this contracts to A' = -qa A, B' = -qb B, C' = -qc C.
    return np.array([-qa * a1, -qa * a2, -qb * b1, -qb * b2, -qc * c1, -qc * c2])
