"""The joint-diagonalization residual of a lattice certificate, in mpmath.

Each unit matrix X = q(M) of a certificate is an integer polynomial in the
companion matrix M, so the root Vandermonde V, rows (1, u_j, u_j^2, u_j^3),
satisfies V X = diag(q(u)) V exactly (Cohen, A Course in Computational
Algebraic Number Theory, 4.1).  The certificate reports this as
`diagonalized` without a float witness; this oracle measures how far its
float `roots` and `spectra` are from the identity.
"""

import mpmath


def diag_residual(roots, matrices, spectra) -> float:
    """max over the unit matrices X of |V X - diag(d) V| / (|V| |X|) in
    Frobenius norms, with V built from `roots` and d the row of `spectra`
    that goes with X.

    The sums run at 60 digits, which hold every float input exactly, and
    mpmath's exponent range keeps fields with roots near 1e60 finite, where
    |X|^2 overflows a float.
    """
    with mpmath.workdps(60):
        V = mpmath.matrix([[mpmath.mpf(x) ** k for k in range(4)] for x in roots])
        worst = mpmath.mpf(0)
        for X, d in zip(matrices, spectra):
            X = mpmath.matrix(X)
            R = V * X - mpmath.diag(d) * V
            size = mpmath.mnorm(V, "f") * mpmath.mnorm(X, "f")
            worst = max(worst, mpmath.mnorm(R, "f") / size)
        return float(worst)
