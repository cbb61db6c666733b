"""
Certifying cocompact lattices from totally real quartic fields
==============================================================

A discrete cocompact subgroup of the solvable host group comes from a
totally real quartic polynomial together with three multiplicatively
independent totally positive units.  This script walks the certification
pipeline on the two built-in examples and on one deliberately broken input.
"""

import numpy as np

from g2solv.numberlat import (
    BUILTIN_EXAMPLES,
    QuarticPoly,
    UnitSpec,
    certify_lattice,
    roots,
    unit_matrix,
)

# the cyclotomic example: p(t) = t^4 - t^3 - 4 t^2 + 4 t + 1, whose roots
# are 2 cos(2 pi k / 15) for k = 1, 2, 4, 7
ex = BUILTIN_EXAMPLES["kl-2015"]
p, units = ex["poly"], ex["units"]

u = roots(p)
print("field roots     :", np.round(u, 6))
print("2cos(2pi k/15)  :", np.round(np.sort(
    2 * np.cos(2 * np.pi * np.array([1, 2, 4, 7]) / 15))[::-1], 6))

# each unit q acts on the ring of integers in the power basis 1, u, u^2, u^3;
# the action is an integer matrix with determinant 1
mats = [unit_matrix(p, q) for q in units]
for q, M in zip(units, mats):
    print("unit", q.coeffs(), "->", M)

# the full certificate bundles integrality, commutation, total positivity
# and multiplicative independence into one verdict; the determinants and the
# signs of the spectra come from exact integer characteristic polynomials
cert = certify_lattice(p, units)
print("kl-2015 verdict:", cert.verdict, "(", cert.reason, ")")

# the units are independent exactly when their regulator, the 3x3 log
# determinant |det log|q_i(u_j)||, is not 0; a nonzero one is at least
# 0.2052 for every number field, so the float value decides
print("kl-2015 regulator:", round(cert.checks["regulator"], 6))

# one real Vandermonde matrix, rows (1, u_k, u_k^2, u_k^3), diagonalizes all
# three actions simultaneously, V X = diag(q(u)) V, with spectra q(u_k) > 0;
# this holds by construction, so the certificate reports no float residual
V = np.vander(cert.roots, 4, increasing=True)
residual = 0.0
for X, D in zip(cert.matrices, cert.spectra):
    X = np.array(X, dtype=float)
    residual = max(residual, np.linalg.norm(V @ X - np.diag(D) @ V)
                   / (np.linalg.norm(V) * np.linalg.norm(X)))
print("joint diagonalization residual:", residual)
for q, D in zip(units, cert.spectra):
    print("spectrum of", q.coeffs(), ":", np.round(D, 6))

cert2 = certify_lattice(*(BUILTIN_EXAMPLES["kl-sqrt3"][k] for k in ("poly", "units")))
print("kl-sqrt3 verdict:", cert2.verdict)
print("kl-sqrt3 regulator:", round(cert2.checks["regulator"], 6))

# a reducible polynomial is rejected before any matrix is built
bad = certify_lattice(QuarticPoly(6, 0, -5, 0),
                      [UnitSpec(0, 0, 1, 0)] * 3)
print("reducible input verdict:", bad.verdict, "(", bad.reason, ")")
