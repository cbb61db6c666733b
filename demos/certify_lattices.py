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

# one real Vandermonde matrix diagonalizes all three actions simultaneously,
# with spectra q(u_k) > 0
print("joint diagonalization residual:", cert.checks["diag_residual"])
for q, D in zip(units, cert.spectra):
    print("spectrum of", q.coeffs(), ":", np.round(D, 6))

cert2 = certify_lattice(*(BUILTIN_EXAMPLES["kl-sqrt3"][k] for k in ("poly", "units")))
print("kl-sqrt3 verdict:", cert2.verdict)

# a reducible polynomial is rejected before any matrix is built
bad = certify_lattice(QuarticPoly(6, 0, -5, 0),
                      [UnitSpec(0, 0, 1, 0)] * 3)
print("reducible input verdict:", bad.verdict, "(", bad.reason, ")")
