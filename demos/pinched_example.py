"""
The extremally pinched closed structure
=======================================

Within the closed diagonal family the point (1, 1, 1) satisfies the
extremal-pinching identity d tau = |tau|^2/6 phi + 1/6 * (tau ^ tau)
exactly.  Combined with the certified lattice this gives a compact
quotient carrying an extremally pinched closed structure.
"""

import numpy as np

from g2solv import forms
from g2solv.g2core import closed_triple, erp_residual, torsion_forms
from g2solv.liealg import ce_differential, homothety_invariant, ricci_report

# the closed family: A = a Diag(1,1,-1,-1), B = b Diag(1,-1,1,-1),
# C = c Diag(1,-1,-1,1); d phi = 0 for every (a, b, c)
triple = closed_triple(1.0, 1.0, 1.0)
print("d phi norm:", ce_differential(triple, forms.PHI).norm())

# its full torsion sits in the tau2 component
tf = torsion_forms(triple)
print("tau2 =", forms.format_form(tf.tau2))
print("|tau|^2 =", tf.norm_sq_tau)

# the pinching identity holds to machine precision at (1, 1, 1)
res = erp_residual(triple)
print("pinching residual:", res["residual_norm"])

# the scale-invariant curvature ratio F = scal^2 / tr(Ric^2) equals 3,
# the extremal value for closed structures
print("F =", homothety_invariant(triple))
rep = ricci_report(triple)
print("scal =", rep["scal"])

# moving off the symmetric point destroys the identity: (2, 1, 1) has
# F = 2 and a pinching residual of order one
off = closed_triple(2.0, 1.0, 1.0)
print("F at (2,1,1) =", homothety_invariant(off))
print("residual at (2,1,1):", erp_residual(off)["residual_norm"])

# rescaling (1,1,1) keeps both the identity and F: the property is a ray,
# not a point
for lam in (0.5, 2.0):
    tri = closed_triple(lam, lam, lam)
    print(f"scale {lam}: residual {erp_residual(tri)['residual_norm']:.3e}",
          f"F = {homothety_invariant(tri):.12f}")
