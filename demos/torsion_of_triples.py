"""
Torsion of invariant structures from commuting bracket triples
==============================================================

Three commuting traceless 4x4 matrices define a solvable Lie algebra and,
through the fixed positive 3-form, an invariant metric structure.  The
exterior-calculus engine computes its four torsion components and sorts the
structure into a torsion class.
"""

import numpy as np

from g2solv import forms
from g2solv.g2core import laplacians, torsion_forms
from g2solv.liealg import BracketTriple, ce_differential, check_compatible, ricci_report

# a diagonal triple is automatically commuting; tracelessness keeps the
# group unimodular, which is what lattices require
A = np.diag([1.0, -1.0, 2.0, -2.0])
B = np.diag([0.5, 0.5, -0.5, -0.5])
C = np.diag([1.0, -2.0, -1.0, 2.0])
triple = BracketTriple(A, B, C)
print("compatible:", check_compatible(triple).compatible)

tf = torsion_forms(triple)
print("tau0 =", tf.tau0)
print("|tau1| =", tf.tau1.norm())
print("tau2 =", forms.format_form(tf.tau2))
print("tau3 =", forms.format_form(tf.tau3))

# diagonal triples always land in the pure {W2, W3} class: the scalar and
# vector components vanish identically
print("class:", sorted(k for k, v in tf.torsion_class.items() if v))

# the defining decompositions reassemble d phi and d psi from the components
dphi = ce_differential(triple, forms.PHI)
rebuilt = tf.tau0 * forms.PSI + 3.0 * forms.wedge(tf.tau1, forms.PHI) + forms.hodge(tf.tau3)
print("d phi reconstruction error:", (dphi - rebuilt).norm())

dpsi = ce_differential(triple, forms.PSI)
rebuilt = 4.0 * forms.wedge(tf.tau1, forms.PSI) + forms.wedge(tf.tau2, forms.PHI)
print("d psi reconstruction error:", (dpsi - rebuilt).norm())

# the Hodge Laplacians of phi and psi are Hodge duals of each other
lap = laplacians(triple)
print("lap-duality error:", (forms.hodge(lap["phi"]) - lap["psi"]).norm())

# curvature summary: scalar curvature, squared Ricci trace and the pinching
# invariant F = scal^2 / tr(Ric^2), bounded by 7
rep = ricci_report(triple)
print("scal =", rep["scal"], " tr Ric^2 =", rep["trace_ric_sq"], " F =", rep["F"])
