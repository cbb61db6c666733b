"""Numerical tolerances shared across the package.

All thresholds live on a single mutable instance so that callers can tighten
or relax them in one place; the command line front end never changes them.
Lattice certification (`numberlat`) reads none of them: its one float
verdict compares the units' regulator with a theorem's lower bound.
"""

from dataclasses import dataclass


@dataclass
class Tolerances:
    # coefficients of at most this size are left out of KForm.coeffs and printing
    prune: float = 1e-14
    # a form counts as zero when its norm is below this, taken on the unit
    # triple (forms._to_unit), so the verdict does not depend on the scale
    zero_form: float = 1e-10
    # eigenvalues are accepted as real when |imag| stays below this
    eig_imag: float = 1e-9
    # relative singular-value cutoff for rank decisions
    rank_rel: float = 1e-9
    # BracketTriple's traceless and commuting checks: on the unit triple, a
    # trace and a commutator entry may reach this
    bracket: float = 1e-10


TOL = Tolerances()
