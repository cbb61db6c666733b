"""Numerical tolerances shared across the package.

All thresholds live on a single mutable instance so that callers can tighten
or relax them in one place; the command line front end never changes them.
"""

from dataclasses import dataclass


@dataclass
class Tolerances:
    # coefficients of at most this size are left out of KForm.coeffs and printing
    prune: float = 1e-14
    # a form counts as zero when its norm is below this (forms here have O(1) scale)
    zero_form: float = 1e-10
    # eigenvalues are accepted as real when |imag| stays below this
    eig_imag: float = 1e-9
    # relative singular-value cutoff for rank decisions
    rank_rel: float = 1e-9
    # smallest singular value of the unit log-embedding matrix that still
    # certifies multiplicative independence
    unit_log_sigma: float = 1e-6
    # convergence target for Newton polishing of polynomial roots
    newton: float = 1e-12
    # BracketTriple's traceless and commuting checks: a trace may reach this
    # times the largest entry, a commutator entry this times its square
    bracket: float = 1e-10
    # solvsoliton_check: M M^T - M^T M may reach this times the squared
    # largest entry, and the a-block of Ricci may differ from c I by this
    # times max(1, |c|)
    solvsoliton: float = 1e-9


TOL = Tolerances()
