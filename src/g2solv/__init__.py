"""Certified lattices, torsion calculus and coflow dynamics for a family of
solvable Lie groups carrying left-invariant G2-structures.

Importing the package loads none of its modules; import each one by name,
as in `from g2solv import numberlat`.
"""

__all__ = ["audit", "cli", "coflow", "config", "forms", "g2core", "liealg", "numberlat",
           "tables"]

__version__ = "0.1.0"
