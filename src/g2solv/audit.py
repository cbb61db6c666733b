"""The coflow section's displayed claims, re-derived: `claims()` gives one
report per claim (i)-(v), with where the source states it, what it says, the
value computed here and whether they agree.  It reports and does not gate.
This is the one home of the source's displayed formulas that the package
does not use, the printed quartic of (iv) and the generator Q of (ii) and (v).
"""

from __future__ import annotations

import numpy as np

from . import coflow, forms
from .coflow import CoclosedParams, soliton_candidates
from .g2core import laplacians


def _velocity(p: CoclosedParams) -> np.ndarray:
    """The package's ODE at p, through `coflow._rate` as it is at call time."""
    return np.array(coflow._rate(p.as_array().tolist()))


def _generator(p: CoclosedParams) -> np.ndarray:
    """The source's diagonal 7x7 generator Q, internal basis order: slots
    (e7, e1, e2) carry ((-r+s+t)/2, (r+s-t)/2, (r-s+t)/2), (r, s, t) the
    coefficients of lap psi (`coflow._coefficients`), and n's slots vanish."""
    r, s, t = coflow._coefficients(p.as_array()).tolist()
    return np.diag([0.5 * (r + s - t), 0.5 * (r - s + t), 0, 0, 0, 0, 0.5 * (-r + s + t)])


def _norm_derivative_sign() -> dict:
    """(i) sign of dN/dt at the quoted near-degenerate point."""
    probe = CoclosedParams(0.01, 0.01, 1.0, -1.0, 2.0, -2.0)
    n_prime = float(2.0 * probe.as_array() @ _velocity(probe))
    return {
        "claim_id": "norm_derivative_sign_near_degenerate",
        "source_location": "flow discussion, remark on N along (a, a, 1, -1, c, -c)",
        "source_value": "dN/dt > 0 for small a, c > 1",
        "computed_value": n_prime,
        "agrees": bool(n_prime > 0),
    }


def _ode_coefficient_identity() -> dict:
    """(ii) the parameter ODE against the pairs scaled by Q."""
    rng = np.random.default_rng(2024)
    dev = 0.0
    for _ in range(200):
        p = CoclosedParams(*rng.uniform(-2, 2, size=6))
        # each pair is scaled by minus its slot of Q: a by e7, b by e1, c by e2
        rate = -np.diag(_generator(p))[[6, 6, 0, 0, 1, 1]] * p.as_array()
        dev = max(dev, float(np.max(np.abs(_velocity(p) - rate))))
    return {
        "claim_id": "ode_coefficient_identity",
        "source_location": "flow ODE display vs (r, s, t) quadratic forms",
        "source_value": "identical",
        "computed_value": dev,
        "agrees": bool(dev < 1e-13),
    }


def _soliton_count_range() -> dict:
    """(iii) soliton solution counts over a parameter grid."""
    counts = {}
    grid = np.linspace(-1.5, 1.5, 7).tolist()
    for a1 in grid:
        for a2 in grid:
            for b1 in grid:
                for b2 in grid:
                    n = len(soliton_candidates(a1, a2, b1, b2))
                    counts[n] = counts.get(n, 0) + 1
    return {
        "claim_id": "soliton_count_range",
        "source_location": "remark on solutions over each (a1, a2, b1, b2)",
        "source_value": "at least one and at most four",
        "computed_value": {str(k): v for k, v in sorted(counts.items())},
        "agrees": bool(min(counts) >= 1),
    }


def _printed_norm_derivative() -> dict:
    """(iv) the printed (1/2) dN/dt along the totally symmetric subfamily."""
    dev = 0.0
    both_nonpos = True
    grid = np.linspace(-1.5, 1.5, 7)
    for a in grid:
        for b in grid:
            for c in grid:
                p = CoclosedParams(a, a, b, -b, c, c)
                # reduced norm N = a^2 + b^2 + c^2 is half the parameter norm
                half_n_prime = 0.5 * float(p.as_array() @ _velocity(p))
                printed = (-2 * (a ** 4 + b ** 4) - 4 * c ** 4
                           + 2 * c * c * (a * a - b * b) + 4 * c * c * (b * b - a * a))
                dev = max(dev, abs(half_n_prime - printed))
                if half_n_prime > 1e-12 or printed > 1e-12:
                    both_nonpos = False
    return {
        "claim_id": "printed_norm_derivative_symmetric_family",
        "source_location": "example display for (1/2) dN/dt on (a, a, b, -b, c, c)",
        "source_value": "printed quartic expression",
        "computed_value": {"max_discrepancy": dev, "both_nonpositive": both_nonpos},
        "agrees": bool(dev < 1e-12),
    }


def _generator_sign_convention() -> dict:
    """(v) the sign linking the flow generator to the Laplacian."""
    p = CoclosedParams(0.7, -0.3, 1.1, 0.4, -0.6, 0.9)
    lap_psi = laplacians(p.to_triple())["psi"]
    q = _generator(p)
    plus = (lap_psi - forms.theta(-q, forms.PSI)).norm()
    minus = (lap_psi - forms.theta(q, forms.PSI)).norm()
    return {
        "claim_id": "generator_sign_convention",
        "source_location": "flow-generator identity lap psi = theta(Q) psi",
        "source_value": "holds in the derivation convention of the flow section",
        "computed_value": {
            "residual_dual_plus": plus,
            "residual_dual_minus": minus,
            "note": "identity holds for theta(-Q) in the covector convention "
                    "pinned by the curvature formula cross-checks; the "
                    "opposite sign yields -lap psi",
        },
        "agrees": bool(plus < 1e-10),
    }


def claims() -> list[dict]:
    """The five claims (i)-(v), in order."""
    return [_norm_derivative_sign(), _ode_coefficient_identity(), _soliton_count_range(),
            _printed_norm_derivative(), _generator_sign_convention()]
