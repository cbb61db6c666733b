"""Laplacian coflow dynamics on the 6-parameter coclosed diagonal family.

Coclosed structures here are parametrized by (a1, a2, b1, b2, c1, c2) via

    A = Diag(a1, -a1, a2, -a2),
    B = Diag(b1, b2, -b1, -b2),
    C = Diag(c1, c2, -c2, -c1),

which is exactly the diagonal solution set of dpsi = 0.  The coflow
d/dt psi = lap psi preserves the family and closes into a cubic ODE on the
parameters; the ODE used by `integrate` is cross-validated against the
bracket-flow derivation (theta acting on the structure constants) in the test
suite rather than assumed.

Sign convention: the derivation representation entering the soliton equation

    lap psi = lam psi + theta_plus(D) psi

is theta_plus(D) alpha = -theta(D) alpha for the covector convention of
`forms.theta` (equivalently theta(-D)).  This is the convention under which
the flow identity lap psi = theta_plus(Q) psi holds with the generator Q
below; with the opposite sign the same identity produces -lap psi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .forms import PSI, KForm, theta
from .liealg import BracketTriple, homothety_invariant
from .g2core import laplacians, modified_laplacian_psi

_BLOWUP = 1e8


@dataclass(frozen=True)
class CoclosedParams:
    a1: float
    a2: float
    b1: float
    b2: float
    c1: float
    c2: float

    def as_array(self) -> np.ndarray:
        return np.array([self.a1, self.a2, self.b1, self.b2, self.c1, self.c2])

    @staticmethod
    def from_array(p) -> "CoclosedParams":
        return CoclosedParams(*(float(x) for x in p))

    def to_triple(self) -> BracketTriple:
        a1, a2, b1, b2, c1, c2 = self.as_array()
        return BracketTriple(
            np.diag([a1, -a1, a2, -a2]),
            np.diag([b1, b2, -b1, -b2]),
            np.diag([c1, c2, -c2, -c1]),
        )

    def norm_sq(self) -> float:
        p = self.as_array()
        return float(p @ p)


def laplacian_coefficients(p: CoclosedParams) -> tuple[float, float, float]:
    """Coefficients (r, s, t) of lap psi on the three self-dual components:

        lap psi = r w7^e12 - s w2^e17 + t w1^e27.
    """
    r = (p.b1 + p.b2) ** 2 + (p.c1 + p.c2) ** 2
    s = (p.a1 - p.a2) ** 2 + (p.b1 - p.b2) ** 2
    t = (p.a1 + p.a2) ** 2 + (p.c1 - p.c2) ** 2
    return r, s, t


def flow_generator(p: CoclosedParams) -> np.ndarray:
    """Diagonal 7x7 matrix Q driving the bracket flow, internal basis order.

    Slots (e7, e1, e2) carry ((-r+s+t)/2, (r+s-t)/2, (r-s+t)/2); the nilpotent
    slots vanish.  The identity lap psi = theta(-Q) psi is validated in tests.
    """
    r, s, t = laplacian_coefficients(p)
    q = np.zeros((7, 7))
    q[6, 6] = 0.5 * (-r + s + t)
    q[0, 0] = 0.5 * (r + s - t)
    q[1, 1] = 0.5 * (r - s + t)
    return q


def ode_rhs(p: CoclosedParams) -> np.ndarray:
    """Right-hand side of the parameter ODE induced by the coflow.

    Derived from the bracket flow mu' = theta_plus(Q) mu: each of A, B, C is
    scaled by minus the a-slot of Q acting on its direction, giving

        ai' = (-(a1^2+a2^2) + 2 b1 b2 + 2 c1 c2) ai
        bi' = (-(b1^2+b2^2) + 2 a1 a2 - 2 c1 c2) bi
        ci' = (-(c1^2+c2^2) - 2 a1 a2 - 2 b1 b2) ci.
    """
    a1, a2, b1, b2, c1, c2 = p.as_array()
    ka = -(a1 * a1 + a2 * a2) + 2 * b1 * b2 + 2 * c1 * c2
    kb = -(b1 * b1 + b2 * b2) + 2 * a1 * a2 - 2 * c1 * c2
    kc = -(c1 * c1 + c2 * c2) - 2 * a1 * a2 - 2 * b1 * b2
    return np.array([ka * a1, ka * a2, kb * b1, kb * b2, kc * c1, kc * c2])


@dataclass
class FlowOptions:
    rtol: float = 1e-10
    atol: float = 1e-12
    samples: int = 1001
    window: float = 10.0
    drift_tol: float = 1e-6


@dataclass
class FlowTrajectory:
    times: np.ndarray
    params: np.ndarray  # shape (len(times), 6)
    status: str  # converged | max_time | diverged
    window: float

    def norms(self) -> np.ndarray:
        return np.einsum("ij,ij->i", self.params, self.params)

    def coefficients(self) -> np.ndarray:
        out = np.empty((len(self.times), 3))
        for i, row in enumerate(self.params):
            out[i] = laplacian_coefficients(CoclosedParams.from_array(row))
        return out

    def invariants(self) -> np.ndarray:
        """Homothety invariant per sample; NaN on flat points."""
        out = np.empty(len(self.times))
        for i, row in enumerate(self.params):
            try:
                out[i] = homothety_invariant(CoclosedParams.from_array(row).to_triple())
            except ValueError:
                out[i] = np.nan
        return out


def integrate(p0: CoclosedParams, t_max: float, opts: FlowOptions | None = None) -> FlowTrajectory:
    """Integrate the coflow ODE with an adaptive RK45 pair."""
    opts = opts or FlowOptions()

    def rhs(_t, y):
        return ode_rhs(CoclosedParams.from_array(y))

    def blowup(_t, y):
        return float(y @ y) - _BLOWUP

    blowup.terminal = True
    blowup.direction = 1.0

    t_eval = np.linspace(0.0, t_max, opts.samples)
    sol = solve_ivp(
        rhs,
        (0.0, t_max),
        p0.as_array(),
        method="RK45",
        rtol=opts.rtol,
        atol=opts.atol,
        t_eval=t_eval,
        events=blowup,
        dense_output=False,
    )
    if not sol.success or (sol.t_events and len(sol.t_events[0])):
        status = "diverged"
    else:
        status = "max_time"
        # trailing-window drift of the normalized state
        mask = sol.t >= sol.t[-1] - opts.window
        pts = sol.y.T[mask]
        norms = np.linalg.norm(pts, axis=1)
        if norms.min() > 0:
            dirs = pts / norms[:, None]
            drift = np.abs(dirs - dirs[-1]).max()
            if drift < opts.drift_tol:
                status = "converged"
    return FlowTrajectory(times=sol.t, params=sol.y.T, status=status, window=opts.window)


def normalized_limit(traj: FlowTrajectory) -> dict:
    """Final direction p/|p| and its worst deviation over the trailing window."""
    if traj.status == "diverged":
        raise ValueError("trajectory diverged; no normalized limit")
    if len(traj.times) < 2:
        raise ValueError("trajectory too short")
    norms = np.linalg.norm(traj.params, axis=1)
    if norms[-1] == 0.0:
        raise ValueError("trajectory reached the flat point")
    dirs = traj.params / norms[:, None]
    mask = traj.times >= traj.times[-1] - traj.window
    drift = float(np.linalg.norm(dirs[mask] - dirs[-1], axis=1).max())
    return {"direction": dirs[-1], "window_drift": drift}


def conserved_ab(traj: FlowTrajectory, tol: float = 1e-7) -> dict:
    """Drift of the product a*b along a trajectory of the symmetric subfamily
    (a, a, b, b, c1, c2).  Errors out when the trajectory leaves the family."""
    P = traj.params
    scale = max(1.0, float(np.abs(P).max()))
    if (np.abs(P[:, 0] - P[:, 1]).max() > tol * scale
            or np.abs(P[:, 2] - P[:, 3]).max() > tol * scale):
        raise ValueError("trajectory is not in the (a,a,b,b,c1,c2) family")
    ab = P[:, 0] * P[:, 2]
    return {"value": float(ab[-1]), "drift": float(np.abs(ab - ab[0]).max())}


@dataclass
class SolitonSolution:
    params: CoclosedParams
    lam: float
    d: float
    residual: float


# psi and theta_plus(E_k) psi = theta(-E_k) psi for the diagonal units
# E_3..E_6: the right-hand side lam psi + theta_plus(D) psi of the soliton
# equation is linear in them.
_SOLITON_BASIS = (PSI, *(theta(-np.diag(e), PSI) for e in np.eye(4)))


def _soliton_fit(target: KForm) -> dict:
    """Least-squares fit of target by lam psi + theta_plus(D) psi over the
    symmetric derivations D = Diag(0,0,0,d3..d6)."""
    keys = sorted(set().union(target.coeffs, *(b.coeffs for b in _SOLITON_BASIS)))
    M = np.array([[b.coeffs.get(I, 0.0) for b in _SOLITON_BASIS] for I in keys])
    y = np.array([target.coeffs.get(I, 0.0) for I in keys])
    x, *_ = np.linalg.lstsq(M, y, rcond=None)
    return {
        "residual": float(np.linalg.norm(M @ x - y)),
        "best_lambda": float(x[0]),
        "best_D": x[1:].copy(),
    }


def soliton_residual(p: CoclosedParams) -> dict:
    """Least-squares residual of lap psi = lam psi + theta_plus(D) psi."""
    fit = _soliton_fit(laplacians(p.to_triple())["psi"])
    fit["flat"] = p.norm_sq() < 1e-20
    return fit


def modified_soliton_residual(p: CoclosedParams, m: float) -> dict:
    """Same least-squares problem for the modified-coflow stationary equation

        lap psi + 2 d((m - tr T) phi) = lam psi + theta_plus(D) psi,

    with m != 0.  tr T and dphi are taken from the structure itself."""
    if m == 0:
        raise ValueError("m must be nonzero (m = 0 is the plain coflow)")
    return _soliton_fit(modified_laplacian_psi(p.to_triple(), m))


def soliton_candidates(a1: float, a2: float, b1: float, b2: float) -> list[tuple[float, float]]:
    """The (c1, c2) pairs closing (a1, a2, b1, b2) into a soliton.

    The stationarity conditions reduce to

        (c1 + c2)^2 = (a1 - a2)^2 - 4 b1 b2
        (c1 - c2)^2 = (b1 - b2)^2 - 4 a1 a2,

    solvable iff both right-hand sides are nonnegative; the sign choices are
    enumerated and deduplicated when a square vanishes.  The list is empty
    when either right-hand side is negative.
    """
    P = (a1 - a2) ** 2 - 4 * b1 * b2
    Q = (b1 - b2) ** 2 - 4 * a1 * a2
    if P < 0 or Q < 0:
        return []
    su, dv = np.sqrt(P), np.sqrt(Q)
    pairs = set()
    for sg1 in (su, -su):
        for sg2 in (dv, -dv):
            c1 = 0.5 * (sg1 + sg2)
            c2 = 0.5 * (sg1 - sg2)
            pairs.add((round(c1, 15), round(c2, 15)))
    return sorted(pairs)


def soliton_solve(a1: float, a2: float, b1: float, b2: float) -> list[SolitonSolution]:
    """All coclosed algebraic solitons over a fixed (a1, a2, b1, b2).

    Each candidate from `soliton_candidates` carries
    lam = 2((a1-a2)^2 + (b1-b2)^2) and the derivation entry d = -lam/4; the
    returned residual is the verified norm of lap psi - lam psi -
    theta_plus(D) psi computed through the full form pipeline, not assumed
    zero.
    """
    pairs = soliton_candidates(a1, a2, b1, b2)
    lam = 2.0 * ((a1 - a2) ** 2 + (b1 - b2) ** 2)
    d = -lam / 4.0
    rhs = lam * PSI + d * sum(_SOLITON_BASIS[2:], _SOLITON_BASIS[1])
    out = []
    for c1, c2 in pairs:
        p = CoclosedParams(a1, a2, b1, b2, c1, c2)
        res = (laplacians(p.to_triple())["psi"] - rhs).norm()
        out.append(SolitonSolution(params=p, lam=lam, d=d, residual=res))
    return out
