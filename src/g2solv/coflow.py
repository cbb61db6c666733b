"""Laplacian coflow dynamics on the 6-parameter coclosed diagonal family.

Coclosed structures here are parametrized by (a1, a2, b1, b2, c1, c2) via

    A = Diag(a1, -a1, a2, -a2),
    B = Diag(b1, b2, -b1, -b2),
    C = Diag(c1, c2, -c2, -c1),

which is exactly the diagonal solution set of dpsi = 0.  The coflow
d/dt psi = lap psi preserves the family and closes into a cubic ODE on the
parameters; the ODE used by `integrate` is cross-validated against the
bracket-flow derivation (theta acting on the structure constants) in the test
suite rather than assumed.  `integrate` solves it with an in-module
Dormand-Prince 5(4) stepper (the RK45 method of Hairer, Norsett & Wanner,
Solving ODEs I, II.4), and the per-sample reports (N, F, r, s, t) are array
expressions over the whole trajectory.  The stepper rounds as scipy's RK45
does, step for step: the products scipy leaves to BLAS stay numpy products,
and the arithmetic between them runs on Python floats, with the rate taking
a list of 6 floats and returning a 6-tuple (see `_rk45`).

Sign convention: the derivation representation entering the soliton equation

    lap psi = lam psi + theta_plus(D) psi

is theta_plus(D) alpha = -theta(D) alpha for the covector convention of
`forms.theta` (equivalently theta(-D)).  This is the convention under which
the flow identity lap psi = theta_plus(Q) psi holds with the source's
generator Q, which `g2solv.audit` builds from `_coefficients`; with the
opposite sign the same identity produces -lap psi.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .forms import PSI, _scaled, _to_unit, theta
from .liealg import BracketTriple, _homothety
from .g2core import _norm, _unit_modified

# starts with |p| at or above this are rejected: the starting-step estimate
# squares the rate over the error scale, at most |p|^2 / _RTOL per entry, and
# six such squares, 6 |p|^4 / _RTOL^2, must stay below the float maximum
# 1.8e308 (at this bound they are 6e300)
_MAX_START = 1e70
_RTOL = 1e-10
_ATOL = 1e-12
# a run is "converged" when the drift of its end state (`_drift`) is below this
_DRIFT_TOL = 1e-6

# diagonals of (A, B, C): the parameter slot and the sign of each entry
_DIAGONAL_SLOTS = np.array([[0, 0, 1, 1], [2, 3, 2, 3], [4, 5, 5, 4]])
_DIAGONAL_SIGNS = np.array([[1.0, -1.0, 1.0, -1.0], [1.0, 1.0, -1.0, -1.0], [1.0, 1.0, -1.0, -1.0]])


def _diagonals(P: np.ndarray) -> np.ndarray:
    """Diagonals of (A, B, C) of parameter rows (..., 6), shape (..., 3, 4)."""
    return P.take(_DIAGONAL_SLOTS, axis=-1) * _DIAGONAL_SIGNS


@dataclass(frozen=True)
class CoclosedParams:
    """A point (a1, a2, b1, b2, c1, c2) of the coclosed family.

    Its triple is built once, on the first `to_triple`, by
    `BracketTriple.from_diagonals` of its diagonals, and then shared: the
    soliton fits read the triple's one lap psi, taken from the diagonal
    terms of the Laplacian table (`BracketTriple._unit_lap_psi`).
    """

    a1: float
    a2: float
    b1: float
    b2: float
    c1: float
    c2: float

    def as_array(self) -> np.ndarray:
        return np.array([self.a1, self.a2, self.b1, self.b2, self.c1, self.c2])

    @cached_property
    def _triple(self) -> BracketTriple:
        return BracketTriple.from_diagonals(_diagonals(self.as_array()))

    def to_triple(self) -> BracketTriple:
        """The triple (A, B, C), built on the first call (`from_diagonals`,
        which raises ValueError unless the parameters are finite); later
        calls return the same object."""
        return self._triple


def _coefficients(P: np.ndarray) -> np.ndarray:
    """Coefficients (r, s, t) of lap psi on the three self-dual components,

        lap psi = r w7^e12 - s w2^e17 + t w1^e27,

    for parameter rows (..., 6), shape (..., 3)."""
    a1, a2, b1, b2, c1, c2 = P.T
    return np.array([(b1 + b2) ** 2 + (c1 + c2) ** 2,
                     (a1 - a2) ** 2 + (b1 - b2) ** 2,
                     (a1 + a2) ** 2 + (c1 - c2) ** 2]).T


def _rate(y) -> tuple:
    """Velocity of the parameter ODE induced by the coflow at the 6 floats y,
    as a 6-tuple, in plain float arithmetic (`_rk45` calls it six times a
    step).  Derived from the bracket flow mu' = theta_plus(Q) mu: each of A, B, C is
    scaled by minus the a-slot of Q acting on its direction, giving

        ai' = (-(a1^2+a2^2) + 2 b1 b2 + 2 c1 c2) ai
        bi' = (-(b1^2+b2^2) + 2 a1 a2 - 2 c1 c2) bi
        ci' = (-(c1^2+c2^2) - 2 a1 a2 - 2 b1 b2) ci.
    """
    a1, a2, b1, b2, c1, c2 = y
    ab, bb, cc = 2.0 * a1 * a2, 2.0 * b1 * b2, 2.0 * c1 * c2
    ka = -(a1 * a1 + a2 * a2) + bb + cc
    kb = -(b1 * b1 + b2 * b2) + ab - cc
    kc = -(c1 * c1 + c2 * c2) - ab - bb
    return ka * a1, ka * a2, kb * b1, kb * b2, kc * c1, kc * c2


# Dormand-Prince 5(4) (J. Comput. Appl. Math. 6, 1980): stage weights,
# fifth-order weights, the weights of the error estimate (fifth minus fourth
# order, the FSAL stage last) and the coefficients of the quartic dense output,
# as in scipy's RK45.  The nodes are left out: the coflow rate does not depend
# on t.
_A = np.array([
    [0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]])
_A_ROWS = [_A[s, :s] for s in range(6)]
_B = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_E = np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200,
               -22 / 525, 1 / 40])
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]])


def _rms(x: np.ndarray) -> float:
    return math.sqrt(x @ x) / x.size ** 0.5


def _initial_step(rate, y, f, t_end) -> float:
    """Hairer's starting step (Solving ODEs I, II.4) for an order-4 estimate."""
    if t_end == 0.0:
        return 0.0
    scale = _ATOL + np.abs(y) * _RTOL
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    d2 = _rms((rate((y + h0 * f).tolist()) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, t_end)


def _rk45(rate, y0, t_end, t_eval):
    """Integrate y' = rate(y) from t = 0 to t_end in Dormand-Prince steps.

    Step for step scipy's RK45 at rtol = _RTOL and atol = _ATOL: the error
    is the RMS of the local estimate over atol + rtol max(|y_old|, |y_new|);
    an accepted step scales h by min(10, 0.9 err^(-1/5)), or by at most 1
    right after a rejection, and a rejected one by max(0.2, 0.9 err^(-1/5)).
    Integration fails early only when the step drops below 10 ulp of t.

    `rate` takes a list of floats and returns a sequence of as many.  The
    products that scipy's RK45 hands to BLAS stay numpy products: the stage
    sums K[:s]^T a_s, the solution sum K[:6]^T b, the error sum K^T e and
    the squared norm x.dot(x) of the scaled error (as `np.linalg.norm` takes
    it).  OpenBLAS rounds them with FMA and blocking, not as a sequential
    sum would, and the error estimate is a difference of nearly equal sums,
    with relative rounding noise of about 1e-6 at rtol = 1e-10:
    accept/reject decisions near err = 1 follow those last bits.  Everything
    between the products (the stage states, the error scale and its
    quotient, t, h and the 10-ulp floor) is plain float arithmetic, which
    rounds as numpy's elementwise operations do.

    Returns the states at the leading entries of the sorted times t_eval
    that were reached, the last state, and whether t_end was reached.
    Only the steps that contain one of the times t_eval keep their start and
    dense-output coefficients, so memory grows with the number of samples,
    not with the number of steps.
    """
    y0, t_end = np.asarray(y0, dtype=float), float(t_end)
    K = np.empty((7, y0.size))
    K[0] = rate(y0.tolist())
    t, h_abs = 0.0, _initial_step(rate, y0, K[0], t_end)
    y, root_n = y0.tolist(), y0.size ** 0.5
    # transposed views of the stage table, made once: stage s reads K[:s]
    stages = [(K[:s].T, _A_ROWS[s]) for s in range(1, 6)]
    K6T, KT = K[:6].T, K.T
    # a time belongs to the first step that ends at or after it
    wanted, covered = np.asarray(t_eval, dtype=float).tolist(), 0
    starts, ends, steps, states, coefs = [], [], [], [], []
    while t < t_end:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        while h_abs >= min_step:
            t_new = min(t + h_abs, t_end)
            h_abs = h = t_new - t
            for s, (Ks, a) in enumerate(stages, 1):
                K[s] = rate([yi + di * h for yi, di in zip(y, Ks.dot(a).tolist())])
            y_new = [yi + h * di for yi, di in zip(y, K6T.dot(_B).tolist())]
            K[6] = rate(y_new)
            x = np.array([ei * h / (_ATOL + max(abs(yi), abs(zi)) * _RTOL)
                          for ei, yi, zi in zip(KT.dot(_E).tolist(), y, y_new)])
            err = math.sqrt(x.dot(x)) / root_n
            if err < 1:
                factor = 10.0 if err == 0 else min(10.0, 0.9 * err ** (-1 / 5))
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** (-1 / 5))
            rejected = True
        else:  # the step size collapsed
            break
        reached = bisect.bisect_right(wanted, t_new, covered)
        if reached > covered:
            covered = reached
            starts.append(t)
            ends.append(t_new)
            steps.append(h)
            states.append(y)
            coefs.append(KT.dot(_P))
        t, y = t_new, y_new
        K[0] = K[6]  # first same as last: the new step's first stage
    starts, ends, steps = np.array(starts), np.array(ends), np.array(steps)
    states, coefs = np.array(states), np.array(coefs)

    ts = np.asarray(t_eval, dtype=float)
    ts = ts[:np.searchsorted(ts, t, side="right")]
    if len(steps):
        k = np.searchsorted(ends, ts)  # the step with start < t <= end
        x = (ts - starts[k]) / steps[k]
        powers = np.cumprod(np.repeat(x[:, None], 4, axis=1), axis=1)
        ys = states[k] + steps[k, None] * np.einsum("kij,kj->ki", coefs[k], powers)
    else:
        ys = np.tile(y, (len(ts), 1))
    return ys, y, t >= t_end


@dataclass
class FlowOptions:
    samples: int = 1001


@dataclass
class FlowTrajectory:
    times: np.ndarray
    params: np.ndarray  # shape (len(times), 6)
    status: str  # converged | max_time | diverged (the step size collapsed)

    def norms(self) -> np.ndarray:
        return np.einsum("ij,ij->i", self.params, self.params)

    def coefficients(self) -> np.ndarray:
        """(r, s, t) of lap psi per sample (see `_coefficients`), shape (n, 3)."""
        return _coefficients(self.params)

    def invariants(self) -> np.ndarray:
        """Homothety invariant per sample; NaN on flat points.  Diagonal
        matrices are normal, so a family point's Ricci n-block vanishes and
        its a-block is -W W^T, W its (3, 4) diagonals, taken per sample at
        unit scale by the rule of `forms._to_unit`."""
        W = _diagonals(self.params)
        e = np.frexp(np.abs(W).max(axis=(1, 2), initial=0.0))[1]
        W = np.ldexp(W, -e[:, None, None])
        gram = W @ W.swapaxes(1, 2)
        return _homothety(-np.trace(gram, axis1=1, axis2=2), np.einsum("kij,kij->k", gram, gram))


def _drift(y, t: float) -> float:
    """The distance the direction p/|p| still has to go, estimated at the
    state y at time t: the direction's speed |f - (y.f/|y|^2) y| / |y|, f the
    rate at y, times max(t, 1/|y|^2), the flow's own time scale as the rate
    is cubic; NaN at y = 0.  For an approach like 1/t that is the distance,
    and a faster one makes it the larger.  The speed is taken at unit scale
    (`forms._to_unit`), so a tiny state's rate does not underflow to 0, and
    scaled back by 4^e.  The stepper holds y to a relative `_RTOL`, so a
    speed up to 3 `_RTOL` |y|^2 is its error and counts as 0."""
    v, e = _to_unit(np.array(y))
    v = v.tolist()
    n = math.hypot(*v)
    if n == 0.0:
        return math.nan
    u, f = [vi / n for vi in v], _rate(v)
    c = sum(ui * fi for ui, fi in zip(u, f))
    speed = math.hypot(*(fi - c * ui for ui, fi in zip(u, f))) / n
    return (max(math.ldexp(speed, 2 * e) * t, speed / n / n)
            if speed > 3.0 * _RTOL * n * n else 0.0)


def integrate(p0: CoclosedParams, t_max: float, opts: FlowOptions | None = None) -> FlowTrajectory:
    """Integrate the coflow ODE from t = 0 to t_max with adaptive RK45
    steps, sampled at `opts.samples` equally spaced times.

    Raises ValueError, before any step, unless t_max is finite and
    nonnegative, the sample count is an integer of at least 2 (the first
    sample is the start and the last is t_max) and the start is finite with
    |p| below `_MAX_START`.

    |p| never grows along the flow: with the pair norms A = a1^2 + a2^2,
    B = b1^2 + b2^2 and C = c1^2 + c2^2 sorted as x >= y >= z,
    p . _rate(p) <= -(x-y)^2 - z^2 - 2yz <= 0, since |2 a1 a2| <= A and
    likewise for b and c.  So the status is "diverged" only when the step
    size collapses (the samples then stop there), "converged" when the
    direction p/|p| has settled, that is when `_drift` of the last step's
    end state is below `_DRIFT_TOL`, and "max_time" otherwise.  Neither
    depends on the sample count.
    """
    opts = opts or FlowOptions()
    if not 0.0 <= t_max < math.inf:
        raise ValueError(f"t_max must be finite and nonnegative, got {t_max!r}")
    if not isinstance(opts.samples, (int, np.integer)):
        raise ValueError(f"samples must be an integer, got {opts.samples!r}")
    if not opts.samples >= 2:
        raise ValueError(f"samples must be at least 2 (the start and t_max), got {opts.samples!r}")
    start = p0.as_array()
    if not np.isfinite(start).all():
        raise ValueError("the start must be finite")
    if not math.hypot(*start) < _MAX_START:
        raise ValueError(f"the start must have |p| below {_MAX_START:.3g}: "
                         "the step-size estimate would leave the float range")
    t_eval = np.linspace(0.0, t_max, opts.samples)
    params, y, ok = _rk45(_rate, start, t_max, t_eval)
    status = ("diverged" if not ok else
              "converged" if _drift(y, t_max) < _DRIFT_TOL else "max_time")
    return FlowTrajectory(times=t_eval[:len(params)], params=params, status=status)


@dataclass
class SolitonSolution:
    params: CoclosedParams
    lam: float
    d: float
    residual: float


@cache
def _soliton_tables() -> tuple[np.ndarray, np.ndarray]:
    """The matrix M whose columns are psi and theta_plus(E_k) psi =
    theta(-E_k) psi for the diagonal units E_3..E_6, and its pseudo-inverse:
    the right-hand side lam psi + theta_plus(D) psi of the soliton equation
    is M times (lam, d3..d6).  Built on first use, so a process that fits
    no soliton carries neither table nor the LAPACK code of the solve."""
    M = np.column_stack([PSI.vec, *(theta(-np.diag(e), PSI).vec for e in np.eye(4))])
    # M has full column rank, so its pseudo-inverse is (M^T M)^-1 M^T;
    # solving these 5x5 normal equations instead of calling an SVD (pinv or
    # lstsq) keeps about 0.9 MB of LAPACK workspace out of every process
    return M, np.linalg.solve(M.T @ M, M.T)


def _soliton_fit(target: np.ndarray, k: int) -> dict:
    """Least-squares fit of the 4-form 2^k target by lam psi +
    theta_plus(D) psi over the symmetric derivations D = Diag(0,0,0,d3..d6),
    taken on target and scaled back."""
    M, pinv = _soliton_tables()
    x = pinv.dot(target)
    res = _norm(M.dot(x) - target)
    x = _scaled(x, k)
    return {"residual": _scaled(res, k), "best_lambda": float(x[0]), "best_D": x[1:]}


def soliton_residual(p: CoclosedParams) -> dict:
    """Least-squares residual of lap psi = lam psi + theta_plus(D) psi."""
    t = p.to_triple()
    fit = _soliton_fit(t._unit_lap_psi, 2 * t.exponent)
    # the family's matrices are symmetric, so only the origin is flat
    fit["flat"] = not any((p.a1, p.a2, p.b1, p.b2, p.c1, p.c2))
    return fit


def modified_soliton_residual(p: CoclosedParams, m: float) -> dict:
    """Same least-squares problem for the modified-coflow stationary equation

        lap psi + 2 d((m - tr T) phi) = lam psi + theta_plus(D) psi,

    with m != 0.  tr T and dphi are read off rows of the torsion map's
    product, and lap psi is the triple's shared one; the fit is taken where
    the larger of the two terms is of order 1 (`g2core._unit_modified`)."""
    if m == 0:
        raise ValueError("m must be nonzero (m = 0 is the plain coflow)")
    return _soliton_fit(*_unit_modified(p.to_triple(), m))


def _candidates(a1: float, a2: float, b1: float, b2: float, e: int) -> list[tuple[float, float]]:
    """`soliton_candidates` of the base 2^e (a1, a2, b1, b2), given at unit
    scale (`_to_unit`)."""
    P = (a1 - a2) ** 2 - 4 * b1 * b2
    Q = (b1 - b2) ** 2 - 4 * a1 * a2
    if P < 0 or Q < 0:
        return []
    su, dv = math.sqrt(P), math.sqrt(Q)
    # a set of the two signs holds one 0.0 when the root vanishes, so the
    # pairs are deduplicated exactly, at any scale of the base
    pairs = {(0.5 * (x + y), 0.5 * (x - y)) for x in {su, -su} for y in {dv, -dv}}
    return sorted((_scaled(c1, e), _scaled(c2, e)) for c1, c2 in pairs)


def soliton_candidates(a1: float, a2: float, b1: float, b2: float) -> list[tuple[float, float]]:
    """The (c1, c2) pairs closing (a1, a2, b1, b2) into a soliton.

    The stationarity conditions reduce to

        (c1 + c2)^2 = (a1 - a2)^2 - 4 b1 b2
        (c1 - c2)^2 = (b1 - b2)^2 - 4 a1 a2,

    solvable iff both right-hand sides are nonnegative; the sign choices are
    enumerated and deduplicated when a square vanishes.  The list is empty
    when either right-hand side is negative.  The squares are taken on the
    unit base (`forms._to_unit`), so no intermediate overflows; a pair
    that itself leaves the float range raises ValueError.
    """
    u, e = _to_unit(np.array([a1, a2, b1, b2]))
    return _candidates(*u.tolist(), e)


def soliton_solve(a1: float, a2: float, b1: float, b2: float) -> list[SolitonSolution]:
    """All coclosed algebraic solitons over a fixed (a1, a2, b1, b2).

    Each candidate from `soliton_candidates` carries
    lam = 2((a1-a2)^2 + (b1-b2)^2) and the derivation entry d = -lam/4; the
    returned residual is the norm of lap psi - lam psi - theta_plus(D) psi,
    verified rather than assumed zero.  The base is taken to unit scale
    once, for the candidates and lam.  Each candidate's residual reads the
    lap psi of its triple (`CoclosedParams.to_triple`, built here), which
    the returned `params` keep, so that `soliton_residual` and
    `modified_soliton_residual` on them reuse it.  lam is taken on the unit
    base and the residual at the candidate's unit scale; either raises
    ValueError when it leaves the float range.
    """
    u, e = _to_unit(np.array([a1, a2, b1, b2]))
    u1, u2, v1, v2 = u.tolist()
    pairs = _candidates(u1, u2, v1, v2, e)
    lam = 2.0 * ((u1 - u2) ** 2 + (v1 - v2) ** 2)
    d = -lam / 4.0
    rhs = _soliton_tables()[0].dot([lam, d, d, d, d])
    lam, d = _scaled(lam, 2 * e), _scaled(d, 2 * e)
    out = []
    for c1, c2 in pairs:
        p = CoclosedParams(a1, a2, b1, b2, c1, c2)
        t = p.to_triple()
        k = t.exponent  # at least e: the point holds the base
        res = _norm(t._unit_lap_psi - _scaled(rhs, 2 * (e - k)))
        out.append(SolitonSolution(params=p, lam=lam, d=d, residual=_scaled(res, 2 * k)))
    return out
