"""The in-package RK45 stepper against scipy's solve_ivp, used as an oracle.

`integrate` runs the Dormand-Prince 5(4) method of scipy's RK45 step for step
(same tableau, initial step and step controller), so on the same problem the
two must sample the same times and agree far below the 1e-10 tolerance.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from g2solv.coflow import (
    _BLOWUP,
    _DRIFT_TOL,
    _WINDOW,
    CoclosedParams,
    FlowOptions,
    _rate,
    _rk45,
    integrate,
    ode_rhs,
)

RTOL, ATOL = 1e-10, 1e-12


def blowup(_t, y):
    return float(y @ y) - _BLOWUP


blowup.terminal = True
blowup.direction = 1.0


def oracle(rate, y0, t_max, samples):
    t_eval = np.linspace(0.0, t_max, samples)
    return solve_ivp(lambda _t, y: rate(y), (0.0, t_max), np.asarray(y0, float),
                     method="RK45", rtol=RTOL, atol=ATOL, t_eval=t_eval,
                     events=blowup, dense_output=True)


def oracle_status(sol, t_max):
    """The status rule of `integrate`, applied to scipy's dense output."""
    if not sol.success or len(sol.t_events[0]):
        return "diverged"
    pts = sol.sol(np.linspace(max(0.0, t_max - _WINDOW), t_max, 11)).T
    dirs = pts / np.linalg.norm(pts, axis=1)[:, None]
    drift = np.abs(dirs - dirs[-1]).max()
    return "converged" if drift * t_max / _WINDOW < _DRIFT_TOL else "max_time"


def coflow_rate(y):
    return ode_rhs(CoclosedParams(*y))


def assert_matches_oracle(p0, t_max, samples):
    traj = integrate(p0, t_max, FlowOptions(samples=samples))
    sol = oracle(coflow_rate, p0.as_array(), t_max, samples)
    assert np.array_equal(traj.times, sol.t)
    assert traj.status == oracle_status(sol, t_max)
    assert np.abs(traj.params - sol.y.T).max() <= 1e-9 * np.abs(sol.y).max()
    # step for step: a different step-size sequence would stay within the
    # tolerance above but would not evaluate the rate as often
    calls = []

    def counted(y):
        calls.append(None)
        return coflow_rate(y)

    _rk45(counted, p0.as_array(), t_max, traj.times, RTOL, ATOL)
    assert len(calls) == sol.nfev


def seeded_starts(n=32, seed=6):
    """n starts ~ U(-1.5, 1.5)^6, then 8 at 1/100 and 8 at 3 times that scale,
    then one on the soliton ray f (1, 1, 1, -1, 1, 1) that the flow sweep
    samples, with f ~ U(0.3, 1.5)."""
    rng = np.random.default_rng(seed)
    rows = [rng.uniform(-1.5, 1.5, size=6) for _ in range(n)]
    rows += [scale * rng.uniform(-1.5, 1.5, size=6) for scale in (0.01, 3.0) for _ in range(8)]
    rows.append(rng.uniform(0.3, 1.5) * np.array([1.0, 1.0, 1.0, -1.0, 1.0, 1.0]))
    return [CoclosedParams(*row) for row in rows]


@pytest.mark.parametrize("p0", seeded_starts())
def test_integrate_matches_solve_ivp_on_random_starts(p0):
    assert_matches_oracle(p0, 50.0, 101)


def test_integrate_matches_solve_ivp_on_criterion_6_run_1():
    assert_matches_oracle(CoclosedParams(2.0, 2.0, 1.0, -1.0, 0.5, 0.5), 2000.0, 2001)


def test_integrate_matches_solve_ivp_on_the_symmetric_family():
    # this start converges: the oracle's status rule says so too
    assert_matches_oracle(CoclosedParams(1.0, 1.0, 2.0, 2.0, 1.0, 1.0), 50.0, 501)


@pytest.mark.parametrize("start, t_end, calls", [(1.0, 1000.0, 9848), (10.0, 10.0, 18578)])
def test_stiff_runs_take_the_documented_rate_calls(start, t_end, calls):
    # the README's counts: near a nonzero stationary point the steps are held
    # at the stability limit, the longest runs and the most accept/reject
    # decisions near err = 1, where a changed last bit would show
    counted = []

    def rate(y):
        counted.append(None)
        return _rate(y)

    _rk45(rate, np.full(6, start), t_end, np.array([t_end]), RTOL, ATOL)
    assert len(counted) == calls


def _square(y):
    return np.square(y)


def _inverse_sqrt_drop(y):
    return -0.5 / np.asarray(y)


def test_stepper_stops_at_a_blowup_like_a_terminal_event():
    # y' = y^2 has y1 = 1 / (2 - t) in the first slot, so |y|^2 passes 1e8
    # near t = 2 - 1e-4, before t_end; y stays finite up to t_end, so only
    # the blow-up guard ends the run.  The coflow itself never gets there,
    # since N does not increase along it.
    y0 = np.array([0.5, 0.3, 0.2, 0.1, 0.4, 0.45])
    t_end = 2.0 - 5e-5
    t_eval = np.linspace(0.0, t_end, 501)
    ys, _, ok = _rk45(_square, y0, t_end, t_eval, RTOL, ATOL)
    sol = oracle(_square, y0, t_end, 501)
    assert sol.status == 1 and len(sol.t_events[0]) == 1
    assert not ok
    assert len(ys) == len(sol.t) < len(t_eval)
    assert np.abs(ys - sol.y.T).max() <= 1e-9 * np.abs(sol.y).max()


def test_stepper_fails_when_the_step_size_collapses():
    # y = sqrt(1 - t) has an infinite slope at t = 1 while |y| stays small
    y0 = np.array([1.0, 1.0])
    t_eval = np.linspace(0.0, 2.0, 201)
    ys, _, ok = _rk45(_inverse_sqrt_drop, y0, 2.0, t_eval, RTOL, ATOL)
    sol = oracle(_inverse_sqrt_drop, y0, 2.0, 201)
    assert sol.status == -1
    assert not ok
    assert len(ys) == len(sol.t) < len(t_eval)
    assert np.abs(ys - sol.y.T).max() <= 1e-9 * np.abs(sol.y).max()
