"""The in-package RK45 stepper against scipy's solve_ivp, used as an oracle.

`integrate` runs the Dormand-Prince 5(4) method of scipy's RK45 step for step
(same tableau, initial step and step controller), so on the same problem the
two must sample the same times and agree far below the 1e-10 tolerance.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from reference_formulas import bracket_flow_rhs
from g2solv.coflow import (
    _DRIFT_TOL,
    CoclosedParams,
    FlowOptions,
    _rate,
    _rk45,
    integrate,
)

RTOL, ATOL = 1e-10, 1e-12
# |p| never grows along the coflow, so no coflow run gets near this; the
# oracle stops there, and a run that did would fail the status comparison
BLOWUP = 1e8


def blowup(_t, y):
    return float(y @ y) - BLOWUP


blowup.terminal = True
blowup.direction = 1.0


def oracle(rate, y0, t_max, samples, events=blowup):
    t_eval = np.linspace(0.0, t_max, samples)
    return solve_ivp(lambda _t, y: rate(y), (0.0, t_max), np.asarray(y0, float),
                     method="RK45", rtol=RTOL, atol=ATOL, t_eval=t_eval,
                     events=events, dense_output=True)


def oracle_status(sol, t_max):
    """The status rule of `integrate`, applied to scipy's end state y with
    the bracket-flow rate f: converged when the speed of y/|y|, times
    max(t_max, 1/|y|^2), is below the drift tolerance, a speed of at most
    3 RTOL |y|^2 counting as 0."""
    if not sol.success or len(sol.t_events[0]):
        return "diverged"
    y = sol.y[:, -1]
    f = bracket_flow_rhs(CoclosedParams(*y))
    n_sq = y @ y
    speed = np.linalg.norm(f - (y @ f / n_sq) * y) / np.sqrt(n_sq)
    if speed <= 3 * RTOL * n_sq:
        return "converged"
    return "converged" if speed * max(t_max, 1.0 / n_sq) < _DRIFT_TOL else "max_time"


def coflow_rate(y):
    return np.array(_rate(y))


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

    _rk45(counted, p0.as_array(), t_max, traj.times)
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

    _rk45(rate, np.full(6, start), t_end, np.array([t_end]))
    assert len(counted) == calls


def _square(y):
    return np.square(y)


def _inverse_sqrt_drop(y):
    return -0.5 / np.asarray(y)


def test_stepper_follows_a_fast_growth_to_the_end():
    # y' = y^2 has y1 = 1 / (2 - t) in the first slot, so |y|^2 passes 1e8
    # near t = 2 - 1e-4, before t_end, and y stays finite up to t_end: the
    # stepper runs on to t_end, as scipy does without events
    y0 = np.array([0.5, 0.3, 0.2, 0.1, 0.4, 0.45])
    t_end = 2.0 - 5e-5
    t_eval = np.linspace(0.0, t_end, 501)
    calls = []

    def counted(y):
        calls.append(None)
        return _square(y)

    ys, _, ok = _rk45(counted, y0, t_end, t_eval)
    sol = oracle(_square, y0, t_end, 501, events=None)
    assert sol.status == 0
    assert ok
    assert len(ys) == len(sol.t) == len(t_eval)
    assert np.abs(ys - sol.y.T).max() <= 1e-9 * np.abs(sol.y).max()
    assert len(calls) == sol.nfev == 2258


def test_stepper_fails_when_the_step_size_collapses():
    # y = sqrt(1 - t) has an infinite slope at t = 1 while |y| stays small
    y0 = np.array([1.0, 1.0])
    t_eval = np.linspace(0.0, 2.0, 201)
    ys, _, ok = _rk45(_inverse_sqrt_drop, y0, 2.0, t_eval)
    sol = oracle(_inverse_sqrt_drop, y0, 2.0, 201)
    assert sol.status == -1
    assert not ok
    assert len(ys) == len(sol.t) < len(t_eval)
    assert np.abs(ys - sol.y.T).max() <= 1e-9 * np.abs(sol.y).max()
