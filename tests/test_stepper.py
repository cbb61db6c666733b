"""The in-package RK45 stepper against scipy's solve_ivp, used as an oracle.

`integrate` runs the Dormand-Prince 5(4) method of scipy's RK45 step for step
(same tableau, initial step and step controller), so on the same problem the
two must sample the same times and agree far below the 1e-10 tolerance.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from reference_formulas import bracket_flow_rhs
from g2solv import coflow
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


def staged(f):
    """A rate of `_rk45`'s protocol, rate(y) or rate(y, d, h) at the stage
    state y + h d, from the one-argument rate f: the stage state is built as
    a list, yi + di h entry by entry, and passed to f."""
    def rate(y, d=None, h=0.0):
        return f(y if d is None else [yi + di * h for yi, di in zip(y, d)])
    return rate


def assert_matches_oracle(p0, t_max, samples):
    traj = integrate(p0, t_max, FlowOptions(samples=samples))
    sol = oracle(coflow_rate, p0.as_array(), t_max, samples)
    assert np.array_equal(traj.times, sol.t)
    assert traj.status == oracle_status(sol, t_max)
    assert np.abs(traj.params - sol.y.T).max() <= 1e-9 * np.abs(sol.y).max()
    # step for step: a different step-size sequence would stay within the
    # tolerance above but would not evaluate the rate as often
    calls = []

    def counted(y, d=None, h=0.0):
        calls.append(None)
        return np.array(_rate(y, d, h))

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

    def rate(y, d=None, h=0.0):
        counted.append(None)
        return _rate(y, d, h)

    _rk45(rate, np.full(6, start), t_end, np.array([t_end]))
    assert len(counted) == calls


@staged
def _square(y):
    return np.square(y)


@staged
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

    def counted(y, d=None, h=0.0):
        calls.append(None)
        return _square(y, d, h)

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


@pytest.mark.parametrize("p0", [*seeded_starts(), CoclosedParams(-0.0, 0.7, 0.0, -0.0, -0.4, 1.1),
                                CoclosedParams(*[1.0] * 6)])
def test_the_stage_formed_inside_the_rate_changes_no_bit(p0, monkeypatch):
    # the reference forms each stage state as a list and calls one-argument
    # `_rate`; integrate's samples, end state and status equal its run bit
    # for bit, signed zeros included
    t_eval = np.linspace(0.0, 50.0, 101)
    fused = integrate(p0, 50.0, FlowOptions(samples=101))
    _, fused_end, fused_ok = _rk45(_rate, p0.as_array(), 50.0, t_eval)
    monkeypatch.setattr(coflow, "_rate", staged(_rate))
    reference = integrate(p0, 50.0, FlowOptions(samples=101))
    _, reference_end, reference_ok = _rk45(coflow._rate, p0.as_array(), 50.0, t_eval)
    assert fused.times.tobytes() == reference.times.tobytes()
    assert fused.params.tobytes() == reference.params.tobytes()
    assert fused.status == reference.status
    assert np.array(fused_end).tobytes() == np.array(reference_end).tobytes()
    assert fused_ok == reference_ok


def test_integrate_runs_the_one_rate_function(monkeypatch):
    # with `_rate` negated, integrate runs the flow backwards: the trajectory
    # changes, and the forward flow from its end comes back to the start,
    # which a stage with a copy of the formula of its own would not allow
    # (its steps would shrink to about 1e-8: hence the short run)
    p0, t_max = CoclosedParams(0.3, -0.2, 0.25, 0.1, -0.15, 0.2), 1e-3
    forward = integrate(p0, t_max)
    rate = coflow._rate
    with monkeypatch.context() as m:
        m.setattr(coflow, "_rate", lambda y, d=None, h=0.0: tuple(-v for v in rate(y, d, h)))
        backward = integrate(p0, t_max)
    assert np.abs(forward.params[-1] - backward.params[-1]).max() > 1e-5
    back = integrate(CoclosedParams(*backward.params[-1]), t_max)
    assert np.abs(back.params[-1] - p0.as_array()).max() <= 1e-12
