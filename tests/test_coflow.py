"""Coflow dynamics, conserved quantities and algebraic solitons."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dense_oracle as dz
from reference_formulas import (
    bracket_flow_generator,
    bracket_flow_rhs,
    coclosed_coefficients,
    coclosed_lap_psi,
    monomial,
)
from g2solv import coflow, forms, g2core, tables
from g2solv.coflow import (
    CoclosedParams,
    FlowOptions,
    FlowTrajectory,
    _drift,
    _rate,
    integrate,
    modified_soliton_residual,
    soliton_candidates,
    soliton_residual,
    soliton_solve,
)
from g2solv.forms import theta, wedge
from g2solv.g2core import closed_triple, laplacians
from g2solv.liealg import BracketTriple, ce_differential, homothety_invariant

SOLITON = CoclosedParams(1.0, 1.0, 1.0, -1.0, 1.0, 1.0)

W7 = monomial((3, 4)) + monomial((5, 6))
W1 = monomial((3, 5)) - monomial((4, 6))
W2 = -monomial((3, 6)) - monomial((4, 5))


def rate(p):
    return np.array(_rate(p.as_array().tolist()))


def norm_sq(p):
    return float(p.as_array() @ p.as_array())


def params_st():
    coord = st.floats(min_value=-3.0, max_value=3.0,
                      allow_nan=False, allow_infinity=False)
    return st.tuples(coord, coord, coord, coord, coord, coord).map(
        lambda t: CoclosedParams(*t))


# -- the parameter family -----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(params_st())
def test_family_is_coclosed(p):
    assert ce_differential(p.to_triple(), forms.PSI).norm() < 1e-12


def test_coefficients_at_the_soliton_point():
    assert coclosed_coefficients(SOLITON) == (4.0, 4.0, 4.0)


@settings(max_examples=60, deadline=None)
@given(params_st())
def test_laplacian_matches_selfdual_expansion(p):
    r, s, t = coclosed_coefficients(p)
    expect = (r * wedge(W7, monomial((1, 2)))
              - s * wedge(W2, monomial((1, 7)))
              + t * wedge(W1, monomial((2, 7))))
    lap = laplacians(p.to_triple())["psi"]
    assert (lap - expect).norm() < 1e-10 * max(1.0, norm_sq(p))


@settings(max_examples=60, deadline=None)
@given(params_st())
def test_laplacian_equals_generator_action(p):
    lap = laplacians(p.to_triple())["psi"]
    qa, qb, qc = bracket_flow_generator(p)
    gen = theta(-np.diag([qb, qc, 0.0, 0.0, 0.0, 0.0, qa]), forms.PSI)
    assert (lap - gen).norm() < 1e-10 * max(1.0, norm_sq(p))


# -- the ODE ------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(params_st())
def test_bracket_flow_oracle_generates_the_reference_laplacian(p):
    qa, qb, qc = bracket_flow_generator(p)
    gen = theta(-np.diag([qb, qc, 0.0, 0.0, 0.0, 0.0, qa]), forms.PSI)
    assert (gen - coclosed_lap_psi(p)).norm() < 1e-10 * max(1.0, norm_sq(p))


@settings(max_examples=100, deadline=None)
@given(params_st())
def test_ode_agrees_with_bracket_flow(p):
    scale = max(1.0, norm_sq(p) ** 1.5)
    assert np.abs(rate(p) - bracket_flow_rhs(p)).max() < 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(params_st(), st.floats(min_value=-2.0, max_value=2.0))
def test_ode_is_cubically_homogeneous(p, c):
    lhs = rate(CoclosedParams(*c * p.as_array()))
    rhs = c ** 3 * rate(p)
    assert np.abs(lhs - rhs).max() < 1e-10 * max(1.0, abs(c) ** 3 * norm_sq(p) ** 1.5)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.just(0.0), st.floats(min_value=-2.0, max_value=2.0)),
                min_size=6, max_size=6))
@example([1.0, 1.0, 1.0, 1.0, 0.0, 0.0])  # the bound holds with equality
@example([2.0, 2.0, 1.0, -1.0, 0.5, 0.5])  # criterion 6's start
def test_the_norm_never_grows(p):
    # the ODE of `_rate`'s docstring, in exact arithmetic: with the pair
    # norms A, B, C sorted as x >= y >= z, p.F <= -(x-y)^2 - z^2 - 2yz <= 0
    a1, a2, b1, b2, c1, c2 = q = [Fraction(x) for x in p]
    A, B, C = a1 * a1 + a2 * a2, b1 * b1 + b2 * b2, c1 * c1 + c2 * c2
    al, be, ga = 2 * a1 * a2, 2 * b1 * b2, 2 * c1 * c2
    ka, kb, kc = -A + be + ga, -B + al - ga, -C - al - be
    F = (ka * a1, ka * a2, kb * b1, kb * b2, kc * c1, kc * c2)
    x, y, z = sorted((A, B, C), reverse=True)
    assert sum(v * f for v, f in zip(q, F)) <= -(x - y) ** 2 - z * z - 2 * y * z <= 0
    # the float rate keeps the sign up to rounding
    assert sum(v * f for v, f in zip(p, _rate(p))) <= 1e-15 * math.fsum(v * v for v in p) ** 2


def test_linearization_at_the_soliton_on_its_slice():
    # The slice (a, a, b, -b, c, c) is invariant, and at the soliton the
    # transverse eigenvalues share the radial real part -6: the direction of
    # a nearby trajectory approaches the soliton ray only like 1/t.
    def on_slice(x):
        a, b, c = x
        v = rate(CoclosedParams(a, a, b, -b, c, c))
        assert np.allclose(v[[1, 3, 5]], v[[0, 2, 4]] * [1.0, -1.0, 1.0], rtol=0, atol=1e-12)
        return v[[0, 2, 4]]

    x0, h = np.ones(3), 1e-5
    jac = np.column_stack([(on_slice(x0 + h * e) - on_slice(x0 - h * e)) / (2 * h)
                           for e in np.eye(3)])
    eig = np.linalg.eigvals(jac)
    eig = eig[np.argsort(eig.imag)]
    expect = np.array([-6.0 - 4j * np.sqrt(3), -6.0, -6.0 + 4j * np.sqrt(3)])
    assert np.abs(eig - expect).max() < 1e-6


# -- trajectories -------------------------------------------------------------------


def test_norm_decreases_along_the_flow():
    traj = integrate(CoclosedParams(2.0, 2.0, 1.0, -1.0, 0.5, 0.5), 50.0,
                     FlowOptions(samples=501))
    n = traj.norms()
    assert np.diff(n).max() <= 1e-9
    assert n[-1] < n[0]


def test_symmetric_family_converges_to_the_split_direction():
    traj = integrate(CoclosedParams(1.0, 1.0, 2.0, 2.0, 1.0, 1.0), 50.0,
                     FlowOptions(samples=501))
    assert traj.status == "converged"
    final = traj.params[-1]
    target = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0]) / 2.0
    assert np.abs(final / np.linalg.norm(final) - target).max() < 1e-8
    assert _drift(final.tolist(), float(traj.times[-1])) < 1e-8


def test_an_algebraic_approach_is_not_called_converged():
    # On the slice (a, a, b, -b, c, c) the direction nears the soliton ray like
    # 1/t while it turns by sqrt(3) ln t, so at t = 2000 its speed is small
    # while it is still 9.4e-5 from its limit: t times the speed is 1.9e-4.
    traj = integrate(CoclosedParams(2.0, 2.0, 1.0, -1.0, 0.5, 0.5), 2000.0,
                     FlowOptions(samples=2001))
    assert traj.status == "max_time"


@pytest.mark.parametrize("samples", [3, 101, 2001])
def test_status_does_not_depend_on_the_sample_count(samples):
    # the drift is read from the last step's end state and its rate, which
    # the samples do not change
    algebraic = integrate(CoclosedParams(2.0, 2.0, 1.0, -1.0, 0.5, 0.5), 2000.0,
                          FlowOptions(samples=samples))
    assert algebraic.status == "max_time"
    assert len(algebraic.times) == samples
    settled = integrate(CoclosedParams(1.0, 1.0, 2.0, 2.0, 1.0, 1.0), 50.0,
                        FlowOptions(samples=samples))
    assert settled.status == "converged"


def test_drift_does_not_depend_on_the_sample_count():
    # the last sample is the dense output at the end of the last step, which
    # the steps fix whatever the sample count; 1.9e-4 is t times the speed of
    # the direction, about twice its distance to the limit (it also turns)
    start = CoclosedParams(2.0, 2.0, 1.0, -1.0, 0.5, 0.5)
    trajs = [integrate(start, 2000.0, FlowOptions(samples=n)) for n in (3, 101, 2001)]
    drifts = [_drift(traj.params[-1].tolist(), float(traj.times[-1])) for traj in trajs]
    assert drifts[0] == drifts[1] == drifts[2]
    assert 1e-4 < drifts[0] < 1e-3


@pytest.mark.parametrize("t_max", [0.0, 1e-3])
def test_a_short_run_converges_only_from_a_stationary_direction(t_max):
    # a run shorter than the flow's time scale 1/|p|^2 has not shown that its
    # direction settled: only a start on a soliton ray has a still direction
    moving = integrate(CoclosedParams(0.7, -0.3, 1.1, 0.4, -0.6, 0.9), t_max)
    assert moving.status == "max_time"
    assert integrate(SOLITON, t_max).status == "converged"


def test_a_tiny_moving_start_is_not_called_converged():
    # below |p| ~ 1e-103 the rate underflows to 0 and the state freezes; the
    # direction's speed is read at unit scale, where it does not
    tiny = CoclosedParams(*(1e-160 * x for x in (0.7, -0.3, 1.1, 0.4, -0.6, 0.9)))
    assert integrate(tiny, 1.0).status == "max_time"
    ray = CoclosedParams(*(1e-160 * SOLITON.as_array()))
    assert integrate(ray, 1.0).status == "converged"


def _nonzero_or_normal(lo, hi):
    # 2^k x stays exact for |k| <= 400 when x is 0 or at least 2^-100
    return st.floats(min_value=lo, max_value=hi).filter(
        lambda x: x == 0.0 or abs(x) >= 2.0 ** -100)


@settings(max_examples=200, deadline=None)
@given(st.lists(_nonzero_or_normal(-2.0, 2.0), min_size=6, max_size=6).filter(any),
       _nonzero_or_normal(0.0, 100.0), st.sampled_from([-400, -20, 20, 200]))
def test_drift_is_scale_free(y, t, k):
    # the rate is cubic, so 2^k y(4^k s) is a trajectory too: at time t / 4^k
    # the state 2^k y is as far from its limit direction as y at time t
    scaled = _drift([math.ldexp(x, k) for x in y], math.ldexp(t, -2 * k))
    assert scaled == _drift(y, t)


@pytest.mark.parametrize("t_max", [22.0, 25.0, 50.0])
def test_a_stiff_stationary_run_is_converged(t_max):
    # from t = 1 on the run sits at the stationary point (10, 10, 10, 10, 0, 0),
    # where the speed read at the end state is the stepper's error, up to about
    # 2 rtol |p|^2 at these times; it is below what the stepper resolves
    traj = integrate(CoclosedParams(*(10.0,) * 6), t_max, FlowOptions(samples=2))
    assert np.abs(traj.params[-1] - [10, 10, 10, 10, 0, 0]).max() < 1e-8
    assert traj.status == "converged"


def test_zero_and_negative_flow_times():
    traj = integrate(SOLITON, 0.0, FlowOptions(samples=3))
    assert np.array_equal(traj.times, np.zeros(3))
    assert np.array_equal(traj.params, np.tile(SOLITON.as_array(), (3, 1)))
    with pytest.raises(ValueError):
        integrate(SOLITON, -1.0)


@pytest.mark.parametrize("t_max", [math.inf, -math.inf, math.nan])
def test_flow_times_must_be_finite(t_max):
    # an infinite t_max used to step forever
    with pytest.raises(ValueError, match="t_max must be finite and nonnegative"):
        integrate(SOLITON, t_max)


@pytest.mark.parametrize("samples", [-1, 0, 1])
def test_a_flow_needs_two_samples(samples):
    with pytest.raises(ValueError, match="samples must be at least 2"):
        integrate(SOLITON, 50.0, FlowOptions(samples=samples))
    traj = integrate(SOLITON, 1.0, FlowOptions(samples=2))
    assert traj.times.tolist() == [0.0, 1.0]


@pytest.mark.parametrize("samples", [2.5, 3.0, "3"])
def test_a_flow_needs_an_integer_sample_count(samples):
    with pytest.raises(ValueError, match="samples must be an integer"):
        integrate(SOLITON, 50.0, FlowOptions(samples=samples))
    traj = integrate(SOLITON, 1.0, FlowOptions(samples=np.int64(3)))
    assert traj.times.tolist() == [0.0, 0.5, 1.0]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_start_is_rejected_as_such(bad):
    with pytest.raises(ValueError, match="the start must be finite") as info:
        integrate(CoclosedParams(1.0, bad, 1.0, 1.0, 1.0, 1.0), 1.0)
    assert "below" not in str(info.value)


def test_stepper_memory_does_not_grow_with_the_step_count():
    # t_max 10 takes about 3100 steps (18578 rate calls) against about 560
    # at t_max 1; only the steps holding one of the 3 samples keep their
    # state, a few hundred bytes each.  By t = 1 the c pair has decayed
    # below 1e-163 and the run sits at the stationary point (10, 10, 10, 10, 0, 0)
    peaks = []
    for t_max in (1.0, 10.0):
        tracemalloc.start()
        try:
            traj = integrate(CoclosedParams(*[10.0] * 6), t_max, FlowOptions(samples=3))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert traj.status == "converged" and len(traj.times) == 3
    assert peaks[1] <= peaks[0] + 8192, peaks


@pytest.mark.filterwarnings("error")
def test_starts_too_large_for_the_step_estimate_are_rejected():
    for start in ((1e70, 0.0, 0.0, 0.0, 0.0, 0.0), (6e69,) * 6, (1e160, 1, 1, 1, 1, 1)):
        with pytest.raises(ValueError, match="float range"):
            integrate(CoclosedParams(*start), 1.0)
    traj = integrate(CoclosedParams(9.9e69, 1.0, 1.0, 1.0, 1.0, 1.0), 1.0)
    assert traj.status == "max_time"
    assert np.isfinite(traj.params).all()


def test_product_ab_is_conserved_on_the_symmetric_family():
    traj = integrate(CoclosedParams(1.0, 1.0, 2.0, 2.0, 1.0, 1.0), 50.0,
                     FlowOptions(samples=501))
    ab = traj.params[:, 0] * traj.params[:, 2]  # a1 b1
    assert np.abs(ab - ab[0]).max() < 1e-8
    assert ab[-1] == pytest.approx(2.0, abs=1e-6)


def test_soliton_start_keeps_its_direction():
    traj = integrate(SOLITON, 10.0, FlowOptions(samples=201))
    dirs = traj.params / np.linalg.norm(traj.params, axis=1)[:, None]
    assert np.abs(dirs - dirs[0]).max() < 1e-10
    # the state itself shrinks: self-similar, not stationary
    assert traj.norms()[-1] < 0.5 * traj.norms()[0]


def test_trajectory_reports():
    traj = integrate(CoclosedParams(1.0, 1.0, 2.0, 2.0, 1.0, 1.0), 5.0,
                     FlowOptions(samples=51))
    coef = traj.coefficients()
    assert coef.shape == (51, 3)
    assert coef.min() >= 0.0
    inv = traj.invariants()
    finite = inv[np.isfinite(inv)]
    assert len(finite) == 51
    assert finite.max() <= 7.0 + 1e-9


# (r, s, t) are lap psi's components at e^1234, e^1367 and e^2357
_RST_SLOTS = [forms.BASIS[4].index(I) for I in ((1, 2, 3, 4), (1, 3, 6, 7), (2, 3, 5, 7))]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-2 ** 20, 2 ** 20), min_size=6, max_size=6),
       st.sampled_from([-300, 0, 300]))
@example([0, 0, 2 ** 19, -2 ** 19, 2 ** 19, -2 ** 19], 0)  # stationary
@example([2 ** 19, 2 ** 19, 2 ** 19, 2 ** 19, 0, 0], 0)  # stationary
def test_hand_formulas_agree_with_the_laplacian_table(x, k):
    # entries are 0 or at least 2^-19 in size before the scale 2^k, so
    # every square and cube stays a normal float
    y = np.ldexp(np.array(x, dtype=float), k - 19)
    r, s, t = rst = laplacians(CoclosedParams(*y).to_triple())["psi"].vec[_RST_SLOTS]
    size = math.hypot(*y)
    traj = FlowTrajectory(times=np.zeros(1), params=y[None], status="max_time")
    assert np.abs(traj.coefficients()[0] - rst).max() <= 4e-15 * size ** 2
    # lap psi = theta(-Q) psi: each pair is scaled by minus its slot of Q
    q = np.repeat([0.5 * (-r + s + t), 0.5 * (r + s - t), 0.5 * (r - s + t)], 2)
    assert np.abs(np.array(coflow._rate(y.tolist())) + q * y).max() <= 4e-15 * size ** 3


def test_batched_reports_match_the_per_row_formulas():
    rng = np.random.default_rng(7)
    rows = rng.uniform(-2.0, 2.0, size=(40, 6))
    rows = np.vstack([rows, 1e-300 * rows[:10], 1e100 * rows[:10],
                      np.zeros(6), [1.0, 1.0, 0.0, 0.0, 0.0, 0.0]])
    traj = FlowTrajectory(times=np.arange(len(rows), dtype=float), params=rows,
                          status="max_time")
    inv, coef = traj.invariants(), traj.coefficients()
    assert inv.shape == (len(rows),) and coef.shape == (len(rows), 3)
    for row, F, rst in zip(rows, inv, coef):
        p = CoclosedParams(*row)
        assert tuple(rst) == coclosed_coefficients(p)
        try:
            want = homothety_invariant(p.to_triple())
        except ValueError:
            assert np.isnan(F)
            continue
        assert F == pytest.approx(want, rel=1e-12)
    assert np.isnan(inv[-2])
    # Besse's Ricci tensor on the rows at scale 1 (the scaled copies would
    # underflow or overflow its unscaled products)
    for row, F in zip(np.vstack([rows[:40], rows[-1]]), np.append(inv[:40], inv[-1])):
        ric = dz.ricci(dz.structure_tensor(*CoclosedParams(*row).to_triple().matrices()))
        assert F == pytest.approx(np.trace(ric) ** 2 / np.sum(ric * ric), rel=1e-12)
    # the scaled copies keep the invariant of the row they were made from
    np.testing.assert_allclose(inv[40:50], inv[:10], rtol=1e-12)
    np.testing.assert_allclose(inv[50:60], inv[:10], rtol=1e-12)


def test_invariants_are_nan_on_flat_rows():
    times = np.array([0.0, 1.0])
    params = np.array([[1.0, 1.0, 1.0, -1.0, 1.0, 1.0],
                       [0.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
    traj = FlowTrajectory(times=times, params=params, status="max_time")
    inv = traj.invariants()
    assert np.isfinite(inv[0])
    assert np.isnan(inv[1])


# -- solitons ------------------------------------------------------------------------


def test_candidate_pairs_for_the_standard_base():
    pairs = soliton_candidates(1.0, 1.0, 1.0, -1.0)
    assert pairs == [(-1.0, -1.0), (1.0, 1.0)]


def test_candidate_pairs_with_four_branches():
    pairs = soliton_candidates(1.0, -1.0, 1.0, -1.0)
    assert len(pairs) == 4
    root8 = np.sqrt(8.0)
    for c1, c2 in pairs:
        assert abs(abs(c1 + c2) - root8) < 1e-12
        assert abs(abs(c1 - c2) - root8) < 1e-12


def test_no_candidates_when_a_square_is_negative():
    assert soliton_candidates(0.0, 0.0, 1.0, 1.0) == []


def test_solved_solitons_verify_through_the_form_pipeline():
    sols = soliton_solve(1.0, 1.0, 1.0, -1.0)
    assert len(sols) == 2
    for sol in sols:
        assert sol.lam == 8.0
        assert sol.d == -2.0
        assert sol.residual < 1e-12


def test_soliton_lambda_for_the_four_branch_base():
    sols = soliton_solve(1.0, -1.0, 1.0, -1.0)
    assert len(sols) == 4
    assert all(sol.lam == 16.0 for sol in sols)
    assert all(sol.residual < 1e-12 for sol in sols)


@pytest.mark.parametrize("scale", [1e-3, 1e-7])
def test_soliton_residuals_are_scale_invariant(scale):
    # the soliton equations are homogeneous, so a scaled base keeps its
    # relative residual; rounding the candidates would cut digits off
    sols = soliton_solve(scale, -scale, scale, -scale / 2)
    assert len(sols) == 4
    assert max(sol.residual / sol.lam for sol in sols) < 1e-14


@pytest.mark.parametrize("power", [-600, 600, 1000])
def test_candidates_scale_exactly_with_the_base(power):
    # the conditions are homogeneous, and a power of two scales floats
    # exactly, so no intermediate square may overflow or lose digits
    base = (1.0, -1.0, 1.0, -0.5)
    scaled = soliton_candidates(*(np.ldexp(x, power) for x in base))
    assert len(scaled) == 4
    assert scaled == [tuple(np.ldexp(c, power) for c in pair)
                      for pair in soliton_candidates(*base)]


def test_soliton_solve_rejects_a_base_beyond_the_float_range():
    with pytest.raises(ValueError, match="float range"):
        soliton_solve(1e200, 1.0, 1.0, -1.0)
    # just below the limit the pipeline stays finite and exact to rounding
    sols = soliton_solve(*(np.ldexp(x, 239) for x in (1.0, -1.0, 1.0, -0.5)))
    assert len(sols) == 4
    assert max(sol.residual / sol.lam for sol in sols) < 1e-14


def test_only_the_origin_is_flat():
    tiny = CoclosedParams(*(1e-11 * x for x in (1.0, 1.0, 1.0, -1.0, 1.0, 1.0)))
    assert soliton_residual(tiny)["flat"] is False
    assert soliton_residual(CoclosedParams(*[0.0] * 6))["flat"] is True


def test_residual_separates_solitons_from_generic_points():
    assert soliton_residual(SOLITON)["residual"] < 1e-12
    generic = soliton_residual(CoclosedParams(2.0, 1.0, 0.5, 0.3, -0.2, 0.9))
    assert generic["residual"] > 1e-2


@settings(max_examples=40, deadline=None)
@given(params_st())
def test_residual_vanishes_exactly_when_coefficients_agree(p):
    r, s, t = coclosed_coefficients(p)
    spread = max(abs(r - s), abs(s - t), abs(r - t))
    res = soliton_residual(p)["residual"]
    if spread < 1e-12:
        assert res < 1e-10
    else:
        assert res > 1e-8 * spread


def test_modified_residual_scales_with_m():
    r1 = modified_soliton_residual(SOLITON, 1.0)["residual"]
    r2 = modified_soliton_residual(SOLITON, 2.0)["residual"]
    assert r1 == pytest.approx(4.0 * np.sqrt(6.0), rel=1e-12)
    assert r2 == pytest.approx(8.0 * np.sqrt(6.0), rel=1e-12)


def test_modified_residual_rejects_zero_m():
    with pytest.raises(ValueError):
        modified_soliton_residual(SOLITON, 0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m", [1e308, -1e308])
def test_modified_residual_rejects_m_beyond_the_float_range(m):
    # the residual is 4 sqrt(6) |m| at the soliton (see above)
    with pytest.raises(ValueError, match="float range"):
        modified_soliton_residual(SOLITON, m)


def test_modified_residual_is_finite_just_below_the_bound_on_m():
    assert np.isfinite(modified_soliton_residual(SOLITON, 2.0 ** 239)["residual"])
    # far beyond the entries, m sets the unit scale: no norm overflows
    r = modified_soliton_residual(SOLITON, 1e200)["residual"]
    assert r == pytest.approx(4.0 * np.sqrt(6.0) * 1e200, rel=1e-12)


def test_soliton_paths_evaluate_one_laplacian_per_family_point(monkeypatch):
    # lap psi of a family point is read off its triple's unit entries, once
    calls = []
    quadratic = tables._quadratic
    monkeypatch.setattr(tables, "_quadratic",
                        lambda table, u: calls.append(u) or quadratic(table, u))
    sols = soliton_solve(1.0, -1.0, 1.0, -0.5)
    for sol in sols:
        soliton_residual(sol.params)
        modified_soliton_residual(sol.params, 1.0)
        modified_soliton_residual(sol.params, -2.0)
    assert len(sols) == 4
    assert [id(u) for u in calls] == [id(sol.params.to_triple().unit) for sol in sols]


def test_soliton_solve_builds_each_triple_once(monkeypatch):
    built = []
    for name in ("__post_init__", "_keep"):
        method = getattr(BracketTriple, name)
        monkeypatch.setattr(BracketTriple, name,
                            lambda self, *a, _m=method: built.append(self) or _m(self, *a))
    sols = soliton_solve(1.0, -1.0, 1.0, -0.5)
    assert len(sols) == 4
    # each candidate's triple is built once, never through __post_init__,
    # and kept by its params
    triples = [sol.params.to_triple() for sol in sols]
    assert [id(t) for t in built] == [id(t) for t in triples]


def test_each_triple_takes_one_torsion_product(monkeypatch):
    calls = []
    torsion_map = tables._torsion_map
    monkeypatch.setattr(tables, "_torsion_map", lambda: calls.append(1) or torsion_map())
    sols = soliton_solve(1.0, -1.0, 1.0, -0.5)
    for sol in sols:
        modified_soliton_residual(sol.params, 1.0)
        g2core.torsion_forms(sol.params.to_triple())
        g2core.torsion_class(sol.params.to_triple())
    assert len(calls) == len(sols) == 4


def _general_triple(p):
    """p's triple by the general constructor, from the family's formula."""
    a1, a2, b1, b2, c1, c2 = p.as_array()
    return BracketTriple(np.diag([a1, -a1, a2, -a2]), np.diag([b1, b2, -b1, -b2]),
                         np.diag([c1, c2, -c2, -c1]))


DENSE = BracketTriple(*dz.commuting_triple(np.random.default_rng(7)))


def _full_lap_psi(t):
    """lap psi of the unit triple from every term of the Laplacian table."""
    return tables._quadratic(tables._laplacian_table(), t.unit)


@settings(max_examples=40, deadline=None)
@given(params_st())
@example(CoclosedParams(0.0, 1.0, -2.0, 0.5, 3.0, -1.5))
@example(CoclosedParams(0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
@example(CoclosedParams(*(2.0 ** 900 * x for x in (1.0, -1.0, 1.0, -0.5, 0.3, 2.0))))
@example(CoclosedParams(*(2.0 ** -900 * x for x in (1.0, -1.0, 1.0, -0.5, 0.3, 2.0))))
# the small entries underflow at unit scale, but not in the triple's entries
@example(CoclosedParams(1e300, 1e-300, 1.0, -1.0, 2.0, 3.0))
def test_shared_laplacian_is_a_fresh_evaluation_bit_for_bit(p):
    t, general = p.to_triple(), _general_triple(p)
    assert t.exponent == general.exponent
    assert t.entries.tobytes() == general.entries.tobytes()
    assert t.unit.tobytes() == general.unit.tobytes()
    # every diagonal entry point reads the diagonal terms of the table alone,
    # with the full table's result; a dense triple reads the full table
    for s, diagonal in ((t, True), (general, True),
                        (closed_triple(p.a1, p.b1, p.c1), True), (DENSE, False)):
        assert s.diagonal == diagonal
        assert s._unit_lap_psi.tobytes() == _full_lap_psi(s).tobytes()
    if 2 * t.exponent <= 1000:  # lap psi fits the float range
        fresh = laplacians(general)["psi"]
        assert np.ldexp(t._unit_lap_psi, 2 * t.exponent).tobytes() == fresh.vec.tobytes()


def test_coclosed_params_build_their_triple_once():
    p = CoclosedParams(0.7, -0.3, 1.1, 0.4, -0.6, 0.9)
    assert p.to_triple() is p.to_triple()
    # q has no cached triple yet: equality, hashing and repr ignore the cache
    q = CoclosedParams(0.7, -0.3, 1.1, 0.4, -0.6, 0.9)
    assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
    assert {p: "cached"}[q] == "cached"
    assert p != CoclosedParams(0.7, -0.3, 1.1, 0.4, -0.6, 1.0)


def test_family_points_are_built_without_the_general_checks(monkeypatch):
    # a family point's triple comes from its diagonals, which only need the
    # finiteness and trace checks of `BracketTriple.from_diagonals`
    calls = []
    post_init = BracketTriple.__post_init__
    monkeypatch.setattr(BracketTriple, "__post_init__",
                        lambda self: calls.append(self) or post_init(self))
    sols = soliton_solve(1.0, -1.0, 1.0, -0.5)
    for sol in sols:
        soliton_residual(sol.params)
        modified_soliton_residual(sol.params, 1.0)
        g2core.torsion_forms(sol.params.to_triple())
    assert len(sols) == 4
    assert calls == []
