"""Coflow dynamics, conserved quantities and algebraic solitons."""

import math
import tracemalloc

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
)
from g2solv import coflow, forms, g2core
from g2solv.coflow import (
    CoclosedParams,
    FlowOptions,
    FlowTrajectory,
    conserved_ab,
    flow_generator,
    integrate,
    modified_soliton_residual,
    normalized_limit,
    ode_rhs,
    soliton_candidates,
    soliton_residual,
    soliton_solve,
)
from g2solv.forms import monomial, theta, wedge
from g2solv.g2core import closed_triple, laplacians
from g2solv.liealg import BracketTriple, ce_differential, homothety_invariant

SOLITON = CoclosedParams(1.0, 1.0, 1.0, -1.0, 1.0, 1.0)

W7 = monomial((3, 4)) + monomial((5, 6))
W1 = monomial((3, 5)) - monomial((4, 6))
W2 = -monomial((3, 6)) - monomial((4, 5))


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
    assert (lap - expect).norm() < 1e-10 * max(1.0, p.norm_sq())


@settings(max_examples=60, deadline=None)
@given(params_st())
def test_laplacian_equals_generator_action(p):
    lap = laplacians(p.to_triple())["psi"]
    gen = theta(-flow_generator(p), forms.PSI)
    assert (lap - gen).norm() < 1e-10 * max(1.0, p.norm_sq())


# -- the ODE ------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(params_st())
def test_bracket_flow_oracle_generates_the_reference_laplacian(p):
    qa, qb, qc = bracket_flow_generator(p)
    gen = theta(-np.diag([qb, qc, 0.0, 0.0, 0.0, 0.0, qa]), forms.PSI)
    assert (gen - coclosed_lap_psi(p)).norm() < 1e-10 * max(1.0, p.norm_sq())


@settings(max_examples=100, deadline=None)
@given(params_st())
def test_ode_agrees_with_bracket_flow(p):
    scale = max(1.0, p.norm_sq() ** 1.5)
    assert np.abs(ode_rhs(p) - bracket_flow_rhs(p)).max() < 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(params_st(), st.floats(min_value=-2.0, max_value=2.0))
def test_ode_is_cubically_homogeneous(p, c):
    lhs = ode_rhs(CoclosedParams(*c * p.as_array()))
    rhs = c ** 3 * ode_rhs(p)
    assert np.abs(lhs - rhs).max() < 1e-10 * max(1.0, abs(c) ** 3 * p.norm_sq() ** 1.5)


def test_flow_generator_is_zero_at_solitons():
    # r = s = t makes the e7 slot carry (r+s+t)/2 - r = r/2 ... not zero;
    # what vanishes is the traceless inhomogeneity: all three slots are equal
    q = flow_generator(SOLITON)
    assert q[6, 6] == q[0, 0] == q[1, 1] == 2.0
    assert np.abs(np.diag(q)[2:6]).max() == 0.0


def test_linearization_at_the_soliton_on_its_slice():
    # The slice (a, a, b, -b, c, c) is invariant, and at the soliton the
    # transverse eigenvalues share the radial real part -6: the direction of
    # a nearby trajectory approaches the soliton ray only like 1/t.
    def on_slice(x):
        a, b, c = x
        v = ode_rhs(CoclosedParams(a, a, b, -b, c, c))
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
    lim = normalized_limit(traj)
    target = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0]) / 2.0
    assert np.abs(lim["direction"] - target).max() < 1e-8
    assert lim["window_drift"] < 1e-8


def test_an_algebraic_approach_is_not_called_converged():
    # On the slice (a, a, b, -b, c, c) the direction nears the soliton ray like
    # 1/t, so at t = 2000 the window drift is small while the direction is
    # still 5e-5 from its limit: drift * t / window is about 1.1e-4.
    traj = integrate(CoclosedParams(2.0, 2.0, 1.0, -1.0, 0.5, 0.5), 2000.0,
                     FlowOptions(samples=2001))
    assert traj.status == "max_time"


@pytest.mark.parametrize("samples", [3, 101, 2001])
def test_status_does_not_depend_on_the_sample_count(samples):
    # the drift is read from the dense output on a fixed grid of the trailing
    # window, so a sample spacing wider than the window cannot hide it
    algebraic = integrate(CoclosedParams(2.0, 2.0, 1.0, -1.0, 0.5, 0.5), 2000.0,
                          FlowOptions(samples=samples))
    assert algebraic.status == "max_time"
    assert len(algebraic.times) == samples
    settled = integrate(CoclosedParams(1.0, 1.0, 2.0, 2.0, 1.0, 1.0), 50.0,
                        FlowOptions(samples=samples))
    assert settled.status == "converged"


def test_window_drift_does_not_depend_on_the_sample_count():
    # 101 samples put one sample in the trailing window of t = 2000; the drift
    # is the dense-output value that also decided the status
    start = CoclosedParams(2.0, 2.0, 1.0, -1.0, 0.5, 0.5)
    drifts = [normalized_limit(integrate(start, 2000.0, FlowOptions(samples=n)))["window_drift"]
              for n in (101, 2001)]
    assert drifts[0] == drifts[1]
    assert 1e-7 < drifts[0] < 1e-5


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
    # at t_max 1; only the steps holding one of the 3 samples or the 11
    # window times keep their state, a few hundred bytes each
    peaks = []
    for t_max in (1.0, 10.0):
        tracemalloc.start()
        try:
            traj = integrate(CoclosedParams(*[10.0] * 6), t_max, FlowOptions(samples=3))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert traj.status == "max_time" and len(traj.times) == 3
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
    rep = conserved_ab(traj)
    assert rep["drift"] < 1e-8
    assert rep["value"] == pytest.approx(2.0, abs=1e-6)


def test_conserved_ab_rejects_other_trajectories():
    traj = integrate(CoclosedParams(2.0, 2.0, 1.0, -1.0, 0.5, 0.5), 5.0,
                     FlowOptions(samples=101))
    # a1 != a2, far beyond rounding once taken at unit scale
    tiny = FlowTrajectory(times=np.array([0.0, 1.0]), status="max_time",
                          params=1e-9 * np.array([[2.0, 2.0, 1.0, -1.0, 0.5, 0.5],
                                                  [1.9, 2.1, 1.0, -1.0, 0.5, 0.5]]))
    for traj in (traj, tiny):
        with pytest.raises(ValueError):
            conserved_ab(traj)


def test_soliton_start_keeps_its_direction():
    traj = integrate(SOLITON, 10.0, FlowOptions(samples=201))
    dirs = traj.params / np.linalg.norm(traj.params, axis=1)[:, None]
    assert np.abs(dirs - dirs[0]).max() < 1e-10
    # the state itself shrinks: self-similar, not stationary
    assert traj.norms()[-1] < 0.5 * traj.norms()[0]


def test_normalized_limit_requires_a_usable_trajectory():
    base = integrate(SOLITON, 1.0, FlowOptions(samples=11))
    bad = FlowTrajectory(times=base.times, params=base.params,
                         status="diverged", window_drift=base.window_drift)
    with pytest.raises(ValueError):
        normalized_limit(bad)
    short = FlowTrajectory(times=base.times[:1], params=base.params[:1],
                           status="max_time", window_drift=base.window_drift)
    with pytest.raises(ValueError):
        normalized_limit(short)
    flat = FlowTrajectory(times=base.times, params=np.zeros_like(base.params),
                          status="max_time", window_drift=base.window_drift)
    with pytest.raises(ValueError):
        normalized_limit(flat)


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
    quadratic = g2core._quadratic
    monkeypatch.setattr(g2core, "_quadratic",
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
    torsion_map = g2core._torsion_map
    monkeypatch.setattr(g2core, "_torsion_map", lambda: calls.append(1) or torsion_map())
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
    return g2core._quadratic(g2core._laplacian_table(), t.unit)


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
