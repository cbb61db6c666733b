"""Torsion forms, torsion classes, Laplacians and the pinching residual."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dense_oracle as dz
import reference_formulas as rf
from g2solv import g2core
from g2solv.coflow import CoclosedParams
from g2solv.forms import OMEGA1_BAR, OMEGA2_BAR, OMEGA7_BAR, PHI, PSI, hodge, inner, wedge
from g2solv.g2core import (
    closed_family_invariant,
    closed_triple,
    erp_residual,
    laplacians,
    modified_laplacian_psi,
    torsion_class,
    torsion_forms,
    trace_torsion,
)
from g2solv.liealg import BracketTriple, ce_differential


@st.composite
def commuting_triples(draw):
    seed = draw(st.integers(0, 100_000))
    rng = np.random.default_rng(seed)
    return BracketTriple(*dz.commuting_triple(rng))


@st.composite
def diagonal_triples(draw):
    seed = draw(st.integers(0, 100_000))
    rng = np.random.default_rng(seed)
    return BracketTriple(*dz.diagonal_triple(rng))


coefficient = st.floats(-3, 3)
# dense commuting triples and both diagonal families, closed and coclosed
torsion_triples = st.one_of(
    commuting_triples(),
    st.builds(closed_triple, coefficient, coefficient, coefficient),
    st.builds(lambda *p: CoclosedParams(*p).to_triple(), *[coefficient] * 6),
)


# -- torsion decomposition -------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(torsion_triples)
def test_torsion_reconstructs_dphi(t):
    tf = torsion_forms(t)
    dphi = ce_differential(t, PHI)
    rebuilt = tf.tau0 * PSI + 3.0 * wedge(tf.tau1, PHI) + hodge(tf.tau3)
    assert (rebuilt - dphi).norm() < 1e-11
    assert tf.closed == dphi.is_zero()


@settings(max_examples=30, deadline=None)
@given(commuting_triples())
def test_torsion_reconstructs_dpsi(t):
    tf = torsion_forms(t)
    rebuilt = 4.0 * wedge(tf.tau1, PSI) + wedge(tf.tau2, PHI)
    assert (rebuilt - ce_differential(t, PSI)).norm() < 1e-11


@settings(max_examples=30, deadline=None)
@given(commuting_triples())
def test_torsion_component_types(t):
    tf = torsion_forms(t)
    assert tf.tau1.degree == 1
    assert tf.tau2.degree == 2
    assert tf.tau3.degree == 3
    # the scalar and vector parts see only the self-dual content, and the
    # 3-form part is orthogonal to the fixed 3-form
    assert abs(inner(tf.tau3, PHI)) < 1e-10
    # tau2 lives in the 14-dimensional type component: psi ^ tau2 = 0
    assert wedge(tf.tau2, PSI).norm() < 1e-10


@settings(max_examples=40, deadline=None)
@given(diagonal_triples())
def test_diagonal_triples_have_pure_two_three_torsion(t):
    tf = torsion_forms(t)
    assert tf.tau0 == pytest.approx(0.0, abs=1e-13)
    assert tf.tau1.norm() < 1e-13
    assert (tf.tau2 + hodge(ce_differential(t, PSI))).norm() < 1e-12
    assert (tf.tau3 - hodge(ce_differential(t, PHI))).norm() < 1e-12


def test_torsion_class_flags():
    rng = np.random.default_rng(8)
    cases = [
        (BracketTriple(*dz.diagonal_triple(rng)), False,
         {"W1": False, "W2": True, "W3": True, "W4": False}),
        (closed_triple(1.0, 1.0, 1.0), True,
         {"W1": False, "W2": True, "W3": False, "W4": False}),
        (CoclosedParams(1, 1, 1, -1, 1, 1).to_triple(), False,
         {"W1": False, "W2": False, "W3": True, "W4": False}),
    ]
    for t, closed, flags in cases:
        tf = torsion_forms(t)
        assert tf.torsion_class == torsion_class(t) == flags
        assert tf.closed is closed


def test_torsion_class_of_flat_structure_is_empty():
    t = BracketTriple(*[np.zeros((4, 4))] * 3)
    assert torsion_class(t) == {
        "W1": False, "W2": False, "W3": False, "W4": False}


@settings(max_examples=25, deadline=None)
@given(commuting_triples())
def test_trace_torsion_matches_scalar_component(t):
    tf = torsion_forms(t)
    assert trace_torsion(t) == pytest.approx(1.75 * tf.tau0, abs=1e-12)


def test_trace_torsion_vanishes_for_diagonal_triples():
    rng = np.random.default_rng(21)
    for _ in range(5):
        t = BracketTriple(*dz.diagonal_triple(rng))
        assert abs(trace_torsion(t)) < 1e-13


# -- Laplacians --------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(commuting_triples())
def test_laplacians_match_dense_oracle(t):
    A, B, C = t.matrices()
    c = dz.structure_tensor(A, B, C)
    Tphi = dz.from_kform(PHI)
    Tpsi = dz.from_kform(PSI)
    dphi = dz.d(c, Tphi, 3)
    dpsi = dz.d(c, Tpsi, 4)
    lap = dz.hodge(dz.d(c, dz.hodge(dphi, 4), 3), 4) - dz.d(c, dz.hodge(dpsi, 5), 2)
    got = laplacians(t)
    assert dz.max_dev(lap, 3, got["phi"]) < 1e-11
    assert dz.max_dev(dz.hodge(lap, 3), 4, got["psi"]) < 1e-11


@settings(max_examples=20, deadline=None)
@given(commuting_triples())
def test_laplacian_duality(t):
    got = laplacians(t)
    assert (hodge(got["phi"]) - got["psi"]).norm() < 1e-12


@settings(max_examples=25, deadline=None)
@given(diagonal_triples())
def test_diagonal_laplacians_match_reference_formulas(t):
    A, B, C = t.matrices()
    a, b, c = np.diag(A), np.diag(B), np.diag(C)
    got = laplacians(t)
    assert (got["phi"] - rf.diagonal_lap_phi(a, b, c)).norm() < 1e-11
    assert (got["psi"] - rf.diagonal_lap_psi(a, b, c)).norm() < 1e-11


def test_flat_structure_is_harmonic():
    t = BracketTriple(*[np.zeros((4, 4))] * 3)
    got = laplacians(t)
    assert got["phi"].norm() == 0.0
    assert got["psi"].norm() == 0.0


# -- closed diagonal family -----------------------------------------------------------


def test_closed_triple_sign_patterns():
    t = closed_triple(2.0, 3.0, 5.0)
    assert np.allclose(t.A, np.diag([2.0, 2.0, -2.0, -2.0]))
    assert np.allclose(t.B, np.diag([3.0, -3.0, 3.0, -3.0]))
    assert np.allclose(t.C, np.diag([5.0, -5.0, -5.0, 5.0]))


@settings(max_examples=40, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3))
def test_closed_triple_is_closed(a, b, c):
    t = closed_triple(a, b, c)
    assert ce_differential(t, PHI).norm() < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.floats(-3, 3, allow_nan=False), st.floats(-3, 3), st.floats(-3, 3))
@example(0.0, 0.0, 6.103515625e-05)
@example(0.0, 0.0, 5e-324)
@example(0.0, 0.0, 0.0)
def test_closed_family_invariant_formula(a, b, c):
    # the only flat point of the family is the origin; everywhere else the
    # invariant is scale-free, so the expectation is formed at unit scale
    # where a^4 + b^4 + c^4 cannot underflow
    m = max(abs(a), abs(b), abs(c))
    if m == 0.0:
        with pytest.raises(ValueError):
            closed_family_invariant(a, b, c)
        return
    x, y, z = a / m, b / m, c / m
    n2 = x * x + y * y + z * z
    expect = n2 * n2 / (x**4 + y**4 + z**4)
    assert closed_family_invariant(a, b, c) == pytest.approx(expect, rel=1e-9)


def test_closed_family_invariant_examples():
    assert closed_family_invariant(1, 1, 1) == pytest.approx(3.0)
    assert closed_family_invariant(2, 1, 1) == pytest.approx(2.0)
    assert closed_family_invariant(1, 0, 0) == pytest.approx(1.0)


# -- pinching residual ------------------------------------------------------------------


def test_pinching_residual_vanishes_on_the_distinguished_point():
    t = closed_triple(1.0, 1.0, 1.0)
    res = erp_residual(t)
    assert res["residual_norm"] < 1e-13
    assert res["tau_norm_sq"] == pytest.approx(24.0)


def test_pinching_residual_scales_and_vanishes_on_the_ray():
    t = closed_triple(0.5, 0.5, 0.5)
    res = erp_residual(t)
    assert res["residual_norm"] < 1e-13
    assert res["tau_norm_sq"] == pytest.approx(6.0)


def test_torsion_two_form_on_the_distinguished_point():
    t = closed_triple(1.0, 1.0, 1.0)
    tf = torsion_forms(t)
    expect = -2.0 * (OMEGA7_BAR + OMEGA1_BAR + OMEGA2_BAR)
    assert (tf.tau_two_form - expect).norm() < 1e-13
    assert (tf.tau2 - expect).norm() < 1e-13
    assert tf.norm_sq_tau == pytest.approx(24.0)


def test_pinching_residual_positive_off_the_ray():
    t = closed_triple(2.0, 1.0, 1.0)
    assert erp_residual(t)["residual_norm"] > 0.1


def test_pinching_residual_requires_closed():
    t = CoclosedParams(1, 1, 1, -1, 1, 1).to_triple()
    with pytest.raises(ValueError):
        erp_residual(t)


def test_closed_laplacian_equals_derivative_of_torsion_form():
    # with dphi = 0 the 3-form Laplacian collapses to d of the torsion 2-form
    for abc in ((1.0, 1.0, 1.0), (2.0, 1.0, 1.0), (1.5, -0.5, 1.0)):
        t = closed_triple(*abc)
        tf = torsion_forms(t)
        lhs = laplacians(t)["phi"]
        assert (lhs - ce_differential(t, tf.tau_two_form)).norm() < 1e-12


# -- exact tables ---------------------------------------------------------------------


def _seeded_triples():
    rng = np.random.default_rng(1212)
    return ([("dense", BracketTriple(*dz.commuting_triple(rng))) for _ in range(4)]
            + [("closed", closed_triple(*rng.uniform(-2, 2, 3))) for _ in range(3)]
            + [("coclosed", CoclosedParams(*rng.uniform(-2, 2, 6)).to_triple())
               for _ in range(3)])


def _oracle_torsion(t, m):
    """The torsion parts and the modified Laplacian of psi, from the dense
    oracle by the formulas of the g2core docstring."""
    c = dz.structure_tensor(*t.matrices())
    phi = dz.from_kform(PHI)
    psi = dz.hodge(phi, 3)
    dphi, dpsi = dz.d(c, phi, 3), dz.d(c, psi, 4)
    tau0 = float(dz.hodge(dz.wedge(dphi, 4, phi, 3), 7)) / 7.0
    tau1 = -dz.hodge(dz.wedge(dz.hodge(dphi, 4), 3, phi, 3), 6) / 12.0
    tau2 = -dz.hodge(dpsi, 5) + 4.0 * dz.hodge(dz.wedge(tau1, 1, psi, 4), 5)
    tau3 = dz.hodge(dphi, 4) - tau0 * phi - 3.0 * dz.hodge(dz.wedge(tau1, 1, phi, 3), 4)
    lap_phi = dz.hodge(dz.d(c, dz.hodge(dphi, 4), 3), 4) - dz.d(c, dz.hodge(dpsi, 5), 2)
    modified = dz.hodge(lap_phi, 3) + 2.0 * (m - 1.75 * tau0) * dphi
    return tau0, {"tau1": (tau1, 1), "tau2": (tau2, 2), "tau3": (tau3, 3),
                  "tau_two_form": (-dz.hodge(dpsi, 5), 2)}, modified


@pytest.mark.parametrize("family, t", _seeded_triples(),
                         ids=lambda x: x if isinstance(x, str) else "")
def test_torsion_map_and_laplacian_table_match_dense_oracle(family, t):
    tau0, parts, modified = _oracle_torsion(t, m=0.7)
    tf = torsion_forms(t)
    assert abs(tf.tau0 - tau0) < 1e-11
    for name, (T, degree) in parts.items():
        assert dz.max_dev(T, degree, getattr(tf, name)) < 1e-11, name
    assert dz.max_dev(modified, 4, modified_laplacian_psi(t, 0.7)) < 1e-11


def test_laplacian_table_is_exact():
    out, i, j, coef = g2core._laplacian_table()
    assert set(coef.tolist()) == {-1.0, 1.0}
    assert (i <= j).all()
    assert len(set(zip(out.tolist(), i.tolist(), j.tolist()))) == len(out)
