"""Torsion forms, torsion classes, Laplacians and the pinching residual."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dense_oracle as dz
import reference_formulas as rf
from g2solv.forms import OMEGA1_BAR, OMEGA2_BAR, OMEGA7_BAR, PHI, PSI, hodge, inner, wedge
from g2solv.g2core import (
    closed_family_invariant,
    closed_triple,
    erp_residual,
    laplacians,
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


# -- torsion decomposition -------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(commuting_triples())
def test_torsion_reconstructs_dphi(t):
    tf = torsion_forms(t)
    rebuilt = tf.tau0 * PSI + 3.0 * wedge(tf.tau1, PHI) + hodge(tf.tau3)
    assert (rebuilt - ce_differential(t, PHI)).norm() < 1e-11


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
    diag = BracketTriple(*dz.diagonal_triple(rng))
    cls = torsion_class(diag)
    assert cls == {"W1": False, "W2": True, "W3": True, "W4": False}

    closed = closed_triple(1.0, 1.0, 1.0)
    assert torsion_class(closed) == {
        "W1": False, "W2": True, "W3": False, "W4": False}

    from g2solv.coflow import CoclosedParams
    coclosed = CoclosedParams(1, 1, 1, -1, 1, 1).to_triple()
    assert torsion_class(coclosed) == {
        "W1": False, "W2": False, "W3": True, "W4": False}


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
    from g2solv.coflow import CoclosedParams
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
