"""Torsion forms, torsion classes, Laplacians and the pinching residual."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dense_oracle as dz
import reference_formulas as rf
from g2solv import g2core, tables
from g2solv.coflow import CoclosedParams, modified_soliton_residual, soliton_residual
from g2solv.config import TOL
from g2solv.forms import PHI, PSI, KForm, hodge, inner, wedge
from g2solv.g2core import (
    closed_triple,
    erp_residual,
    laplacians,
    torsion_class,
    torsion_forms,
)
from g2solv.liealg import BracketTriple, ce_differential, homothety_invariant, ricci_report


def unit_triple(t):
    """The unit triple of t as a triple of its own, whose exponent is 0."""
    return BracketTriple(*t.unit.reshape(3, 4, 4))


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
    # closed is decided on the unit triple
    assert tf.closed == (ce_differential(unit_triple(t), PHI).norm() <= TOL.zero_form)


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


@settings(max_examples=60, deadline=None)
@given(torsion_triples, st.sampled_from([None, 1e-3, 0.1, 0.5, 1.0, 2.0]))
def test_torsion_class_reads_the_flags_of_torsion_forms(t, zero):
    # torsion_class skips the forms but must flag as the full report does,
    # also under another TOL.zero_form
    with pytest.MonkeyPatch.context() as m:
        if zero is not None:
            m.setattr(TOL, "zero_form", zero)
        assert torsion_class(t) == torsion_forms(t).torsion_class


def test_torsion_class_of_flat_structure_is_empty():
    t = BracketTriple(*[np.zeros((4, 4))] * 3)
    assert torsion_class(t) == {
        "W1": False, "W2": False, "W3": False, "W4": False}


@settings(max_examples=40, deadline=None)
@given(torsion_triples)
def test_torsion_report_scalars_match_its_forms(t):
    # the norms, flags and |tau|^2 are read off the mapped vector of the
    # unit triple; they must be those of its returned forms, bit for bit,
    # and t's |tau|^2 theirs scaled back (`closed` is checked against d
    # itself in test_torsion_reconstructs_dphi)
    tf, unit = torsion_forms(t), torsion_forms(unit_triple(t))
    assert unit.norm_sq_tau == inner(unit.tau_two_form, unit.tau_two_form)
    assert tf.norm_sq_tau == math.ldexp(unit.norm_sq_tau, 2 * t.exponent)
    zero = TOL.zero_form
    assert tf.torsion_class == unit.torsion_class == {
        "W1": abs(unit.tau0) > zero, "W2": unit.tau2.norm() > zero,
        "W3": unit.tau3.norm() > zero, "W4": unit.tau1.norm() > zero}


@settings(max_examples=25, deadline=None)
@given(commuting_triples())
def test_trace_torsion_matches_scalar_component(t):
    # tr T = (7/4) tau0 = (1/4) *(dphi ^ phi), the latter from d itself
    scalar = hodge(wedge(ce_differential(t, PHI), PHI)).scalar()
    assert 1.75 * torsion_forms(t).tau0 == pytest.approx(0.25 * scalar, abs=1e-12)


def test_trace_torsion_vanishes_for_diagonal_triples():
    rng = np.random.default_rng(21)
    for _ in range(5):
        t = BracketTriple(*dz.diagonal_triple(rng))
        assert abs(1.75 * torsion_forms(t).tau0) < 1e-13


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
            homothety_invariant(closed_triple(a, b, c))
        return
    x, y, z = a / m, b / m, c / m
    n2 = x * x + y * y + z * z
    expect = n2 * n2 / (x**4 + y**4 + z**4)
    assert homothety_invariant(closed_triple(a, b, c)) == pytest.approx(expect, rel=1e-9)


def test_closed_family_invariant_examples():
    for abc, F in [((1, 1, 1), 3.0), ((2, 1, 1), 2.0), ((1, 0, 0), 1.0)]:
        assert homothety_invariant(closed_triple(*abc)) == pytest.approx(F)


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
    expect = -2.0 * (rf.OMEGA7_BAR + rf.OMEGA1_BAR + rf.OMEGA2_BAR)
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
    got = np.ldexp(*g2core._unit_modified(t, 0.7))
    assert dz.max_dev(modified, 4, KForm._of(4, got)) < 1e-11


def test_laplacian_table_is_exact():
    # every quadratic table holds integer coefficients over its denominator,
    # each (out, i <= j) once; the torsion map holds integers over 84
    assert set(tables._laplacian_table()[3].tolist()) == {-1.0, 1.0}
    for build, want in ((tables._laplacian_table, (1, 35)), (tables._erp_table, (6, 35)),
                        (tables._ricci_table, (4, 49))):
        out, i, j, coef, denominator, size = build()
        assert (denominator, size) == want, build.__name__
        assert np.array_equal(coef, np.round(coef)) and coef.all(), build.__name__
        assert (i <= j).all() and (out < size).all(), build.__name__
        assert len(set(zip(out.tolist(), i.tolist(), j.tolist()))) == len(out), build.__name__
    scaled = 84.0 * tables._torsion_map()
    assert np.abs(scaled - np.round(scaled)).max() < 1e-12


# display order (e7, e1, e2, e3..e6) of the internal basis e1..e7, zero-based
_DISPLAY = [6, 0, 1, 2, 3, 4, 5]


def test_erp_and_ricci_tables_match_dense_oracle():
    # R = d tau - |tau|^2 phi / 6 - *(tau ^ tau) / 6 is a polynomial in the
    # entries, so its table holds on every triple, closed or not; on a
    # diagonal triple the restriction to the diagonal terms gives the same
    # bits as the full table
    rng = np.random.default_rng(31)
    phi = dz.from_kform(PHI)
    psi = dz.hodge(phi, 3)
    triples = ([BracketTriple(*dz.commuting_triple(rng)) for _ in range(10)]
               + [closed_triple(*rng.uniform(-2, 2, 3)) for _ in range(3)]
               + [CoclosedParams(*rng.uniform(-2, 2, 6)).to_triple() for _ in range(3)])
    for t in triples:
        c = dz.structure_tensor(*unit_triple(t).matrices())
        tau = -dz.hodge(dz.d(c, psi, 4), 5)
        erp = (dz.d(c, tau, 2) - dz.inner(tau, tau, 2) / 6.0 * phi
               - dz.hodge(dz.wedge(tau, 2, tau, 2), 4) / 6.0)
        got = tables._quadratic(tables._erp_table(), t.unit)
        assert dz.max_dev(erp, 3, KForm._of(3, got)) < 1e-12
        ricci = tables._quadratic(tables._ricci_table(), t.unit).reshape(7, 7)
        assert np.abs(ricci - dz.ricci(c)[np.ix_(_DISPLAY, _DISPLAY)]).max() < 1e-12
        if t.diagonal:
            for build in (tables._erp_table, tables._ricci_table):
                full = tables._quadratic(build(), t.unit)
                assert t._quadratic(build).tobytes() == full.tobytes(), build.__name__


def test_closed_structures_satisfy_the_pinching_identity():
    # on a closed structure 3 tr(Ric^2) - scal^2 = (3/2)|R|^2, R the ERP
    # residual, so F <= 3 with equality where R = 0, as at (k, k, k)
    rng = np.random.default_rng(14)
    for a, b, c in rng.uniform(-2.0, 2.0, (200, 3)):
        t = closed_triple(a, b, c)
        rep, res = ricci_report(t), erp_residual(t)
        lhs = 3.0 * rep["trace_ric_sq"] - rep["scal"] ** 2
        assert abs(lhs - 1.5 * res["residual_norm"] ** 2) <= 1e-13 * rep["trace_ric_sq"]
        assert rep["F"] <= 3.0 * (1.0 + 1e-15)
    for k in rng.uniform(0.5, 2.0, 5):
        assert homothety_invariant(closed_triple(k, k, k)) == pytest.approx(3.0, rel=1e-15)


# -- scale equivariance ------------------------------------------------------------


def _scale_cases():
    """(kind, build): build(k) is a triple times 2^k and, for the coclosed
    family, its point, with the modified-flow m (degree 1) scaled alike."""
    rng = np.random.default_rng(11)
    G = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    D = dz.diagonal_triple(rng)
    params = np.array([0.9, -0.4, 1.1, 0.3, -0.7, 0.5])

    def general(mats):
        return lambda k: (BracketTriple(*np.ldexp(mats, k)), None, None)

    def coclosed(k):
        p = CoclosedParams(*np.ldexp(params, k))
        return p.to_triple(), p, math.ldexp(0.7, k)

    return [("diagonal", general(D)),
            ("closed", lambda k: (closed_triple(*np.ldexp([0.7, -1.3, 0.4], k)), None, None)),
            ("coclosed", coclosed),
            ("conjugated", general([G @ M @ np.linalg.inv(G) for M in D])),
            ("commuting", general(dz.commuting_triple(rng)))]


def _reports(t, p, m):
    """name -> call returning (verdicts, [(degree, values)]) of one report."""
    def torsion():
        tf = torsion_forms(t)
        return (tf.closed, tf.torsion_class), [
            (1, [tf.tau0]), (1, tf.tau1.vec), (1, tf.tau2.vec), (1, tf.tau3.vec),
            (1, tf.tau_two_form.vec), (2, [tf.norm_sq_tau])]

    def ricci():
        rep = ricci_report(t)
        return rep["F"] is None, [(2, np.ravel(rep["ricci"])), (2, [rep["scal"]]),
                                  (4, [rep["trace_ric_sq"]]), (0, [rep["F"] or 0.0])]

    def erp():
        res = erp_residual(t)
        return None, [(2, [res["residual_norm"]]), (2, [res["tau_norm_sq"]]),
                      (0, [res["relative_residual"]])]

    def fit(res):
        return res.get("flat"), [(2, [res["residual"]]), (2, [res["best_lambda"]]),
                                 (2, res["best_D"])]

    reports = {
        "torsion_forms": torsion,
        "torsion_class": lambda: (torsion_class(t), []),
        "laplacians": lambda: (None, [(2, laplacians(t)["psi"].vec),
                                      (2, laplacians(t)["phi"].vec)]),
        "ricci_report": ricci,
        "homothety_invariant": lambda: (None, [(0, [homothety_invariant(t)])]),
        "erp_residual": erp,
    }
    if p is not None:
        reports["soliton_residual"] = lambda: fit(soliton_residual(p))
        reports["modified_soliton_residual"] = lambda: fit(modified_soliton_residual(p, m))
    return reports


def _outcome(call):
    try:
        return call()
    except ValueError as exc:
        return str(exc)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind, build", _scale_cases(), ids=[k for k, _ in _scale_cases()])
def test_reports_are_scale_equivariant(kind, build):
    # every quantity is homogeneous in the entries: at 2^k times a triple
    # the verdicts are those at k = 0, and a value of degree d is the k = 0
    # value times 2^(d k), bit for bit, wherever that is a normal float (or
    # zero); where it leaves the float range, the report raises
    base = {name: _outcome(call) for name, call in _reports(*build(0)).items()}
    assert all(isinstance(out, tuple) for name, out in base.items()
               if name not in ("erp_residual", "homothety_invariant")), base
    for k in (-900, -300, -40, 0, 40, 120, 300):
        for name, call in _reports(*build(k)).items():
            if isinstance(base[name], str):
                assert _outcome(call) == base[name], (k, name)
                continue
            verdicts, values = base[name]
            try:
                want = [[math.ldexp(x, d * k) for x in xs] for d, xs in values]
            except OverflowError:
                with pytest.raises(ValueError, match="float range"):
                    call()
                continue
            got_verdicts, got = call()
            assert got_verdicts == verdicts, (k, name)
            for w, (_, g) in zip(want, got):
                for x, y in zip(w, g):
                    if x == 0.0 or abs(x) >= sys.float_info.min:
                        assert y == x, (k, name, x, y)
