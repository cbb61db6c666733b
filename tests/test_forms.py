"""Exterior algebra layer: frozen values plus property tests against the
dense brute-force oracle."""

import ast
import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle as dz
from reference_formulas import (
    OMEGA1,
    OMEGA1_BAR,
    OMEGA2,
    OMEGA2_BAR,
    OMEGA7,
    OMEGA7_BAR,
    monomial,
)
from g2solv import forms
from g2solv.coflow import CoclosedParams
from g2solv.g2core import torsion_forms
from g2solv.forms import (
    KForm,
    PHI,
    PSI,
    format_form,
    hodge,
    inner,
    theta,
    wedge,
    zero_form,
)

COMBOS = {deg: list(itertools.combinations(range(1, 8), deg)) for deg in range(8)}
BASIS_FORMS = [KForm(deg, {I: 1.0}) for deg in range(8) for I in COMBOS[deg]]
VOL = monomial(range(1, 8))  # the unit volume form e^1234567


@st.composite
def kforms(draw, degree=None):
    deg = draw(st.integers(0, 7)) if degree is None else degree
    keys = draw(st.lists(st.sampled_from(COMBOS[deg]), max_size=5, unique=True))
    vals = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)
    return KForm(deg, {k: draw(vals) for k in keys})


@st.composite
def matrices(draw, n):
    vals = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
    return np.array(draw(st.lists(st.lists(vals, min_size=n, max_size=n),
                                  min_size=n, max_size=n)))


# -- construction and arithmetic ---------------------------------------------


def _covector_wedge(indices) -> KForm:
    """e^{i1} ^ ... ^ e^{ik} by the package's wedge."""
    out = KForm(0, {(): 1.0})
    for i in indices:
        out = wedge(out, KForm(1, {(i,): 1.0}))
    return out


def test_monomial_sorts_indices_with_sign():
    # the written-out monomials of the tests agree with the package's wedge
    assert monomial((2, 1)).coeffs == {(1, 2): -1.0}
    assert monomial((3, 1, 2)).coeffs == {(1, 2, 3): 1.0}
    assert monomial((1, 3, 2), 2.0).coeffs == {(1, 2, 3): -2.0}
    for idx in itertools.permutations((1, 4, 6)):
        assert monomial(idx).coeffs == _covector_wedge(idx).coeffs


def test_monomial_repeated_index_vanishes():
    assert monomial((1, 1)).coeffs == {}
    assert monomial((2, 5, 2)).coeffs == {}
    assert _covector_wedge((2, 5, 2)).coeffs == {}


def test_kform_requires_increasing_keys():
    with pytest.raises(ValueError):
        KForm(2, {(2, 1): 3.0})
    with pytest.raises(ValueError):
        KForm(2, {(1, 1): 3.0})


def test_kform_prunes_tiny_entries():
    a = KForm(1, {(1,): 1e-20, (2,): 1.0})
    assert a.coeffs == {(2,): 1.0}


def test_kform_rejects_wrong_arity():
    with pytest.raises(ValueError):
        KForm(2, {(1, 2, 3): 1.0})


def test_kform_rejects_out_of_range_index():
    with pytest.raises(ValueError):
        KForm(1, {(8,): 1.0})


def test_add_requires_matching_degree():
    with pytest.raises(ValueError):
        monomial((1,)) + monomial((1, 2))


def test_arithmetic_basics():
    a = monomial((1, 2)) + monomial((3, 4), 2.0)
    b = a - monomial((1, 2))
    assert b.coeffs == {(3, 4): 2.0}
    assert (2.0 * a).coeffs == {(1, 2): 2.0, (3, 4): 4.0}
    assert (a * 0.5).coeffs == {(1, 2): 0.5, (3, 4): 1.0}
    assert (-a).coeffs == {(1, 2): -1.0, (3, 4): -2.0}


def test_scalar_extraction():
    assert VOL.scalar() == 1.0
    assert KForm(0, {(): 2.5}).scalar() == 2.5
    assert zero_form(0).scalar() == 0.0
    with pytest.raises(ValueError):
        monomial((1,)).scalar()


def test_norm_is_euclidean_on_coefficients():
    a = monomial((1, 2), 3.0) + monomial((4, 5), 4.0)
    assert a.norm() == pytest.approx(5.0)


@pytest.mark.filterwarnings("error")
def test_norm_of_a_large_form_does_not_overflow():
    # the squares of the coefficients overflow, the norm does not
    tau3 = torsion_forms(CoclosedParams(1e160, 1e160, 1e160, -1e160, 1e160, 1e160).to_triple()).tau3
    assert tau3.norm() == pytest.approx(2.0 * math.sqrt(6.0) * 1e160, rel=1e-15)
    for scale in (1e200, 1e300, 2.0 ** 500):
        assert (scale * monomial((1, 2), 3.0) + scale * monomial((4, 5), 4.0)).norm() == 5.0 * scale
    with pytest.raises(ValueError, match="float range"):
        (1.5e308 * monomial((1, 2)) + 1.5e308 * monomial((4, 5))).norm()


def test_norm_is_the_plain_one_where_the_squares_stay_in_range():
    rng = np.random.default_rng(7)
    for k in (-1000, -300, 0, 300, 499):
        x = np.ldexp(rng.standard_normal(35), k)
        norm = KForm(3, dict(zip(COMBOS[3], x))).norm()
        if k == -1000:  # the squares underflow: that of 2^1000 x, scaled back
            y = np.ldexp(x, 1000)
            assert norm == math.ldexp(math.sqrt(y @ y), k) > 0.0
        else:
            assert norm == math.sqrt(x @ x)


# 35 coefficients, each 0 or at least 2^-20 in size, so that 2^k times any
# of them is a normal float for every k >= -1000
_SPREAD_COEFFS = st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=35, max_size=35).map(
    lambda v: np.ldexp(np.array(v, dtype=float), -20))


@settings(max_examples=200, deadline=None)
@given(_SPREAD_COEFFS, st.integers(-1000, 900))
def test_norm_commutes_with_powers_of_two(x, k):
    norm = KForm(3, dict(zip(COMBOS[3], x))).norm()
    scaled = KForm(3, dict(zip(COMBOS[3], np.ldexp(x, k)))).norm()
    assert scaled == math.ldexp(norm, k)
    assert scaled == 0.0 or scaled >= sys.float_info.min  # a normal float


def test_format_form():
    a = monomial((1, 2)) - 2.0 * monomial((3, 4))
    assert format_form(monomial((1, 2, 7))) == "+1.000 e^{127}"
    assert format_form(zero_form(3)) == "0"
    assert "-2.000 e^{34}" in format_form(a)


# -- wedge --------------------------------------------------------------------


def test_wedge_basis_signs():
    e1, e2 = monomial((1,)), monomial((2,))
    assert wedge(e1, e2).coeffs == {(1, 2): 1.0}
    assert wedge(e2, e1).coeffs == {(1, 2): -1.0}
    assert wedge(e1, e1).coeffs == {}


def test_wedge_beyond_top_degree_is_zero():
    a = monomial((1, 2, 3, 4))
    b = monomial((3, 4, 5, 6))
    assert wedge(a, b).degree == 7
    assert wedge(a, b).coeffs == {}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_wedge_matches_dense_oracle(data):
    a = data.draw(kforms())
    b = data.draw(kforms(degree=data.draw(st.integers(0, 7 - a.degree))))
    got = wedge(a, b)
    T = dz.wedge(dz.from_kform(a), a.degree, dz.from_kform(b), b.degree)
    assert dz.max_dev(T, got.degree, got) < 1e-11


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_wedge_graded_anticommutative(data):
    a = data.draw(kforms())
    b = data.draw(kforms(degree=data.draw(st.integers(0, 7 - a.degree))))
    lhs = wedge(a, b)
    rhs = ((-1.0) ** (a.degree * b.degree)) * wedge(b, a)
    assert (lhs - rhs).norm() < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_wedge_associative(data):
    a = data.draw(kforms(degree=data.draw(st.integers(0, 3))))
    b = data.draw(kforms(degree=data.draw(st.integers(0, 3))))
    c = data.draw(kforms(degree=data.draw(st.integers(0, 7 - a.degree - b.degree))))
    lhs = wedge(wedge(a, b), c)
    rhs = wedge(a, wedge(b, c))
    assert (lhs - rhs).norm() < 1e-11


# -- hodge star and inner product ---------------------------------------------


def test_hodge_basis_values():
    assert hodge(monomial((1,))).coeffs == {(2, 3, 4, 5, 6, 7): 1.0}
    assert hodge(monomial((1, 2))).coeffs == {(3, 4, 5, 6, 7): 1.0}
    assert hodge(VOL).coeffs == {(): 1.0}
    assert hodge(KForm(0, {(): 1.0})).coeffs == {tuple(range(1, 8)): 1.0}


@settings(max_examples=60, deadline=None)
@given(kforms())
def test_hodge_involution(a):
    assert (hodge(hodge(a)) - a).norm() < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_wedge_with_hodge_computes_inner(data):
    deg = data.draw(st.integers(0, 7))
    a = data.draw(kforms(degree=deg))
    b = data.draw(kforms(degree=deg))
    vol_coeff = wedge(a, hodge(b)).scalar()
    assert vol_coeff == pytest.approx(inner(a, b), abs=1e-11)


@settings(max_examples=40, deadline=None)
@given(kforms())
def test_hodge_is_an_isometry(a):
    assert inner(hodge(a), hodge(a)) == pytest.approx(inner(a, a), abs=1e-11)


def test_inner_requires_equal_degrees():
    with pytest.raises(ValueError):
        inner(monomial((1,)), monomial((1, 2)))


# -- derivation action ----------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_theta_matches_dense_oracle(data):
    a = data.draw(kforms())
    D = data.draw(matrices(7))
    got = theta(D, a)
    assert dz.max_dev(dz.theta(D, dz.from_kform(a), a.degree), a.degree, got) < 1e-11


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_theta_small_block_matches_embedded_full_matrix(data):
    a = data.draw(kforms())
    D4 = data.draw(matrices(4))
    D7 = np.zeros((7, 7))
    D7[2:6, 2:6] = D4
    assert (theta(D4, a) - theta(D7, a)).norm() < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_theta_is_a_derivation(data):
    D = data.draw(matrices(7))
    a = data.draw(kforms(degree=data.draw(st.integers(0, 4))))
    b = data.draw(kforms(degree=data.draw(st.integers(0, 7 - a.degree))))
    lhs = theta(D, wedge(a, b))
    rhs = wedge(theta(D, a), b) + wedge(a, theta(D, b))
    assert (lhs - rhs).norm() < 1e-10


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_theta_is_a_lie_algebra_homomorphism(data):
    D = data.draw(matrices(7))
    E = data.draw(matrices(7))
    a = data.draw(kforms())
    lhs = theta(D @ E - E @ D, a)
    rhs = theta(D, theta(E, a)) - theta(E, theta(D, a))
    assert (lhs - rhs).norm() < 1e-9


def test_theta_scales_volume_by_minus_trace():
    rng = np.random.default_rng(3)
    D = rng.standard_normal((7, 7))
    got = theta(D, VOL)
    assert got.scalar() == pytest.approx(-np.trace(D), abs=1e-12)


def test_theta_rejects_other_shapes():
    with pytest.raises(ValueError):
        theta(np.zeros((3, 3)), PHI)


def test_theta_on_traceless_diagonal_swaps_selfdual_types():
    # Diag(d1..d4) with zero trace sends each plain omega to a barred one
    rng = np.random.default_rng(11)
    d = rng.uniform(-2, 2, size=4)
    d -= d.mean()
    D = np.diag(d)
    for om, om_bar, pair in ((OMEGA7, OMEGA7_BAR, (0, 1)),
                             (OMEGA1, OMEGA1_BAR, (0, 2)),
                             (OMEGA2, OMEGA2_BAR, (0, 3))):
        coef = -(d[pair[0]] + d[pair[1]])
        assert (theta(D, om) - coef * om_bar).norm() < 1e-13
        assert (theta(D, om_bar) - coef * om).norm() < 1e-13


# -- fixed forms -----------------------------------------------------------------


def test_dual_four_form_literal():
    assert PSI.coeffs == {
        (1, 2, 3, 4): 1.0,
        (1, 2, 5, 6): 1.0,
        (2, 3, 5, 7): 1.0,
        (2, 4, 6, 7): -1.0,
        (1, 3, 6, 7): 1.0,
        (1, 4, 5, 7): 1.0,
        (3, 4, 5, 6): 1.0,
    }


def test_three_form_squared_norms():
    assert inner(PHI, PHI) == pytest.approx(7.0)
    assert inner(PSI, PSI) == pytest.approx(7.0)
    assert wedge(PHI, PSI).scalar() == pytest.approx(7.0)


def test_three_form_block_decomposition():
    e = monomial
    rebuilt = (wedge(OMEGA7, e((7,))) + wedge(OMEGA1, e((1,)))
               + wedge(OMEGA2, e((2,))) + e((1, 2, 7)))
    assert (rebuilt - PHI).norm() < 1e-14
    rebuilt_dual = (wedge(OMEGA7, e((1, 2))) + wedge(OMEGA1, e((2, 7)))
                    - wedge(OMEGA2, e((1, 7))) + e((3, 4, 5, 6)))
    assert (rebuilt_dual - PSI).norm() < 1e-14


def test_selfdual_basis_wedge_table():
    oms = [OMEGA7, OMEGA1, OMEGA2]
    bars = [OMEGA7_BAR, OMEGA1_BAR, OMEGA2_BAR]
    vol4 = monomial((3, 4, 5, 6))
    for i, oi in enumerate(oms):
        for j, oj in enumerate(oms):
            expect = 2.0 * vol4 if i == j else zero_form(4)
            assert (wedge(oi, oj) - expect).norm() < 1e-14
    for i, bi in enumerate(bars):
        for j, oj in enumerate(oms):
            assert wedge(bi, oj).norm() < 1e-14
        for j, bj in enumerate(bars):
            expect = -2.0 * vol4 if i == j else zero_form(4)
            assert (wedge(bi, bj) - expect).norm() < 1e-14


# -- the tables, one basis monomial at a time ----------------------------------------
# Since ce_differential and tests/reference_formulas.py are both built on
# theta, the dense oracle is the one fully independent check of the tables.


def test_dense_oracle_is_independent_of_the_package():
    tree = ast.parse(Path(dz.__file__).read_text(encoding="utf-8"))
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    names += [node.module or "" for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom)]
    assert names and not [n for n in names if n.split(".")[0] == "g2solv"]


def test_hodge_table_matches_dense_oracle_on_every_monomial():
    for e in BASIS_FORMS:
        T = dz.hodge(dz.from_kform(e), e.degree)
        assert dz.max_dev(T, 7 - e.degree, hodge(e)) < 1e-12, e


@pytest.mark.parametrize("n", [7, 4])
def test_theta_table_matches_dense_oracle_on_every_monomial(n):
    D = np.random.default_rng(n).standard_normal((n, n))
    for e in BASIS_FORMS:
        T = dz.theta(D, dz.from_kform(e), e.degree)
        assert dz.max_dev(T, e.degree, theta(D, e)) < 1e-12, e


def test_covector_wedge_matches_dense_oracle_on_every_monomial():
    for v in range(1, 8):
        ev = monomial((v,))
        Tv = dz.from_kform(ev)
        for e in BASIS_FORMS[:-1]:
            T = dz.wedge(Tv, 1, dz.from_kform(e), e.degree)
            assert dz.max_dev(T, e.degree + 1, wedge(ev, e)) < 1e-12, (v, e)
