"""Quartic fields, unit actions and lattice certification."""

import itertools
import json
import math
import random
import time
from fractions import Fraction
from operator import mul

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lattice_oracle import diag_residual
from g2solv import numberlat
from g2solv.numberlat import (
    BUILTIN_EXAMPLES,
    QuarticPoly,
    UnitSpec,
    certify_lattice,
    is_irreducible,
    is_totally_real,
    mult_independence,
    poly_square_mod,
    roots,
    unit_matrix,
)

P15 = BUILTIN_EXAMPLES["kl-2015"]["poly"]
PS3 = BUILTIN_EXAMPLES["kl-sqrt3"]["poly"]


def _companion(p: QuarticPoly):
    """The companion matrix of p, multiplication by u in the basis 1, u,
    u^2, u^3, written out from p's coefficients."""
    a0, a1, a2, a3 = p.coeffs()
    return [[0, 0, 0, -a0], [1, 0, 0, -a1], [0, 1, 0, -a2], [0, 0, 1, -a3]]


# -- polynomials ------------------------------------------------------------------


def test_poly_rejects_non_integer_coefficients():
    with pytest.raises(ValueError):
        QuarticPoly(1.0, 0, 0, 0)
    with pytest.raises(ValueError):
        UnitSpec(0, 0.5, 0, 0)


def _derivative(p: QuarticPoly, x):
    """p'(x) by Horner's rule, for a number or a numpy array x."""
    _, a1, a2, a3 = p.coeffs()
    return ((4 * x + 3 * a3) * x + 2 * a2) * x + a1


def test_poly_evaluation_and_derivative():
    p = QuarticPoly(1, 4, -4, -1)
    # t^4 - t^3 - 4 t^2 + 4 t + 1 at small integers, exactly
    assert p(0) == 1
    assert p(1) == 1
    assert p(2) == 1
    assert p(-2) == 1
    x = 0.37
    h = 1e-6
    num = (p(x + h) - p(x - h)) / (2 * h)
    assert _derivative(p, x) == pytest.approx(num, rel=1e-8)


def test_unit_evaluation():
    q = UnitSpec(3, -4, 0, 1)
    assert q(2) == 3 - 8 + 8
    assert q(0) == 3


def test_irreducibility_detects_rational_roots():
    # t^4 - 1 has the root 1
    assert not is_irreducible(QuarticPoly(-1, 0, 0, 0))


def test_irreducibility_detects_quadratic_split():
    # (t^2 - 2)(t^2 - 3) and (t^2 - 1)^2
    assert not is_irreducible(QuarticPoly(6, 0, -5, 0))
    assert not is_irreducible(QuarticPoly(1, 0, -2, 0))


def test_irreducibility_detects_a_quadratic_split_beyond_float_precision():
    # (t^2 + b t + 1)(t^2 + 3 t + 1); the discriminant (b - 3)^2 exceeds 2^53
    # here, and overflows a float sqrt for b = 10^160
    for b in (2**60 + 100, 10**160):
        p = QuarticPoly(1, b + 3, 3 * b + 2, b + 3)
        assert not is_irreducible(p)
        cert = certify_lattice(p, BUILTIN_EXAMPLES["kl-2015"]["units"])
        assert cert.checks["irreducible"] is False
        assert cert.reason == "polynomial or unit validation failed"


def test_irreducibility_accepts_the_builtin_fields():
    assert is_irreducible(P15)
    assert is_irreducible(PS3)
    assert is_irreducible(QuarticPoly(1, 0, 0, 0))  # t^4 + 1


def _times(f: list, g: list) -> list:
    """Product of integer coefficient lists, leading term first."""
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


def _divides(g: list, f: list) -> bool:
    """Whether the monic integer g divides f exactly, leading terms first."""
    f = list(f)
    while len(f) >= len(g):
        lead = f.pop(0)
        for i, y in enumerate(g[1:]):
            f[i] -= lead * y
    return not any(f)


def _oracle_reducible(p: QuarticPoly) -> bool:
    """p has an integer root (within Cauchy's bound), or two of its float
    roots have an integer sum and product whose quadratic divides p."""
    coeffs = [1, p.a3, p.a2, p.a1, p.a0]
    bound = 1 + max(map(abs, coeffs))
    if any(p(r) == 0 for r in range(-bound, bound + 1)):
        return True
    z = np.roots(coeffs)
    return any(_divides([1, -round((x + y).real), round((x * y).real)], coeffs)
               for x, y in itertools.combinations(z, 2))


SMALL = st.integers(-30, 30)
FACTOR = st.integers(-5, 5)


@settings(max_examples=300, deadline=None)
@given(p=st.one_of(
    st.tuples(*[SMALL] * 4).map(lambda c: [1, *c[::-1]]),
    st.tuples(*[FACTOR] * 4).map(lambda c: _times([1, c[0], c[1]], [1, c[2], c[3]])),
    st.tuples(*[FACTOR] * 4).map(lambda c: _times([1, c[0]], [1, c[1], c[2], c[3]]))))
def test_irreducibility_matches_a_root_pairing_oracle(p):
    # random quartics, products of two quadratics and of a line and a cubic
    p = QuarticPoly(*p[:0:-1])
    assert is_irreducible(p) == (not _oracle_reducible(p))


def test_roots_of_the_cyclotomic_field():
    u = roots(P15)
    expect = np.sort(2.0 * np.cos(2.0 * np.pi * np.array([1, 2, 4, 7]) / 15.0))[::-1]
    assert np.abs(u - expect).max() < 1e-12


def test_roots_of_the_biquadratic_field():
    u = roots(PS3)
    s3 = np.sqrt(3.0)
    expect = np.sort([np.sqrt(2 + s3), np.sqrt(2 - s3),
                      -np.sqrt(2 - s3), -np.sqrt(2 + s3)])[::-1]
    assert np.abs(u - expect).max() < 1e-12


def test_roots_reject_complex_pairs():
    with pytest.raises(ValueError):
        roots(QuarticPoly(-2, 0, 0, 0))  # t^4 - 2
    with pytest.raises(ValueError):
        roots(QuarticPoly(1, 0, 0, 0))  # t^4 + 1


def test_roots_reject_repetitions():
    with pytest.raises(ValueError):
        roots(QuarticPoly(1, 0, -2, 0))  # (t^2 - 1)^2


def test_roots_reject_every_exact_double_root():
    # (t - r)^2 (t - a)(t - b): float roots split a double root by about the
    # square root of the rounding in p, 1e-7 here, beyond the float guard
    rng = random.Random(31)
    for _ in range(300):
        r, a, b = rng.sample(range(-50, 51), 3)
        coeffs = _times(_times([1, -r], [1, -r]), _times([1, -a], [1, -b]))
        with pytest.raises(ValueError, match="^repeated roots$"):
            roots(QuarticPoly(*coeffs[:0:-1]))


def test_roots_reject_distinct_roots_floats_cannot_separate():
    # t^4 - 2 (10^k t - 1)^2 has four distinct real roots, two of them near
    # 10^-k and about 1.4 10^-3k apart: 1.4e-12 at k = 4, which floats
    # resolve, and within about one ulp at k = 8 and 9, which they cannot
    p = QuarticPoly(-2, 4 * 10**4, -2 * 10**8, 0)
    assert is_totally_real(p) and is_irreducible(p)
    assert roots(p) == _nearest_roots(p)
    for k in (8, 9):
        p = QuarticPoly(-2, 4 * 10**k, -2 * 10**(2 * k), 0)
        assert is_totally_real(p) and is_irreducible(p)
        with pytest.raises(ValueError, match="floats cannot"):
            roots(p)


@settings(max_examples=300, deadline=None)
@given(p=st.tuples(*[SMALL] * 4))
def test_roots_decide_total_reality_by_the_sturm_chain(p):
    p = QuarticPoly(*p)
    try:
        roots(p)
        message = ""
    except ValueError as exc:
        message = str(exc)
    assert ("not totally real" in message) == (not is_totally_real(p))


def _from_list(coeffs: list) -> QuarticPoly:
    """The monic quartic with the coefficient list `coeffs`, leading term
    first."""
    assert coeffs[0] == 1 and len(coeffs) == 5
    return QuarticPoly(*coeffs[:0:-1])


def _quadratic_roots(b: int, c: int) -> tuple[int, int]:
    """(distinct real roots, distinct roots) of t^2 + b t + c."""
    disc = b * b - 4 * c
    return (2 if disc > 0 else int(disc == 0)), (2 if disc else 1)


def _structured_quartics() -> dict:
    """Quartics on both sides of the closed form, each with its (distinct
    real roots, distinct roots): squares, double roots times a quadratic,
    t^4, the 5th cyclotomic polynomial, near-double pairs and huge fields."""
    cases = {}
    for b, c in itertools.product(range(-4, 5), repeat=2):
        cases[_from_list(_times([1, b, c], [1, b, c]))] = _quadratic_roots(b, c)
    for r, b, c in itertools.product(range(-2, 3), range(-3, 4), range(-3, 4)):
        # (t - r)^2 (t^2 + b t + c): r counts once when it is a root of both
        real, count = _quadratic_roots(b, c)
        shared = r * r + b * r + c == 0
        cases[_from_list(_times([1, -2 * r, r * r], [1, b, c]))] = (
            1 + real - shared, 1 + count - shared)
    cases[QuarticPoly(0, 0, 0, 0)] = (1, 1)  # t^4
    cases[QuarticPoly(1, 1, 1, 1)] = (0, 4)  # 5th cyclotomic
    for k in (4, 8, 9, 16, 17):
        # (t^2 - M t + 1)^2 - 2 t^2, a pair of roots near M and near 1/M
        M = 10**k
        cases[_from_list([1, -2 * M, M * M, -2 * M, 1])] = (4, 4)
    for a in (10**95, 10**150):
        # t (t - a)(t - 2a)(t - 3) + 1
        cases[QuarticPoly(1, -6 * a * a, 2 * a * a + 9 * a, -3 * a - 3)] = (4, 4)
    return cases


def test_real_roots_match_sympy_on_every_small_quartic():
    # all 2401 monic quartics with coefficients in [-3, 3], 81 of them with
    # a repeated root: sympy counts the real roots of the squarefree part
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    repeated = 0
    for coeffs in itertools.product(range(-3, 4), repeat=4):
        p = QuarticPoly(*coeffs)
        part = sympy.Poly([1, p.a3, p.a2, p.a1, p.a0], t).sqf_part()
        assert numberlat._real_roots(p) == (part.count_roots(), part.degree()), p
        repeated += part.degree() < 4
    assert repeated == 81


HUGE = st.integers(-10**40, 10**40)


@settings(max_examples=300, deadline=None)
@given(p=st.one_of(
    st.tuples(*[HUGE] * 4).map(lambda c: QuarticPoly(*c)),
    st.tuples(*[HUGE] * 4).map(lambda c: _from_list(_times([1, c[0], c[1]], [1, c[2], c[3]]))),
    st.tuples(*[HUGE] * 3).map(lambda c: _from_list(
        _times(_times([1, c[0]], [1, c[0]]), [1, c[1], c[2]])))))
def test_real_roots_match_the_sturm_chain(p):
    # random quartics, products of two quadratics and double roots times a
    # quadratic, with coefficients up to 10^40
    assert numberlat._real_roots(p) == numberlat._sturm(p)


def test_real_roots_of_structured_quartics():
    for p, expected in _structured_quartics().items():
        assert numberlat._real_roots(p) == expected, p
        assert numberlat._sturm(p) == expected, p


def test_distinct_roots_are_counted_without_the_sturm_chain(monkeypatch):
    # every input with a nonzero discriminant takes the closed form, so a
    # later change cannot route them back through `_sturm` unnoticed
    small = {QuarticPoly(*c): numberlat._sturm(QuarticPoly(*c))
             for c in itertools.product(range(-3, 4), repeat=4)}
    cases = {**small, **_structured_quartics()}

    def unreachable(p):
        raise AssertionError("the Sturm chain ran")

    monkeypatch.setattr(numberlat, "_sturm", unreachable)
    distinct = 0
    for p, (real, count) in cases.items():
        if count < 4:
            with pytest.raises(AssertionError, match="Sturm chain ran"):
                numberlat._real_roots(p)
            continue
        distinct += 1
        assert numberlat._real_roots(p) == (real, count), p
        assert is_totally_real(p) == (real == 4), p
        if real < 4:
            with pytest.raises(ValueError, match=r"^polynomial is not totally real \(complex roots\)$"):
                roots(p)
    assert distinct == 2401 - 81 + 7


def _array_polished_roots(p: QuarticPoly, start) -> list:
    """Newton's method in floats from `start`, on a numpy array, stopped
    after 8 steps or once every step is below 1e-12."""
    u = np.array(start)
    for _ in range(8):
        deriv = _derivative(p, u)
        step = np.where(np.abs(deriv) > 1e-30, p(u) / np.where(deriv == 0, 1, deriv), 0.0)
        u = u - step
        if np.abs(step).max() < 1e-12:
            break
    return u.tolist()


def _eigvals_roots(p: QuarticPoly) -> list:
    """The real parts of the companion eigenvalues in descending order,
    Newton-polished in floats (`_array_polished_roots`)."""
    vals = np.linalg.eigvals(np.array(_companion(p), dtype=float))
    return _array_polished_roots(p, sorted(vals.real.tolist(), reverse=True))


def _rounded(x) -> float:
    """An mpmath real rounded to the nearest float, once, through its
    exact value: mpmath's own float() rounds to 53 bits before scaling, so
    it can round twice below the normal range."""
    man, exp = x.man_exp
    y = float(Fraction(man) * Fraction(2) ** exp)
    return -y if x < 0 else y


def _nearest_roots(p: QuarticPoly) -> list:
    """The roots of p rounded to nearest, in descending order: mpmath's
    roots at 60 digits plus three per digit of p's largest coefficient,
    enough to place roots that span hundreds of orders of magnitude."""
    mpmath = pytest.importorskip("mpmath")
    dps = 60 + 3 * max(len(str(abs(a))) for a in p.coeffs())
    with mpmath.workdps(dps):
        u = mpmath.polyroots([1, p.a3, p.a2, p.a1, p.a0], maxsteps=400, extraprec=2 * dps)
        return sorted((_rounded(mpmath.re(x)) for x in u), reverse=True)


def _brackets_a_root(p: QuarticPoly, x: float) -> bool:
    """Whether p changes sign, exactly, between the two floats next to x."""
    below, above = math.nextafter(x, -math.inf), math.nextafter(x, math.inf)
    return p(Fraction(below)) * p(Fraction(above)) < 0


def test_polished_roots_bracket_a_sign_change_of_p():
    # each root is p's root rounded to nearest, on small fields and on
    # fields whose roots span up to 450 orders of magnitude: t (t-a)(t-2a)
    # (t-3) + 1 with a = 10^k, k = 60, 65, ..., 150
    fields = [p for p, _, _ in _seeded_fields(60, seed=36)]
    fields += [_square_units_field(10**k, 2 * 10**k, 3)[0] for k in range(60, 151, 5)]
    fields.append(_square_units_field(1, 2, 10**9)[0])
    for p in fields:
        u = numberlat._roots(p)
        assert u[0] > u[1] > u[2] > u[3], p.coeffs()
        assert all(_brackets_a_root(p, x) for x in u), p.coeffs()
        assert u == _nearest_roots(p), p.coeffs()


def test_roots_match_the_polished_companion_eigenvalues():
    fields = [p for p, _, _ in _seeded_fields(30, seed=30)]
    fields.append(_square_units_field(1, 2, 10**9)[0])
    for p in fields:
        for x, y in zip(numberlat._roots(p), _eigvals_roots(p)):
            assert abs(x - y) <= 1e-13 * abs(y), p.coeffs()


def test_companion_layout():
    # the matrix of u is the companion matrix, in exact ints
    M = numberlat._mul_matrix(P15, UnitSpec(0, 1, 0, 0))
    assert M == _companion(P15) == [[0, 0, 0, -1], [1, 0, 0, -4], [0, 1, 0, 4], [0, 0, 1, 1]]
    assert all(isinstance(x, int) for row in M for x in row)


def test_companion_does_not_validate():
    # certify_lattice decides irreducibility and total reality exactly; the
    # matrix of u is the integer layout only, for any monic quartic
    for p in (QuarticPoly(-2, 0, 0, 0), QuarticPoly(6, 0, -5, 0)):
        assert numberlat._mul_matrix(p, UnitSpec(0, 1, 0, 0)) == _companion(p)


# -- unit actions -------------------------------------------------------------------


def test_unit_matrices_reproduce_reference_exactly():
    for name, ex in BUILTIN_EXAMPLES.items():
        mats = [unit_matrix(ex["poly"], q) for q in ex["units"]]
        assert mats == ex["reference"], name


def test_unit_matrix_rejects_non_units():
    # t + 1 has norm -5 in the cyclotomic field
    with pytest.raises(ValueError):
        unit_matrix(P15, UnitSpec(1, 1, 0, 0))


def test_unit_matrix_entries_are_exact_ints():
    X = unit_matrix(P15, UnitSpec(0, 0, 1, 0))
    assert all(isinstance(v, int) for row in X for v in row)


def test_square_of_generator_is_the_first_unit():
    for p in (P15, PS3):
        sq = poly_square_mod(UnitSpec(0, 1, 0, 0), p)
        assert sq.coeffs() == (0, 0, 1, 0)


def test_square_reduction_matches_matrix_square():
    # q^2 mod p acted on the basis equals the square of the action of q
    for name, ex in BUILTIN_EXAMPLES.items():
        p = ex["poly"]
        for q in ex["units"]:
            X = np.array(unit_matrix(p, q), dtype=object)
            sq = poly_square_mod(q, p)
            Y = np.array(unit_matrix(p, sq), dtype=object)
            assert (X @ X == Y).all(), (name, q)


def test_spectra_are_unit_values_at_the_roots():
    for name, ex in BUILTIN_EXAMPLES.items():
        u = roots(ex["poly"])
        for q in ex["units"]:
            X = np.array(unit_matrix(ex["poly"], q), dtype=float)
            eig = np.sort(np.linalg.eigvals(X).real)
            expect = np.sort([q(x) for x in u])
            assert np.abs(eig - expect).max() < 1e-8, name


def test_diagonalize_by_root_vandermonde():
    for ex in BUILTIN_EXAMPLES.values():
        cert = certify_lattice(ex["poly"], ex["units"])
        assert diag_residual(cert.roots, cert.matrices, cert.spectra) < 1e-9
        u = np.array(cert.roots)
        assert np.abs(u - roots(ex["poly"])).max() < 1e-12
        V = np.stack([np.ones(4), u, u**2, u**3], axis=1)
        for q, X, D in zip(ex["units"], cert.matrices, cert.spectra):
            assert np.abs(np.array(D) - np.array([q(x) for x in u])).max() < 1e-9
            assert np.abs(V @ np.array(X, dtype=float) - np.diag(D) @ V).max() < 1e-9
            # positive spectra throughout: the units are squares
            assert min(D) > 0
        assert cert.checks["positive_spectra"]


def _leibniz_det(X) -> int:
    total = 0
    for perm in itertools.permutations(range(4)):
        inversions = sum(perm[i] > perm[j] for i in range(4) for j in range(i + 1, 4))
        term = (-1) ** inversions
        for i in range(4):
            term *= X[i][perm[i]]
        total += term
    return total


def _oracle_charpoly(X) -> QuarticPoly:
    """det(t I - X) of any integer 4x4 matrix, exactly: the oracle for the
    trace-form path of `numberlat._charpoly`.

    The power sums s_k = tr X^k need one product X^2 (s3 and s4 are traces
    of products, summed row by column without forming them); Newton's
    identities then give the elementary symmetric functions, each division
    exact.
    """
    cols = list(zip(*X))
    X2 = [[sum(map(mul, row, col)) for col in cols] for row in X]
    s1 = X[0][0] + X[1][1] + X[2][2] + X[3][3]
    s2 = X2[0][0] + X2[1][1] + X2[2][2] + X2[3][3]
    s3 = sum(sum(map(mul, row, col)) for row, col in zip(X2, cols))
    s4 = sum(sum(map(mul, row, col)) for row, col in zip(X2, zip(*X2)))
    e2 = (s1 * s1 - s2) // 2
    e3 = (e2 * s1 - s1 * s2 + s3) // 3
    e4 = (e3 * s1 - e2 * s2 + s1 * s3 - s4) // 4
    return QuarticPoly(e4, -e3, e2, -s1)


def test_charpoly_of_the_reference_matrices():
    # the units are squares of units, so every determinant is +1
    for ex in BUILTIN_EXAMPLES.values():
        for X in ex["reference"]:
            chi = _oracle_charpoly(X)
            assert chi.a0 == _leibniz_det(X) == 1
            assert -chi.a3 == sum(X[i][i] for i in range(4))
            assert chi.alternates_in_sign()
        T = numberlat._power_sums(ex["poly"])
        for X, q in zip(ex["reference"], ex["units"]):
            assert numberlat._charpoly(X, q, T) == _oracle_charpoly(X)
    # t^4 - 1 has the roots +-1, +-i; -I has determinant 1 and spectrum -1
    assert _oracle_charpoly(_companion(QuarticPoly(-1, 0, 0, 0))).coeffs() == (-1, 0, 0, 0)
    minus_one = [[-int(i == j) for j in range(4)] for i in range(4)]
    assert _oracle_charpoly(minus_one).coeffs() == (1, 4, 6, 4)
    assert not _oracle_charpoly(minus_one).alternates_in_sign()


def _oracle_unit_matrix(p: QuarticPoly, q: UnitSpec):
    """q(M) by Horner's rule, ((q3 M + q2) M + q1) M + q0, over exact
    object-dtype matrix products, with M = `_companion(p)`."""
    M = np.array(_companion(p), dtype=object)
    eye = np.array([[int(i == j) for j in range(4)] for i in range(4)], dtype=object)
    X = 0 * eye
    for c in reversed(q.coeffs()):
        X = X.dot(M) + c * eye
    return X.tolist()


def _oracle_charpoly_values(X):
    """det(t I - X) at t = 0..4 by the Leibniz sum; five values fix a quartic."""
    return [_leibniz_det([[t * (i == j) - X[i][j] for j in range(4)] for i in range(4)])
            for t in range(5)]


COEFF = st.one_of(st.integers(-6, 6), st.integers(-10**9, 10**9))
# monic quartics, leading term first: any coefficients (a0 = 0 included),
# a repeated root times two lines, a complex pair times a quadratic, and a
# root at 0 times a cubic
QUARTICS = st.one_of(
    st.tuples(*[COEFF] * 4).map(lambda c: [1, *c]),
    st.tuples(*[FACTOR] * 3).map(
        lambda r: _times(_times([1, -r[0]], [1, -r[0]]), [1, -(r[1] + r[2]), r[1] * r[2]])),
    st.tuples(FACTOR, st.integers(1, 30), FACTOR, FACTOR).map(
        lambda c: _times([1, c[0], c[0] * c[0] + c[1]], [1, c[2], c[3]])),
    st.tuples(*[COEFF] * 3).map(lambda c: _times([1, 0], [1, *c])))


@settings(max_examples=200, deadline=None)
@given(p=QUARTICS)
def test_power_sums_are_traces_of_powers_of_the_companion_matrix(p):
    p = QuarticPoly(*p[:0:-1])
    M = np.array(_companion(p), dtype=object)
    power = np.array(_oracle_unit_matrix(p, UnitSpec(1, 0, 0, 0)), dtype=object)
    T = numberlat._power_sums(p)
    assert len(T) == 7 and all(type(t) is int for t in T)
    for k in range(7):
        assert T[k] == power.trace()
        power = power.dot(M)


@settings(max_examples=200, deadline=None)
@given(p=QUARTICS, q=st.tuples(*[COEFF] * 4))
def test_trace_form_charpoly_matches_the_leibniz_oracle(p, q):
    p, q = QuarticPoly(*p[:0:-1]), UnitSpec(*q)
    X = numberlat._mul_matrix(p, q)
    chi = numberlat._charpoly(X, q, numberlat._power_sums(p))
    assert all(type(c) is int for c in chi.coeffs())
    assert [chi(t) for t in range(5)] == _oracle_charpoly_values(X)


@settings(max_examples=200, deadline=None)
@given(p=st.tuples(*[COEFF] * 4), q=st.tuples(*[COEFF] * 4))
def test_unit_matrix_and_charpoly_match_the_horner_oracle(p, q):
    # mostly non-units: unit_matrix must raise exactly when |det| != 1
    p, q = QuarticPoly(*p), UnitSpec(*q)
    X = numberlat._mul_matrix(p, q)
    assert X == _oracle_unit_matrix(p, q)
    assert all(type(v) is int for row in X for v in row)
    square = np.array(_oracle_unit_matrix(p, q), dtype=object).dot(q.coeffs())
    assert list(poly_square_mod(q, p).coeffs()) == square.tolist()
    chi = _oracle_charpoly(X)
    assert [chi(t) for t in range(5)] == _oracle_charpoly_values(X)
    assert numberlat._charpoly(X, q, numberlat._power_sums(p)) == chi
    if chi.a0 in (1, -1):
        assert unit_matrix(p, q) == X
    else:
        with pytest.raises(ValueError, match="not a unit"):
            unit_matrix(p, q)


@settings(max_examples=100, deadline=None)
@given(roots=st.lists(st.one_of(st.integers(-20, 20), st.integers(-10**9, 10**9)),
                      min_size=3, max_size=3, unique=True),
       k=st.integers(0, 2))
def test_squared_units_of_large_fields_match_the_horner_oracle(roots, k):
    # t (t-a)(t-b)(t-c) + 1 has the units u, u-a and u-b; their squares have
    # determinant 1 and, on a totally real field, a positive spectrum
    assume(0 not in roots)
    p, units = _square_units_field(*roots)
    q = units[k]
    X = unit_matrix(p, q)
    assert X == _oracle_unit_matrix(p, q)
    chi = _oracle_charpoly(X)
    assert [chi(t) for t in range(5)] == _oracle_charpoly_values(X)
    assert numberlat._charpoly(X, q, numberlat._power_sums(p)) == chi
    assert chi.a0 == _leibniz_det(X) == 1
    if is_totally_real(p):
        assert chi.alternates_in_sign()


@settings(max_examples=150, deadline=None)
@given(near_roots=st.lists(st.integers(-12, 12), min_size=4, max_size=4, unique=True),
       shift=st.integers(-3, 3),
       q=st.tuples(*[st.integers(-6, 6)] * 4))
def test_exact_spectrum_sign_and_determinant_match_floats(near_roots, shift, q):
    # monic quartics prod (t - r) + shift, kept when the Sturm chain finds
    # them totally real and the float roots are far enough apart for the
    # float eigenvalues of q(M) to be reliable
    coeffs = [1]  # leading term first
    for r in near_roots:
        coeffs = [x - r * y for x, y in zip(coeffs + [0], [0] + coeffs)]
    coeffs[-1] += shift
    p, q = QuarticPoly(*coeffs[:0:-1]), UnitSpec(*q)
    assume(is_totally_real(p))
    u = np.sort(np.roots(coeffs).real)
    assume(np.diff(u).min() > 0.05)
    X = numberlat._mul_matrix(p, q)
    eig = np.linalg.eigvals(np.array(X, dtype=float))
    scale = max(1.0, np.abs(eig).max())
    assume(np.abs(eig).min() > 1e-6 * scale)
    chi = _oracle_charpoly(X)
    assert chi.a0 == _leibniz_det(X)
    assert chi.alternates_in_sign() == bool(np.all(eig.real > 0))
    assert numberlat._charpoly(X, q, numberlat._power_sums(p)) == chi


# -- multiplicative independence -------------------------------------------------------


def test_builtin_units_are_independent_of_rank_three():
    for ex in BUILTIN_EXAMPLES.values():
        rep = mult_independence(ex["poly"], ex["units"])
        assert rep["independent"] is True
        assert rep["regulator"] >= numberlat._REGULATOR_FLOOR
        assert np.shape(rep["log_matrix"]) == (3, 4)


def test_builtin_regulators_match_an_mpmath_determinant():
    # |det log|q_i(u_j)|| over three embeddings, at 60 digits
    for name, expected in (("kl-2015", 18.6473), ("kl-sqrt3", 21.2872)):
        ex = BUILTIN_EXAMPLES[name]
        regulator = _field_at_high_precision(ex["poly"], ex["units"])[3]
        assert regulator == pytest.approx(expected, abs=1e-4), name
        rep = mult_independence(ex["poly"], ex["units"])
        assert rep["regulator"] == pytest.approx(regulator, rel=1e-12), name


def test_powers_of_one_unit_are_dependent():
    q1 = UnitSpec(0, 0, 1, 0)
    q2 = poly_square_mod(q1, P15)
    q4 = poly_square_mod(q2, P15)
    rep = mult_independence(P15, [q1, q2, q4])
    assert rep["independent"] is False
    assert rep["regulator"] < 1e-12


def test_certified_regulators_clear_the_least_regulator_of_any_field():
    # the float regulator agrees with the theorem behind the verdict: no
    # certified field reads below 0.2052
    for p, _, cert in _seeded_fields(60, seed=36):
        if cert.verdict:
            assert cert.checks["regulator"] >= numberlat._REGULATOR_FLOOR, p.coeffs()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_mult_independence_takes_exactly_three_units(n):
    units = (BUILTIN_EXAMPLES["kl-2015"]["units"] * 2)[:n]
    if n != 3:
        with pytest.raises(ValueError, match=f"independence needs three units, got {n}"):
            mult_independence(P15, units)
        return
    rep = mult_independence(P15, units)
    assert np.shape(rep["log_matrix"]) == (3, 4)
    # each row sums to 0, so every choice of three columns gives one |det|
    L = np.array(rep["log_matrix"])
    for columns in itertools.combinations(range(4), 3):
        expected = abs(np.linalg.det(L[:, columns]))
        assert rep["regulator"] == pytest.approx(expected, rel=1e-12), columns


# -- certification ----------------------------------------------------------------------


def test_certificates_for_builtin_examples():
    for name, ex in BUILTIN_EXAMPLES.items():
        cert = certify_lattice(ex["poly"], ex["units"])
        assert cert.verdict, name
        assert cert.reason == "certified"
        assert cert.matrices == ex["reference"]
        checks = cert.checks
        for key in ("irreducible", "unit_constant_term", "totally_real",
                    "units_valid", "integral", "det_one", "commute",
                    "diagonalized", "positive_spectra", "independent"):
            assert checks[key], (name, key)
        assert diag_residual(cert.roots, cert.matrices, cert.spectra) < 1e-9, name


def test_certificate_serializes_to_json():
    cert = certify_lattice(P15, BUILTIN_EXAMPLES["kl-2015"]["units"])
    payload = json.loads(json.dumps(cert.to_dict()))
    assert payload["verdict"] is True
    assert payload["matrices"] == BUILTIN_EXAMPLES["kl-2015"]["reference"]
    assert len(payload["roots"]) == 4


_EARLY_CHECKS = {"irreducible", "unit_constant_term", "totally_real", "units_valid"}
_EXACT_CHECKS = _EARLY_CHECKS | {"integral", "det_one", "commute", "positive_spectra",
                                 "diagonalized"}


@pytest.mark.parametrize("case, checks, reason", [
    ("certified", _EXACT_CHECKS | {"independent", "regulator"}, "certified"),
    ("not totally real", _EARLY_CHECKS, "polynomial or unit validation failed"),
    ("beyond the float range", _EXACT_CHECKS,
     "floating-point pass failed: coefficients beyond the float range"),
])
def test_certificate_keys_are_pinned(case, checks, reason):
    # a field added to or dropped from the report is a deliberate change
    p, units = {
        "certified": (P15, BUILTIN_EXAMPLES["kl-2015"]["units"]),
        "not totally real": (QuarticPoly(1, 1, 1, 1), [UnitSpec(0, 1, 0, 0)] * 3),
        "beyond the float range": _square_units_field(10**200, 2 * 10**200, 3),
    }[case]
    cert = certify_lattice(p, units).to_dict()
    assert set(cert) == {"poly", "units", "matrices", "roots", "spectra", "checks",
                         "verdict", "reason"}
    assert set(cert["checks"]) == checks
    assert cert["reason"] == reason


@pytest.mark.parametrize("k", [0, 1, 2, 4])
def test_certification_requires_three_units(k):
    units = (BUILTIN_EXAMPLES["kl-2015"]["units"] * 2)[:k]
    with pytest.raises(ValueError, match=f"a lattice needs three units, got {k}"):
        certify_lattice(P15, units)


def test_certification_fails_on_reducible_polynomial():
    cert = certify_lattice(QuarticPoly(6, 0, -5, 0),
                           BUILTIN_EXAMPLES["kl-2015"]["units"])
    assert not cert.verdict
    assert not cert.checks["irreducible"]
    assert cert.reason == "polynomial or unit validation failed"


def test_certification_skips_factoring_without_a_unit_constant_term():
    # the divisor search would take sqrt(1e19) steps; a0 != +-1 decides first
    p = QuarticPoly(10**19 + 1, 0, -(10**10), 0)
    start = time.perf_counter()
    cert = certify_lattice(p, BUILTIN_EXAMPLES["kl-2015"]["units"])
    assert time.perf_counter() - start < 1.0
    assert cert.checks["unit_constant_term"] is False
    assert cert.checks["irreducible"] is None
    assert not cert.verdict
    assert cert.reason == "polynomial or unit validation failed"


def test_certification_fails_on_complex_field():
    cert = certify_lattice(QuarticPoly(-2, 0, 0, 0),
                           BUILTIN_EXAMPLES["kl-2015"]["units"])
    assert not cert.verdict
    assert not cert.checks["totally_real"]


def test_totally_real_counts_repeated_roots():
    assert is_totally_real(P15) and is_totally_real(PS3)
    assert is_totally_real(QuarticPoly(1, 0, -2, 0))  # (t^2 - 1)^2
    assert is_totally_real(QuarticPoly(0, 0, 0, 0))  # t^4
    assert not is_totally_real(QuarticPoly(1, 1, 1, 1))  # 5th cyclotomic
    assert not is_totally_real(QuarticPoly(1, 0, 2, 0))  # (t^2 + 1)^2
    assert not is_totally_real(QuarticPoly(-1, 0, 0, 0))  # t^4 - 1


def test_certification_reports_a_square_as_totally_real_but_reducible():
    units = [UnitSpec(0, 0, 1, 0)] * 3
    square = certify_lattice(QuarticPoly(1, -6, 11, -6), units)  # (t^2 - 3t + 1)^2
    assert square.checks["totally_real"] is True
    assert square.checks["irreducible"] is False
    assert square.verdict is False
    cyclotomic = certify_lattice(QuarticPoly(1, 1, 1, 1), units)
    assert cyclotomic.checks["totally_real"] is False
    assert cyclotomic.verdict is False


def test_certification_fails_on_non_unit():
    units = [UnitSpec(0, 0, 1, 0), UnitSpec(1, 1, 0, 0), UnitSpec(4, 3, -1, -1)]
    cert = certify_lattice(P15, units)
    assert not cert.verdict
    assert cert.checks["units_valid"] is False


def test_certification_fails_on_dependent_units():
    q1 = UnitSpec(0, 0, 1, 0)
    q2 = poly_square_mod(q1, P15)
    q4 = poly_square_mod(q2, P15)
    cert = certify_lattice(P15, [q1, q2, q4])
    assert not cert.verdict
    assert cert.checks["independent"] is False
    # everything structural still passes: they are honest units
    assert cert.checks["det_one"] and cert.checks["commute"]


def _square_units_field(a: int, b: int, c: int):
    """t (t-a)(t-b)(t-c) + 1 with the squares of its units u, u-a and u-b."""
    p = QuarticPoly(1, -a * b * c, a * b + a * c + b * c, -(a + b + c))
    units = [poly_square_mod(UnitSpec(-k, 1, 0, 0), p) for k in (0, a, b)]
    return p, units


def test_large_coefficient_field_is_certified():
    # float diagonals of V X V^-1 lost the spectrum here: the spectra are
    # squares, positive, and now decided from the characteristic polynomials
    cert = certify_lattice(*_square_units_field(1, 2, 10**7))
    assert cert.verdict, cert.checks
    assert cert.checks["positive_spectra"] is True
    assert diag_residual(cert.roots, cert.matrices, cert.spectra) < 1e-9
    regulator = _field_at_high_precision(*_square_units_field(1, 2, 10**7))[3]
    assert cert.checks["regulator"] == pytest.approx(regulator, rel=1e-9)


def test_field_with_roots_sixty_orders_apart_is_certified():
    # roots near 1.7e-121, 3, 1e60 and 2e60: the root 3 is told apart, and
    # the residual is taken in mpmath, where |X|^2 would overflow a float
    cert = certify_lattice(*_square_units_field(10**60, 2 * 10**60, 3))
    assert cert.verdict, cert.checks
    assert cert.roots == pytest.approx([2e60, 1e60, 3.0, 1 / 6e120], rel=1e-13)
    assert diag_residual(cert.roots, cert.matrices, cert.spectra) < 1e-9


def test_fields_with_roots_far_apart_certify_at_every_scale():
    # t (t-a)(t-2a)(t-3) + 1 with a = 10^k: Horner's p(x) in floats cancels
    # inexactly near the root 2a, which the exact polish does not; the roots
    # lie within 1.2e-16 of 2a, a, 3 and 1/(6 a^2), relative, at every k
    for k in range(60, 151, 5):
        a = 10**k
        cert = certify_lattice(*_square_units_field(a, 2 * a, 3))
        assert cert.verdict, (k, cert.reason)
        near = (Fraction(2 * a), Fraction(a), Fraction(3), Fraction(1, 6 * a * a))
        for x, y in zip(cert.roots, near):
            assert abs(Fraction(x) - y) <= Fraction(12, 10**17) * y, k


def test_certificate_roots_are_proven_next_to_a_near_double_pair():
    # (t^2 - M t + 1)^2 - 2 t^2 has roots near M +- sqrt(2) and 1/(M -+
    # sqrt(2)); with the unit u three times the certificate fails on
    # independence, after its float pass.  At M = 10^16 the pair near M is
    # about 1.4 ulps apart and each root is reported rounded to nearest; at
    # M = 10^17 it lies within one ulp, and the float pass fails instead
    u = UnitSpec(0, 1, 0, 0)
    M = 10**16
    p = QuarticPoly(1, -2 * M, M * M, -2 * M)
    cert = certify_lattice(p, [u] * 3)
    assert cert.reason == "checks failed" and cert.checks["independent"] is False
    assert cert.roots == _nearest_roots(p) == [
        1.0000000000000002e16, 9999999999999998.0, 1.0000000000000001e-16, 9.999999999999999e-17]
    M = 10**17
    cert = certify_lattice(QuarticPoly(1, -2 * M, M * M, -2 * M), [u] * 3)
    assert cert.reason.startswith("floating-point pass failed: "), cert.reason
    assert cert.roots == [] and "independent" not in cert.checks


def _field_at_high_precision(p: QuarticPoly, units):
    """The roots of p in descending order, Q[i, j] = q_i(u_j), L[i, j] =
    log|q_i(u_j)| and the regulator |det L[:, :3]|, all at 60 digits, then
    rounded to floats."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        u = sorted((mpmath.re(r) for r in mpmath.polyroots(
            [1, p.a3, p.a2, p.a1, p.a0], maxsteps=200, extraprec=200)), reverse=True)
        Q = [[q(x) for x in u] for q in units]
        L = mpmath.matrix([[mpmath.log(abs(v)) for v in row] for row in Q])
        regulator = abs(mpmath.det(L[:, :3]))
        return ([float(x) for x in u], [[float(v) for v in row] for row in Q],
                np.array(L.tolist(), dtype=float), float(regulator))


def test_huge_field_with_a_cancelling_conjugate_is_certified():
    # the units (u-1)^2 and (u-2)^2 cancel to 0.0 at the float roots near 1
    # and 2; each row's smallest conjugate is taken from the exact norm 1
    p, units = _square_units_field(1, 2, 10**9)
    cert = certify_lattice(p, units)
    assert 0.0 in np.array([q(np.array(cert.roots)) for q in units])
    assert cert.verdict, cert.checks
    assert cert.reason == "certified"
    _, values, _, regulator = _field_at_high_precision(p, units)
    assert cert.checks["regulator"] == pytest.approx(regulator, rel=1e-9)
    # the reported spectra hold those conjugates too, about 2.5e-19
    assert 0.0 not in [v for row in cert.spectra for v in row]
    for row, expected in zip(cert.spectra, values):
        assert row == pytest.approx(expected, rel=1e-9)
    assert diag_residual(cert.roots, cert.matrices, cert.spectra) < 1e-9


def _seeded_fields(count: int, seed: int):
    """`count` fields t (t-a)(t-b)(t-c) + 1 with distinct nonzero a, b, c in
    [-15, 15], drawn with a fixed seed, that reach the float pass."""
    rng = random.Random(seed)
    fields = []
    while len(fields) < count:
        p, units = _square_units_field(*rng.sample([k for k in range(-15, 16) if k], 3))
        cert = certify_lattice(p, units)
        if cert.roots:
            fields.append((p, units, cert))
    return fields


def test_float_pass_matches_a_high_precision_oracle():
    for p, units, cert in _seeded_fields(30, seed=26):
        u, values, L, regulator = _field_at_high_precision(p, units)
        tag = p.coeffs()
        assert np.abs(mult_independence(p, units)["log_matrix"] - L).max() < 1e-9, tag
        for x, expected in zip(cert.roots, u):
            # the exact polish ends within one ulp of the root, whatever its
            # condition number
            assert abs(x - expected) <= math.ulp(expected), tag
        assert cert.checks["regulator"] == pytest.approx(regulator, rel=1e-9), tag
        # the root Vandermonde diagonalizes every reported matrix
        assert diag_residual(cert.roots, cert.matrices, cert.spectra) < 1e-9, tag
        for row, expected in zip(cert.spectra, values):
            assert row == pytest.approx(expected, rel=1e-9), tag


def test_certificate_lets_unexpected_errors_propagate(monkeypatch):
    def broken(p, units):
        raise TypeError("bug in a helper")

    monkeypatch.setattr(numberlat, "mult_independence", broken)
    ex = BUILTIN_EXAMPLES["kl-2015"]
    with pytest.raises(TypeError, match="bug in a helper"):
        certify_lattice(ex["poly"], ex["units"])


def test_third_reference_matrix_trace():
    X = BUILTIN_EXAMPLES["kl-2015"]["reference"][2]
    assert sum(X[i][i] for i in range(4)) == 9
