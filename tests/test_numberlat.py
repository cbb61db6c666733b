"""Quartic fields, unit actions and lattice certification."""

import json

import numpy as np
import pytest

from g2solv.numberlat import (
    BUILTIN_EXAMPLES,
    QuarticPoly,
    UnitSpec,
    certify_lattice,
    companion,
    diagonalize,
    is_irreducible,
    is_totally_real,
    mult_independence,
    poly_square_mod,
    roots,
    unit_matrix,
)

P15 = BUILTIN_EXAMPLES["kl-2015"]["poly"]
PS3 = BUILTIN_EXAMPLES["kl-sqrt3"]["poly"]


# -- polynomials ------------------------------------------------------------------


def test_poly_rejects_non_integer_coefficients():
    with pytest.raises(ValueError):
        QuarticPoly(1.0, 0, 0, 0)
    with pytest.raises(ValueError):
        UnitSpec(0, 0.5, 0, 0)


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
    assert p.derivative(x) == pytest.approx(num, rel=1e-8)


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


def test_companion_layout():
    M = companion(P15)
    assert M == [[0, 0, 0, -1], [1, 0, 0, -4], [0, 1, 0, 4], [0, 0, 1, 1]]
    assert all(isinstance(x, int) for row in M for x in row)


def test_companion_check_rejects_bad_input():
    with pytest.raises(ValueError):
        companion(QuarticPoly(6, 0, -5, 0))
    with pytest.raises(ValueError):
        companion(QuarticPoly(-2, 0, 0, 0))
    # check=False skips validation
    M = companion(QuarticPoly(-2, 0, 0, 0), check=False)
    assert M[0][3] == 2


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
        mats = [unit_matrix(ex["poly"], q) for q in ex["units"]]
        out = diagonalize(ex["poly"], mats)
        assert out["residual"] < 1e-9
        u = out["roots"]
        assert np.allclose(out["vandermonde"],
                           np.stack([np.ones(4), u, u**2, u**3], axis=1))
        for q, D in zip(ex["units"], out["diagonals"]):
            assert np.abs(D - np.array([q(x) for x in u])).max() < 1e-9
        # positive spectra throughout: the units are squares
        assert all(np.all(D > 0) for D in out["diagonals"])


# -- multiplicative independence -------------------------------------------------------


def test_builtin_units_are_independent_of_rank_three():
    for ex in BUILTIN_EXAMPLES.values():
        rep = mult_independence(ex["poly"], ex["units"])
        assert rep["independent"]
        assert rep["rank"] == 3
        assert rep["sigma_min"] > 1e-6
        assert rep["log_matrix"].shape == (3, 4)


def test_powers_of_one_unit_are_dependent():
    q1 = UnitSpec(0, 0, 1, 0)
    q2 = poly_square_mod(q1, P15)
    q4 = poly_square_mod(q2, P15)
    rep = mult_independence(P15, [q1, q2, q4])
    assert not rep["independent"]
    assert rep["rank"] == 1


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
        assert checks["diag_residual"] < 1e-9


def test_certificate_serializes_to_json():
    cert = certify_lattice(P15, BUILTIN_EXAMPLES["kl-2015"]["units"])
    payload = json.loads(json.dumps(cert.to_dict()))
    assert payload["verdict"] is True
    assert payload["matrices"] == BUILTIN_EXAMPLES["kl-2015"]["reference"]
    assert len(payload["roots"]) == 4


def test_certification_fails_on_reducible_polynomial():
    cert = certify_lattice(QuarticPoly(6, 0, -5, 0),
                           BUILTIN_EXAMPLES["kl-2015"]["units"])
    assert not cert.verdict
    assert not cert.checks["irreducible"]
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


def test_third_reference_matrix_trace():
    X = BUILTIN_EXAMPLES["kl-2015"]["reference"][2]
    assert sum(X[i][i] for i in range(4)) == 9
