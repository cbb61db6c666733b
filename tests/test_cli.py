"""End-to-end tests for the command line front end."""

import ast
import json
import os
import pathlib
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from reference_formulas import coclosed_coefficients

import g2solv
from g2solv import audit, cli, coflow, liealg
from g2solv.coflow import CoclosedParams
from g2solv.liealg import homothety_invariant
from g2solv.numberlat import BUILTIN_EXAMPLES, QuarticPoly, UnitSpec, poly_square_mod

COCLOSED_MATS = [
    "1,0,0,0;0,-1,0,0;0,0,1,0;0,0,0,-1",
    "1,0,0,0;0,-1,0,0;0,0,-1,0;0,0,0,1",
    "1,0,0,0;0,1,0,0;0,0,-1,0;0,0,0,-1",
]


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# -- help ---------------------------------------------------------------------------


def test_help_prints_only_what_a_user_needs(capsys):
    assert cli.run(["--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "Exit codes: 0 success / verdict true" in out
    # compatibility is the one verdict not yet decided on the unit triple
    assert ("except `compatible`: simultaneous diagonalizability is still read "
            "at the given scale") in out
    for note in ("imports the modules it runs", "parser is built once", "handler"):
        assert note not in out


# -- verify-lattice -----------------------------------------------------------------


def test_verify_lattice_builtin(capsys):
    code, payload = run_json(capsys, ["verify-lattice", "--example", "kl-2015"])
    assert code == 0
    assert payload["verdict"] is True
    assert payload["reproduces_reference"] is True
    assert payload["matrices"] == BUILTIN_EXAMPLES["kl-2015"]["reference"]


def test_verify_lattice_second_builtin(capsys):
    code, payload = run_json(capsys, ["verify-lattice", "--example", "kl-sqrt3"])
    assert code == 0
    assert payload["reproduces_reference"] is True


def test_verify_lattice_unknown_example():
    assert cli.run(["verify-lattice", "--example", "nope"]) == 2


def test_verify_lattice_missing_arguments(capsys):
    code = cli.run(["verify-lattice"])
    assert code == 2
    assert "error: one of the arguments --example --poly is required" in capsys.readouterr().err


def test_verify_lattice_explicit_input_matches_builtin(capsys):
    code, payload = run_json(capsys, [
        "verify-lattice", "--poly", "1,4,-4,-1",
        "--unit", "0,0,1,0", "--unit", "3,-4,0,1", "--unit", "4,3,-1,-1",
    ])
    assert code == 0
    assert payload["matrices"] == BUILTIN_EXAMPLES["kl-2015"]["reference"]
    assert "reproduces_reference" not in payload


def test_verify_lattice_reducible_poly_fails(capsys):
    code, payload = run_json(capsys, [
        "verify-lattice", "--poly", "6,0,-5,0",
        "--unit", "0,0,1,0", "--unit", "3,-4,0,1", "--unit", "4,3,-1,-1",
    ])
    assert code == 1
    assert payload["verdict"] is False


def _field_argv(a: int, b: int, c: int) -> list:
    """verify-lattice on p(t) = t (t-a)(t-b)(t-c) + 1 with the squares of its
    units u, u-a and u-b."""
    p = QuarticPoly(1, -a * b * c, a * b + a * c + b * c, -(a + b + c))
    units = [poly_square_mod(UnitSpec(-k, 1, 0, 0), p) for k in (0, a, b)]
    return (["verify-lattice", "--poly=" + ",".join(map(str, p.coeffs()))]
            + ["--unit=" + ",".join(map(str, q.coeffs())) for q in units])


def test_verify_lattice_beyond_the_float_range_fails_the_certificate(capsys):
    # every exact check passes; a2 = a b + 3 a + 3 b has no float
    code = cli.run(_field_argv(10**200, 2 * 10**200, 3))
    payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert code == 1
    assert payload["verdict"] is False
    assert payload["reason"] == "floating-point pass failed: coefficients beyond the float range"
    for key in ("irreducible", "unit_constant_term", "totally_real", "units_valid",
                "det_one", "positive_spectra"):
        assert payload["checks"][key] is True, key
    assert payload["roots"] == payload["spectra"] == []


def test_verify_lattice_text_format(capsys):
    code = cli.run(["--format", "text", "verify-lattice", "--example", "kl-2015"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: True" in out
    assert "irreducible: True" in out


# -- torsion ------------------------------------------------------------------------


def test_torsion_closed_point(capsys):
    code, payload = run_json(capsys, ["torsion", "--closed", "1,1,1"])
    assert code == 0
    assert payload["torsion_class"] == ["W2"]
    assert payload["closed"] is True
    assert payload["compatible"] is True
    assert payload["tau0"] == pytest.approx(0.0, abs=1e-12)
    assert payload["tau1_norm"] < 1e-12
    assert payload["tau3_norm"] < 1e-10
    assert payload["norm_sq_tau"] == pytest.approx(24.0, abs=1e-9)
    assert payload["scal"] == pytest.approx(-12.0, abs=1e-9)
    assert payload["F"] == pytest.approx(3.0, abs=1e-9)
    assert payload["erp_residual"] < 1e-9


def test_torsion_norms_of_a_tiny_closed_point_do_not_underflow(capsys):
    # the squares of tau2's coefficients, about 1e-400, underflow; its norm does not
    code, payload = run_json(capsys, ["torsion", "--closed=1e-200,1e-200,1e-200"])
    assert code == 0
    assert payload["torsion_class"] == ["W2"]
    assert payload["tau2_norm"] == pytest.approx(2.0 * np.sqrt(6.0) * 1e-200, rel=1e-15, abs=0.0)


def test_torsion_coclosed_point(capsys):
    code, payload = run_json(capsys, ["torsion", "--coclosed", "1,1,1,-1,1,1"])
    assert code == 0
    assert payload["torsion_class"] == ["W3"]
    assert payload["closed"] is False
    assert "erp_residual" not in payload
    assert payload["tau2_norm"] < 1e-12
    assert payload["tau3_norm"] > 0.1


def test_torsion_explicit_triple_matches_coclosed(capsys):
    code1, p1 = run_json(capsys, ["torsion", "--triple", *COCLOSED_MATS])
    code2, p2 = run_json(capsys, ["torsion", "--coclosed", "1,1,1,-1,1,1"])
    assert code1 == code2 == 0
    assert p1["torsion_class"] == p2["torsion_class"]
    assert p1["scal"] == pytest.approx(p2["scal"], abs=1e-12)


def test_torsion_triple_with_a_negative_first_entry(capsys):
    mats = ["-1,0,0,0;0,1,0,0;0,0,-1,0;0,0,0,1", *COCLOSED_MATS[1:]]
    code1, p1 = run_json(capsys, ["torsion", "--triple", *mats])
    code2, p2 = run_json(capsys, ["torsion", "--coclosed", "-1,-1,1,-1,1,1"])
    assert code1 == code2 == 0
    assert p1 == p2


def test_torsion_matrix_from_file(tmp_path, capsys):
    paths = []
    for i, text in enumerate(COCLOSED_MATS):
        f = tmp_path / f"m{i}.txt"
        f.write_text(text + "\n")
        paths.append("@" + str(f))
    code, payload = run_json(capsys, ["torsion", "--triple", *paths])
    assert code == 0
    assert payload["torsion_class"] == ["W3"]


def test_torsion_rejects_bad_matrix(capsys):
    code = cli.run(["torsion", "--triple", "1,0;0,1", "1", "1"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_torsion_text_format(capsys):
    code = cli.run(["--format", "text", "torsion", "--closed", "1,1,1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "tau2 = " in out
    assert "lap phi = " in out


@pytest.mark.parametrize("fmt, triple, budget", [
    ("json", ["--closed", "1,1,1"], 5),
    ("text", ["--closed", "1,1,1"], 9),
    ("json", ["--coclosed", "1,1,1,-1,1,1"], 2),
    ("text", ["--coclosed", "1,1,1,-1,1,1"], 6),
])
def test_torsion_takes_dphi_and_dpsi_once(monkeypatch, capsys, fmt, triple, budget):
    # upper bounds: torsion_forms, laplacians and erp_residual read their
    # values off tables without calling d
    calls = []

    def counted(d):
        def call(t, alpha):
            calls.append(None)
            return d(t, alpha)
        return call

    monkeypatch.setattr(liealg, "ce_differential", counted(liealg.ce_differential))
    assert cli.run(["--format", fmt, "torsion", *triple]) == 0
    capsys.readouterr()
    assert len(calls) <= budget


# -- erp-check ----------------------------------------------------------------------


def test_erp_check_accepts_the_distinguished_point(capsys):
    code, payload = run_json(capsys, ["erp-check", "--closed", "1,1,1"])
    assert code == 0
    assert payload["extremally_pinched"] is True
    assert payload["residual_norm"] < 1e-9
    assert payload["tau_norm_sq"] == pytest.approx(24.0, abs=1e-9)


def test_erp_check_rejects_unbalanced_points(capsys):
    code, payload = run_json(capsys, ["erp-check", "--closed", "2,1,1"])
    assert code == 1
    assert payload["extremally_pinched"] is False
    assert payload["residual_norm"] > 0.1


def test_erp_check_tol_after_the_subcommand(capsys):
    code, payload = run_json(capsys, ["erp-check", "--closed", "1,1,1", "--tol", "1e-6"])
    assert code == 0
    assert payload["threshold"] == 1e-6
    # --tol is an erp-check option, not a global one
    code = cli.run(["--tol", "1e-7", "erp-check", "--closed", "1,1,1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error: argument command: invalid choice: '1e-7'" in captured.err
    code = cli.run(["torsion", "--closed", "1,1,1", "--tol", "1e-7"])
    assert code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_erp_check_tol_is_the_largest_pinched_residual(capsys):
    # the distinguished point's relative residual is exactly 0
    code, payload = run_json(capsys, ["erp-check", "--closed", "1,1,1", "--tol", "0"])
    assert payload["relative_residual"] == 0.0
    assert payload["extremally_pinched"] is True
    assert code == 0
    assert_one_input_error(capsys, ["erp-check", "--closed", "1,1,1", "--tol", "-1"])


def test_erp_check_requires_a_closed_structure(capsys):
    code = cli.run(["erp-check", "--triple", *COCLOSED_MATS])
    assert code == 2
    assert "error" in capsys.readouterr().err


# -- soliton ------------------------------------------------------------------------


def test_soliton_standard_base(capsys):
    code, payload = run_json(capsys, ["soliton", "--base", "1,1,1,-1"])
    assert code == 0
    assert payload["base"] == [1.0, 1.0, 1.0, -1.0]
    assert len(payload["solutions"]) == 2
    for item in payload["solutions"]:
        assert item["lambda"] == 8.0
        assert item["d"] == -2.0
        assert item["residual"] < 1e-12
        assert "modified_residual" not in item


def test_soliton_with_modified_residual(capsys):
    code, payload = run_json(capsys, [
        "soliton", "--base", "1,1,1,-1", "--modified-m", "1.0"])
    assert code == 0
    for item in payload["solutions"]:
        assert item["modified_residual"] == pytest.approx(4.0 * np.sqrt(6.0), rel=1e-9)


def test_soliton_empty_branch(capsys):
    code, payload = run_json(capsys, ["soliton", "--base", "0,0,1,1"])
    assert code == 0
    assert payload["solutions"] == []


def test_soliton_base_with_a_negative_first_entry(capsys):
    code, payload = run_json(capsys, ["soliton", "--base", "-0.5,1,1,-1"])
    assert code == 0
    assert payload["base"] == [-0.5, 1.0, 1.0, -1.0]
    assert all(item["residual"] < 1e-12 for item in payload["solutions"])


def test_soliton_malformed_base(capsys):
    assert cli.run(["soliton", "--base", "1,2,3"]) == 2


@pytest.mark.parametrize("argv", [
    ["torsion", "--closed", "nan,1,1"],
    ["torsion", "--triple", "inf,0,0,0;0,-1,0,0;0,0,1,0;0,0,0,-1", *COCLOSED_MATS[1:]],
    ["erp-check", "--closed", "inf,1,1"],
    ["soliton", "--base", "inf,1,1,-1"],
    ["flow", "--init", "nan,1,1,1,1,1"],
])
def test_non_finite_numbers_are_input_errors(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: expected finite numbers")


@pytest.mark.parametrize("argv, option", [
    (["erp-check", "--closed", "1,1,1", "--tol", "nan"], "--tol"),
    (["erp-check", "--tol", "inf", "--closed", "1,1,1"], "--tol"),
    (["flow", "--init", "1,1,2,2,1,1", "--t-max", "inf"], "--t-max"),
    (["soliton", "--base", "1,1,1,-1", "--modified-m=-inf"], "--modified-m"),
])
def test_non_finite_float_options_are_usage_errors(capsys, argv, option):
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"error: argument {option}: expected a finite number" in captured.err


def test_soliton_base_too_large_for_the_laplacian(capsys):
    code = cli.run(["soliton", "--base=1e200,1,1,-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "float range" in captured.err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["torsion", "--closed", "1e100,1,1"],
    ["erp-check", "--closed", "1e200,1,1"],
    ["torsion", "--coclosed", "1,1,1,-1,1,-1e100"],
    ["torsion", "--triple", "1e100,0,0,0;0,-1e100,0,0;0,0,1,0;0,0,0,-1",
     *COCLOSED_MATS[1:]],
])
def test_triple_too_large_for_the_reports(capsys, argv):
    # any finite triple is accepted; a report of tr(Ric^2) (degree 4) or of
    # the ERP residual (degree 2) beyond the float range is an input error
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "float range" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.filterwarnings("error")
def test_soliton_modified_m_too_large_for_the_residual(capsys):
    code = cli.run(["soliton", "--base=1,1,1,-1", "--modified-m", "1e308"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "float range" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("m", ["0", "-0", "0.0"])
def test_soliton_modified_m_zero_is_rejected(capsys, m):
    # m = 0 is the plain coflow; it must not be taken for the option left out
    code = cli.run(["soliton", "--base=1,1,1,-1", f"--modified-m={m}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: m must be nonzero (m = 0 is the plain coflow)\n"


# -- flow ---------------------------------------------------------------------------


def test_flow_csv_output(capsys):
    code = cli.run(["flow", "--init", "1,1,2,2,1,1",
                    "--t-max", "5", "--samples", "51"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,a1,a2,b1,b2,c1,c2,N,F,r,s,tc"
    assert lines[-1].startswith("# status ")
    rows = [list(map(float, ln.split(","))) for ln in lines[1:-1]]
    assert len(rows) == 51
    first = rows[0]
    assert first[0] == 0.0
    assert first[1:7] == [1.0, 1.0, 2.0, 2.0, 1.0, 1.0]
    assert first[7] == pytest.approx(12.0, abs=1e-12)
    # norm column is nonincreasing
    ns = [r[7] for r in rows]
    assert max(np.diff(ns)) <= 1e-9


def test_flow_csv_rows_equal_the_per_row_formulas(capsys):
    code = cli.run(["flow", "--init=0.3,-1.2,0.7,1.1,-0.4,0.9",
                    "--t-max", "5", "--samples", "41"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:-1]])
    assert rows.shape == (41, 12)
    for row in rows:
        p = CoclosedParams(*row[1:7])
        assert row[7] == pytest.approx(row[1:7] @ row[1:7], rel=1e-15)
        assert row[8] == pytest.approx(homothety_invariant(p.to_triple()), rel=1e-12)
        assert tuple(row[9:]) == coclosed_coefficients(p)


def test_flow_status_does_not_depend_on_the_sample_count(capsys):
    # 101 samples over t = 2000 are 20 apart, wider than the 10-unit window
    code = cli.run(["flow", "--init=2,2,1,-1,0.5,0.5", "--t-max", "2000",
                    "--samples", "101"])
    assert code == 0
    assert capsys.readouterr().out.strip().splitlines()[-1] == "# status max_time"


def test_flow_json_output(capsys):
    code, payload = run_json(capsys, [
        "--format", "json", "flow", "--init", "1,1,2,2,1,1",
        "--t-max", "5", "--samples", "26"])
    assert code == 0
    assert payload["columns"] == ["t", "a1", "a2", "b1", "b2", "c1", "c2",
                                  "N", "F", "r", "s", "tc"]
    assert len(payload["rows"]) == 26
    assert payload["status"] in ("max_time", "converged")


def test_flow_format_after_the_subcommand(capsys):
    code, payload = run_json(capsys, [
        "flow", "--init", "2,2,1,-1,0.5,0.5", "--t-max", "1", "--samples", "3",
        "--format", "json"])
    assert code == 0
    assert len(payload["rows"]) == 3
    assert payload["rows"][0][1:7] == [2.0, 2.0, 1.0, -1.0, 0.5, 0.5]


@pytest.mark.parametrize("init", [["--init", "-0.5,1,1,-1,1,1"],
                                  ["--init=-0.5,1,1,-1,1,1"]])
def test_flow_init_with_a_negative_first_entry(capsys, init):
    code, payload = run_json(capsys, [
        "flow", *init, "--t-max", "1", "--samples", "3", "--format", "json"])
    assert code == 0
    assert payload["rows"][0][1:7] == [-0.5, 1.0, 1.0, -1.0, 1.0, 1.0]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("size", ["1e160", "1e72"])
def test_flow_start_too_large_for_the_step_estimate(capsys, size):
    code = cli.run(["flow", f"--init={size},1,1,1,1,1", "--t-max", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: the start must have |p| below")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("samples", ["0", "1"])
def test_flow_needs_two_samples(capsys, samples):
    # one sample used to print the t = 0 row under "# status converged"
    code = cli.run(["flow", "--init", "1,1,2,2,1,1", "--t-max", "50", "--samples", samples])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: samples must be at least 2 (the start and t_max), got {samples}\n"


@pytest.mark.parametrize("t_max", ["inf", "nan"])
def test_flow_rejects_a_non_finite_time_at_parse(capsys, t_max):
    code = cli.run(["flow", "--init", "1,1,2,2,1,1", "--t-max", t_max])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error: argument --t-max: expected a finite number" in captured.err


def test_flow_large_start_below_the_bound_runs(capsys):
    code = cli.run(["flow", "--init=1e30,1,1,1,1,1", "--t-max", "1"])
    assert code == 0
    assert capsys.readouterr().out.endswith("# status max_time\n")


def test_flow_requires_a_start(tmp_path, capsys):
    code = cli.run(["flow"])
    assert code == 2
    assert "error: one of the arguments --init --sweep is required" in capsys.readouterr().err
    sweep = tmp_path / "starts.txt"
    sweep.write_text("# one start per line\n\n  \n")
    code = cli.run(["flow", "--sweep", str(sweep)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_flow_sweep(tmp_path, capsys):
    sweep = tmp_path / "starts.txt"
    sweep.write_text(
        "# one start per line\n"
        "1,1,2,2,1,1\n"
        "1,1,1,-1,1,1\n")
    code = cli.run(["flow", "--sweep", str(sweep),
                    "--t-max", "2", "--samples", "11"])
    out = capsys.readouterr().out
    assert code == 0
    starts = [ln for ln in out.splitlines() if ln.startswith("# start ")]
    assert len(starts) == 2
    assert all(" status " in ln for ln in starts)
    headers = [ln for ln in out.splitlines() if ln.startswith("t,")]
    assert len(headers) == 2


# -- a sweep's worker processes ---------------------------------------------------

FAN_OUT = sys.version_info < (3, 12) and hasattr(os, "fork")
SWEEP_STARTS = ["1,1,2,2,1,1", "0.7,1,1,-1,1,1", "0.3,-1.2,0.7,1.1,-0.4,0.9",
                "-0.5,1,1,-1,1,1", "1.2,0.4,-0.8,0.9,0.6,-1.1"]


def _cpus(monkeypatch, n: int):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: n)


def _counting_fork(monkeypatch) -> list:
    """Let os.fork run and record each call in the returned list."""
    calls, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
    return calls


def _no_fork(monkeypatch):
    def fork():
        raise AssertionError("os.fork was called")
    monkeypatch.setattr(os, "fork", fork, raising=False)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _starts_file(tmp_path) -> str:
    sweep = tmp_path / "starts.txt"
    sweep.write_text("\n".join(SWEEP_STARTS) + "\n")
    return str(sweep)


def _sweep(tmp_path, capsys, argv):
    target = tmp_path / "out.txt"
    code = cli.run(["--out", str(target), *argv, "flow", "--sweep", _starts_file(tmp_path),
                    "--t-max", "3", "--samples", "7"])
    captured = capsys.readouterr()
    assert captured.out == captured.err == ""
    return code, target.read_bytes()


@pytest.mark.parametrize("fmt", [[], ["--format", "json"]])
def test_flow_sweep_fan_out_matches_the_serial_loop(monkeypatch, tmp_path, capsys, fmt):
    # the second start is reported diverged, so both runs exit 1
    real = coflow.integrate

    def integrate(p0, t_max, opts):
        traj = real(p0, t_max, opts)
        return replace(traj, status="diverged") if p0.a1 == 0.7 else traj

    monkeypatch.setattr(coflow, "integrate", integrate)
    _cpus(monkeypatch, 3)
    calls = _counting_fork(monkeypatch)
    fanned = _sweep(tmp_path, capsys, fmt)
    assert len(calls) == (2 if FAN_OUT else 0)
    _no_child_left()
    _cpus(monkeypatch, 1)
    _no_fork(monkeypatch)
    assert fanned == _sweep(tmp_path, capsys, fmt)
    assert fanned[0] == 1


def test_one_start_or_one_cpu_never_forks(monkeypatch, tmp_path, capsys):
    _no_fork(monkeypatch)
    _cpus(monkeypatch, 4)
    assert cli.run(["flow", "--init", "1,1,2,2,1,1", "--t-max", "1", "--samples", "3"]) == 0
    assert capsys.readouterr().out.endswith("# status max_time\n")
    _cpus(monkeypatch, 1)
    assert _sweep(tmp_path, capsys, [])[0] == 0


@pytest.mark.parametrize("cpus", [1, 3])
def test_sweep_errors_name_the_first_failing_start(monkeypatch, tmp_path, capsys, cpus):
    # with 3 workers the 2nd start is a child's and the 4th the parent's
    real = coflow.integrate

    def integrate(p0, t_max, opts):
        if p0.a1 in (0.7, -0.5):
            raise ValueError(f"bad start {p0.a1}")
        return real(p0, t_max, opts)

    monkeypatch.setattr(coflow, "integrate", integrate)
    _cpus(monkeypatch, cpus)
    code = cli.run(["flow", "--sweep", _starts_file(tmp_path), "--t-max", "1",
                    "--samples", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: bad start 0.7\n"
    _no_child_left()


@pytest.mark.skipif(not FAN_OUT, reason="the sweep runs serially here")
def test_a_worker_that_dies_is_a_runtime_error(monkeypatch, tmp_path, capsys):
    parent = os.getpid()
    real = coflow.integrate

    def integrate(p0, t_max, opts):
        if p0.a1 == 0.7 and os.getpid() != parent:
            os._exit(3)
        return real(p0, t_max, opts)

    monkeypatch.setattr(coflow, "integrate", integrate)
    _cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="exit status 3"):
        cli.run(["flow", "--sweep", _starts_file(tmp_path), "--t-max", "1",
                 "--samples", "3"])
    assert capsys.readouterr().out == ""
    _no_child_left()


def test_flow_sweep_json_output(tmp_path, capsys):
    sweep = tmp_path / "starts.txt"
    sweep.write_text("1,1,2,2,1,1\n-0.5,1,1,-1,1,1\n")
    code, payload = run_json(capsys, ["--format", "json", "flow", "--sweep", str(sweep),
                                      "--t-max", "1", "--samples", "2"])
    assert code == 0
    assert [run["start"] for run in payload["runs"]] == [[1, 1, 2, 2, 1, 1],
                                                         [-0.5, 1, 1, -1, 1, 1]]
    for run in payload["runs"]:
        code, single = run_json(capsys, [
            "--format", "json", "flow", "--init=" + ",".join(map(str, run["start"])),
            "--t-max", "1", "--samples", "2"])
        assert code == 0
        assert {k: v for k, v in run.items() if k != "start"} == single


def test_flow_out_file(tmp_path, capsys):
    target = tmp_path / "traj.csv"
    code = cli.run(["--out", str(target), "flow", "--init", "1,1,2,2,1,1",
                    "--t-max", "2", "--samples", "11"])
    assert code == 0
    assert capsys.readouterr().out == ""
    text = target.read_text()
    assert text.startswith("t,a1,a2,")
    assert text.endswith("\n")


def test_flow_out_file_after_the_subcommand(tmp_path, capsys):
    target = tmp_path / "traj.csv"
    code = cli.run(["flow", "--init", "1,1,2,2,1,1", "--t-max", "2",
                    "--samples", "11", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert target.read_text().startswith("t,a1,a2,")


# -- audit --------------------------------------------------------------------------


def test_audit_reports_five_claims(capsys):
    code, payload = run_json(capsys, ["audit"])
    assert code == 0
    claims = payload["claims"]
    assert len(claims) == 5
    for claim in claims:
        for key in ("claim_id", "source_location", "source_value",
                    "computed_value", "agrees"):
            assert key in claim
    agrees = {c["claim_id"]: c["agrees"] for c in claims}
    assert agrees == {
        "norm_derivative_sign_near_degenerate": False,
        "ode_coefficient_identity": True,
        "soliton_count_range": False,
        "printed_norm_derivative_symmetric_family": False,
        "generator_sign_convention": True,
    }


def test_audit_reads_the_package_ode(monkeypatch, capsys):
    rate = coflow._rate
    monkeypatch.setattr(coflow, "_rate", lambda y: -np.asarray(rate(y)))
    _, payload = run_json(capsys, ["audit"])
    claim, = [c for c in payload["claims"] if c["claim_id"] == "ode_coefficient_identity"]
    assert claim["agrees"] is False


def test_audit_catches_a_wrong_term_in_the_package_ode(monkeypatch, capsys):
    # Q is read off lap psi, not off the ODE's own formulas: dropping the
    # 2 b1 b2 term of a's rate makes claim (ii) fail
    rate = coflow._rate

    def without_bb(y):
        a1, a2, b1, b2, c1, c2 = y
        ka = -(a1 * a1 + a2 * a2) + 2.0 * c1 * c2
        return (ka * a1, ka * a2, *rate(y)[2:])

    monkeypatch.setattr(coflow, "_rate", without_bb)
    _, payload = run_json(capsys, ["audit"])
    claim, = [c for c in payload["claims"] if c["claim_id"] == "ode_coefficient_identity"]
    assert claim["agrees"] is False


def test_audit_reads_no_private_name_of_coflow_but_its_ode():
    # the audit's generator comes from the Laplacian table; of coflow's
    # private names it reads only the ODE `_rate` that it checks
    tree = ast.parse((pathlib.Path(g2solv.__file__).parent / "audit.py").read_text())
    private = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("coflow", "g2solv.coflow"):
            private |= {alias.name for alias in node.names if alias.name.startswith("_")}
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "coflow" and node.attr.startswith("_")):
            private.add(node.attr)
    assert private == {"_rate"}


def test_audit_prints_the_claims_of_its_module(capsys):
    _, payload = run_json(capsys, ["audit"])
    assert payload == {"claims": audit.claims()}


def test_audit_out_file(tmp_path, capsys):
    target = tmp_path / "audit.json"
    code = cli.run(["--out", str(target), "audit"])
    assert code == 0
    payload = json.loads(target.read_text())
    assert len(payload["claims"]) == 5


# -- error handling ---------------------------------------------------------------


@pytest.mark.parametrize("fmt, argv", [
    ("csv", ["verify-lattice", "--example", "kl-2015"]),
    ("csv", ["torsion", "--closed", "1,1,1"]),
    ("text", ["flow", "--init", "1,1,2,2,1,1", "--t-max", "1", "--samples", "3"]),
    ("text", ["soliton", "--base", "1,1,1,-1"]),
    ("csv", ["soliton", "--base", "1,1,1,-1"]),
    ("text", ["erp-check", "--closed", "1,1,1"]),
    ("csv", ["erp-check", "--closed", "1,1,1"]),
    ("text", ["audit"]),
    ("csv", ["audit"]),
])
@pytest.mark.parametrize("before", [True, False])
def test_a_format_the_command_does_not_write_is_an_input_error(capsys, fmt, argv, before):
    option = ["--format", fmt]
    code = cli.run(option + argv if before else argv + option)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {argv[0]} writes ")
    assert captured.err.count("\n") == 1


def test_verify_lattice_with_two_units_is_an_input_error(capsys):
    code = cli.run(["verify-lattice", "--poly", "1,4,-4,-1",
                    "--unit", "0,0,1,0", "--unit", "3,-4,0,1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: a lattice needs three units, got 2\n"


def assert_one_input_error(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert sum("error:" in line for line in captured.err.splitlines()) == 1


@pytest.mark.parametrize("command", ["verify-lattice", "torsion", "erp-check", "soliton", "flow"])
def test_a_command_without_its_input_is_an_input_error(capsys, command):
    # audit, the one subcommand without an input, is left out
    assert_one_input_error(capsys, [command])


TRIPLE = ["--triple", *COCLOSED_MATS]


@pytest.mark.parametrize("argv", [
    ["torsion", "--closed", "1,1,1", "--coclosed", "1,1,1,-1,1,1"],
    ["torsion", "--closed", "1,1,1", *TRIPLE],
    ["torsion", "--coclosed", "1,1,1,-1,1,1", *TRIPLE],
    ["erp-check", "--closed", "1,1,1", *TRIPLE],
    ["verify-lattice", "--example", "kl-2015", "--poly", "1,0,-4,0"],
    ["verify-lattice", "--example", "kl-2015", "--unit", "0,0,1,0"],
    ["flow", "--init", "1,1,2,2,1,1", "--sweep", "starts.txt"],
])
def test_two_inputs_are_an_input_error(capsys, argv):
    # each used to run on one of the two and ignore the other
    assert_one_input_error(capsys, argv)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("argv", [
    ["verify-lattice", "--example", "kl-2015"],
    # |X|^2 overflows a float here: the residual is taken at unit scale
    _field_argv(10**60, 2 * 10**60, 3),
    ["torsion", "--closed", "1,1,1"],
    ["torsion", "--coclosed", "0,0,0,0,0,0"],
    ["erp-check", "--closed", "1,1,1"],
    ["soliton", "--base", "1,1,1,-1", "--modified-m", "1"],
    ["flow", "--format", "json", "--init", "1,1,2,2,1,1", "--t-max", "1", "--samples", "3"],
    ["flow", "--format", "json", "--init", "0,0,0,0,0,0", "--t-max", "1", "--samples", "3"],
    ["audit"],
])
def test_every_json_report_is_valid_json(capsys, argv):
    # Python's json writes NaN and Infinity unless told not to; neither is JSON
    cli.run(argv)
    payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    if "0,0,0,0,0,0" in argv:
        # F is undefined on the flat point: null, as in torsion's report
        Fs = [row[8] for row in payload["rows"]] if "rows" in payload else [payload["F"]]
        assert Fs and all(F is None for F in Fs)


def test_a_program_fault_is_not_reported_as_an_input_error(monkeypatch):
    def broken(args):
        raise KeyError("missing")

    # the parser exists before the patch: the handler is looked up at dispatch
    assert cli.run(["audit"]) == 0
    monkeypatch.setattr(cli, "_cmd_audit", broken)
    with pytest.raises(KeyError):
        cli.run(["audit"])


# -- import cost ----------------------------------------------------------------------


def _env() -> dict:
    """The environment of a fresh interpreter that imports this checkout's g2solv."""
    src = os.path.dirname(os.path.dirname(g2solv.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))


def _python(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this checkout's g2solv."""
    return subprocess.run([sys.executable, "-c", code], env=_env(),
                          capture_output=True, text=True, timeout=120)


def test_a_reused_parser_prints_what_a_fresh_one_prints(tmp_path):
    # one process runs a usage error and three reports through its one
    # parser; each prints the bytes and exits with the code of a fresh
    # `python -m g2solv`
    starts = tmp_path / "starts.txt"
    starts.write_text("1,1,2,2,1,1\n0.3,-1.2,0.7,1.1,-0.4,0.9\n-0.5,1,1,-1,1,1\n")
    argvs = [["flow", "--t-max", "2"],
             ["flow", "--sweep", str(starts), "--t-max", "2", "--samples", "5"],
             ["torsion", "--closed", "1,1,1"],
             ["verify-lattice", "--example", "kl-2015"]]
    code = ("import contextlib, io, json, sys; from g2solv import cli\n"
            "runs = []\n"
            f"for argv in {argvs!r}:\n"
            "    out, err = io.StringIO(), io.StringIO()\n"
            "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
            "        runs.append([cli.run(argv), out.getvalue(), err.getvalue()])\n"
            "print(json.dumps(runs))")
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr
    reused = json.loads(proc.stdout)
    assert [run[0] for run in reused] == [2, 0, 0, 0]
    for argv, (code, out, err) in zip(argvs, reused):
        fresh = subprocess.run([sys.executable, "-m", "g2solv", *argv], env=_env(),
                               capture_output=True, timeout=120)
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == (
            code, out.encode(), err.encode()), argv


def test_lattice_and_torsion_commands_do_not_import_scipy(tmp_path):
    # scipy is a test oracle only: no command, the flow included, loads it;
    # a sweep forks its workers without multiprocessing or concurrent.futures
    starts = tmp_path / "starts.txt"
    starts.write_text("1,1,2,2,1,1\n0.3,-1.2,0.7,1.1,-0.4,0.9\n")
    code = ("import sys; from g2solv import cli; "
            "cli.run(['verify-lattice', '--example', 'kl-2015']); "
            "cli.run(['torsion', '--closed', '1,1,1']); "
            "cli.run(['flow', '--init=-0.5,1,1,-1,1,1', '--t-max', '2', '--samples', '5']); "
            f"cli.run(['flow', '--sweep', {str(starts)!r}, '--t-max', '2', '--samples', '5']); "
            "assert 'scipy' not in sys.modules, 'scipy was imported'; "
            "assert 'multiprocessing' not in sys.modules, 'multiprocessing was imported'; "
            "assert 'concurrent.futures' not in sys.modules, 'concurrent.futures was imported'")
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr


def test_importing_the_cli_builds_no_table():
    # every table and the diagonal restrictions are built on first use, so
    # the cold start of every command stays free of them
    proc = _python("from g2solv import cli, tables; "
                   "print(*(f.cache_info().currsize for f in (tables._laplacian_table, "
                   "tables._diagonal, tables._torsion_map, tables._erp_table, "
                   "tables._ricci_table)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"] * 5


def test_importing_the_cli_builds_no_soliton_table():
    # a command that fits no soliton carries neither the table nor the
    # LAPACK code of its solve
    proc = _python("from g2solv import cli, coflow; "
                   "print(coflow._soliton_tables.cache_info().currsize)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


def _imported_modules(nodes) -> list:
    names = []
    for node in nodes:
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append(node.module or "")
    return names


def test_the_package_lists_every_module():
    package = pathlib.Path(g2solv.__file__).parent
    modules = {path.stem for path in package.glob("*.py")} - {"__init__", "__main__"}
    assert sorted(g2solv.__all__) == sorted(modules)


def test_only_the_cli_imports_a_package_module_inside_a_function():
    # the CLI imports per subcommand for its cold start; anywhere else an
    # import inside a function hides a cycle between modules
    found = []
    for path in pathlib.Path(g2solv.__file__).parent.glob("*.py"):
        if path.name == "cli.py":
            continue
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                relative = isinstance(node, ast.ImportFrom) and node.level > 0
                if relative or "g2solv" in [n.split(".")[0] for n in _imported_modules([node])]:
                    found.append(f"{path.name}:{func.name}")
    assert found == []


def test_no_package_module_imports_scipy():
    for path in pathlib.Path(g2solv.__file__).parent.glob("*.py"):
        names = _imported_modules(ast.walk(ast.parse(path.read_text())))
        assert not any(n.split(".")[0] == "scipy" for n in names), path.name


def test_the_lattice_path_imports_no_numpy():
    # verify-lattice runs numberlat under the CLI's module level alone
    package = pathlib.Path(g2solv.__file__).parent
    nodes = {name: list(ast.walk(ast.parse((package / name).read_text())))
             for name in ("numberlat.py", "config.py", "__init__.py")}
    nodes["cli.py (module level)"] = ast.parse((package / "cli.py").read_text()).body
    for name, found in nodes.items():
        assert not any(n.split(".")[0] == "numpy" for n in _imported_modules(found)), name


def test_verify_lattice_loads_neither_numpy_nor_the_form_engine():
    code = "\n".join([
        "import runpy, sys",
        "for argv in (['--example', 'kl-2015'],",
        "             ['--poly', '1,4,-4,-1', '--unit', '0,0,1,0', '--unit', '3,-4,0,1',",
        "              '--unit', '4,3,-1,-1']):",
        "    sys.argv = ['g2solv', 'verify-lattice', *argv]",
        "    try:",
        "        runpy.run_module('g2solv', run_name='__main__')",
        "    except SystemExit as exc:",
        "        assert exc.code == 0, exc.code",
        "print('loaded:', *sorted({'numpy', 'g2solv.coflow', 'g2solv.g2core',",
        "                          'g2solv.liealg', 'g2solv.forms', 'g2solv.tables'}",
        "                         & set(sys.modules)))",
    ])
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "loaded:"


def test_the_cli_reads_no_private_name_of_another_module():
    # the CLI parses and prints; what it prints comes from public names
    package = pathlib.Path(g2solv.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    private = []
    for node in ast.walk(ast.parse((package / "cli.py").read_text())):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("g2solv")):
            private += [alias.name for alias in node.names if alias.name.startswith("_")]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules and node.attr.startswith("_")):
            private.append(f"{node.value.id}.{node.attr}")
    assert private == []


def test_every_module_constant_is_read_in_the_package():
    # a constant nothing reads is a knob that does nothing
    trees = {path.name: ast.parse(path.read_text())
             for path in pathlib.Path(g2solv.__file__).parent.glob("*.py")}
    defined, read = [], set()
    for name, tree in trees.items():
        for node in tree.body:
            targets = ([node.target] if isinstance(node, ast.AnnAssign) else
                       node.targets if isinstance(node, ast.Assign) else [])
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name) and leaf.id.isupper():
                        defined.append((name, leaf.id))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert [f"{module}:{const}" for module, const in defined if const not in read] == []
