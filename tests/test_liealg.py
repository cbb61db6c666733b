"""Solvable algebra layer: differential, compatibility and curvature."""

import importlib
import itertools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle as dz
import reference_formulas as rf
from g2solv.coflow import CoclosedParams, FlowTrajectory
from g2solv.config import TOL
from g2solv.forms import BASIS, KForm, PHI, PSI, monomial, wedge
from g2solv.g2core import closed_triple
from g2solv.liealg import (
    BracketTriple,
    _d_table,
    _homothety,
    _unit_curvature,
    ce_differential,
    check_compatible,
    homothety_invariant,
    ricci_report,
    solvsoliton_check,
)

RNG_SEED = 2024


def seeded_rng():
    return np.random.default_rng(RNG_SEED)


@st.composite
def traceless_diagonals(draw):
    # no subnormals: a multiple of one can underflow to the flat zero triple
    vals = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_subnormal=False)
    out = []
    for _ in range(3):
        v = np.array(draw(st.lists(vals, min_size=4, max_size=4)))
        v -= v.mean()
        out.append(np.diag(v))
    return out


# -- triple validation ---------------------------------------------------------


def test_triple_accepts_commuting_traceless():
    t = BracketTriple(np.diag([1, -1, 2, -2]), np.diag([3, 1, -3, -1]), np.zeros((4, 4)))
    assert t.A.shape == (4, 4)


def test_triple_rejects_wrong_shape():
    with pytest.raises(ValueError):
        BracketTriple(np.zeros((3, 3)), np.zeros((4, 4)), np.zeros((4, 4)))


def test_triple_rejects_trace():
    with pytest.raises(ValueError):
        BracketTriple(np.eye(4), np.zeros((4, 4)), np.zeros((4, 4)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("slot", range(3))
def test_triple_rejects_non_finite_entries(slot, bad):
    mats = [np.diag([1.0, -1.0, 2.0, -2.0]), np.diag([3.0, 1.0, -3.0, -1.0]), np.zeros((4, 4))]
    mats[slot][1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        BracketTriple(*mats)


def test_triple_rejects_noncommuting():
    A = np.zeros((4, 4))
    A[0, 1] = 1.0
    B = np.zeros((4, 4))
    B[1, 0] = 1.0
    with pytest.raises(ValueError):
        BracketTriple(A, B, np.zeros((4, 4)))


@pytest.mark.parametrize("size", [1e160, 1e200, 1e300])
def test_triple_checks_hold_near_the_float_range(size):
    # the commutator products of entries this large overflow unless they
    # are taken at unit scale; inf - inf is NaN, which `>` never rejects
    rng = seeded_rng()
    A, B = np.zeros((4, 4)), np.zeros((4, 4))
    A[0, 1], B[1, 0] = size, size
    G = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
    Gi = np.linalg.inv(G)
    conjugated = [G @ (size * D) @ Gi for D in dz.diagonal_triple(rng)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="commute"):
            BracketTriple(A, B, np.zeros((4, 4)))
        BracketTriple(*conjugated)


def _diagonal_case(kind):
    A, B = np.diag([1.0, -1.0, 2.0, -2.0]), np.diag([3.0, 1.0, -3.0, -1.0])
    if kind == "trace":
        A[0, 0] += 1e-6
    elif kind in ("nan", "inf"):
        B[2, 2] = float(kind)
    else:  # one off-diagonal entry makes B non-diagonal and A B != B A
        B[0, 1] = 1e-3
    return A, B, np.zeros((4, 4))


@pytest.mark.parametrize("kind, match", [
    ("trace", "traceless"), ("nan", "finite"), ("inf", "finite"),
    ("off-diagonal", "commute")])
def test_diagonal_shortcut_keeps_every_other_check(kind, match):
    # diagonal triples skip the commutator products, not the other checks
    with pytest.raises(ValueError, match=match):
        BracketTriple(*_diagonal_case(kind))


def test_triple_checks_follow_their_named_tolerance(monkeypatch):
    A = np.diag([1.0, -1.0, 2.0, -2.0 + 1e-9])
    nearly = np.zeros((4, 4))
    nearly[0, 1], nearly[1, 0] = 1e-9, -1e-9  # [A, nearly] has entries 2e-9
    for mats, match in [((A, A, A), "traceless"),
                        ((np.diag([1.0, -1.0, 0.0, 0.0]), nearly, nearly), "commute")]:
        with pytest.raises(ValueError, match=match):
            BracketTriple(*mats)
        with monkeypatch.context() as m:
            m.setattr(TOL, "bracket", 1e-8)
            BracketTriple(*mats)


def test_solvsoliton_follows_its_named_tolerance(monkeypatch):
    from g2solv.g2core import closed_triple
    t = closed_triple(1.0 + 1e-8, 1.0, 1.0)  # a-block of Ric off c I by ~5e-8
    assert solvsoliton_check(t)["is_solvsoliton"] is False
    monkeypatch.setattr(TOL, "solvsoliton", 1e-6)
    assert solvsoliton_check(t)["is_solvsoliton"] is True


def test_triple_is_immutable():
    A = np.diag([1.0, -1.0, 2.0, -2.0])
    t = BracketTriple(A, np.diag([3.0, 1.0, -3.0, -1.0]), np.zeros((4, 4)))
    for name in ("A", "B", "C", "entries"):
        with pytest.raises(AttributeError):
            setattr(t, name, np.zeros((4, 4)))
    for M in (*t.matrices(), t.entries):
        with pytest.raises(ValueError):
            M[0] = 5.0
    # the triple holds its own copy, so the caller's array stays writable
    A[0, 0] = 7.0
    assert t.A[0, 0] == 1.0
    np.testing.assert_array_equal(t.entries, np.concatenate([M.ravel() for M in t.matrices()]))


# entries a diagonal triple's checks must handle: signed zeros, the float
# limits and values within a rounding of them, NaN and the infinities
_EDGE_ENTRIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, 1e308, -1e308,
                                 1.7976931348623157e308, -1.7976931348623157e308,
                                 0.5e308, math.nan, math.inf, -math.inf])


@st.composite
def diagonal_rows(draw):
    """Diagonals of one matrix: exactly traceless pairs (x, -x, y, -y) in any
    order, rows made traceless by their mean, arbitrary rows, or arbitrary
    rows of small entries."""
    entry = st.one_of(_EDGE_ENTRIES, st.floats(allow_subnormal=False),
                      st.floats(min_value=-2.0, max_value=2.0))
    kind = draw(st.sampled_from(["pairs", "mean", "free", "small"]))
    if kind == "small":  # below 1, where the bound's scale is 1, not the largest entry
        return draw(st.lists(st.floats(min_value=-1e-3, max_value=1e-3), min_size=4, max_size=4))
    if kind == "pairs":
        x, y = draw(entry), draw(entry)
        return draw(st.permutations([x, -x, y, -y]))
    row = draw(st.lists(entry, min_size=4, max_size=4))
    if kind == "mean":
        with np.errstate(all="ignore"):
            row = (np.array(row) - np.mean(row)).tolist()
    return row


def _build_outcome(build):
    """A triple's entries as bytes, or the message of the ValueError raised."""
    try:
        return build().entries.tobytes()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(st.lists(diagonal_rows(), min_size=3, max_size=3),
       st.sampled_from([None, 0.0, 1e-8, 1e-4, 0.5]))
def test_from_diagonals_decides_as_the_general_constructor(D, bracket):
    # warnings are errors, so an overflow in either constructor fails here
    with pytest.MonkeyPatch.context() as m:
        if bracket is not None:
            m.setattr(TOL, "bracket", bracket)
        diagonal = _build_outcome(lambda: BracketTriple.from_diagonals(D))
        general = _build_outcome(lambda: BracketTriple(*map(np.diag, np.array(D))))
    assert diagonal == general


def test_from_diagonals_rejects_other_shapes():
    for D in (np.zeros((3, 3)), np.zeros(12), np.zeros((3, 4, 4))):
        with pytest.raises(ValueError, match="3x4"):
            BracketTriple.from_diagonals(D)


def test_small_traces_are_measured_against_one():
    # the bound is TOL.bracket times max(1, largest entry): a trace of 2e-11
    # on entries of 0.1 passes, one of 2e-10 does not
    for trace, ok in ((2e-11, True), (2e-10, False)):
        D = [[0.1 + trace, -0.1, 0.05, -0.05], [0.0] * 4, [0.0] * 4]
        for build in (lambda: BracketTriple.from_diagonals(D),
                      lambda: BracketTriple(*map(np.diag, np.array(D)))):
            assert _build_outcome(build) == (np.array([np.diag(r) for r in D]).tobytes() if ok
                                             else "matrices must be traceless (unimodular algebra)")


_TRACELESS_NEAR_THE_LIMIT = [1e308, 1e308, -1e308, -1e308]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("build", [
    lambda: BracketTriple(np.diag(_TRACELESS_NEAR_THE_LIMIT), np.zeros((4, 4)), np.zeros((4, 4))),
    lambda: BracketTriple.from_diagonals([_TRACELESS_NEAR_THE_LIMIT, [0.0] * 4, [0.0] * 4]),
    lambda: CoclosedParams(1, 1, 1e308, 1e308, 1, 1).to_triple(),
    lambda: closed_triple(1e308, 1e308, 1e308),
], ids=["general", "from_diagonals", "coclosed", "closed"])
def test_traces_near_the_float_limit_do_not_overflow(build):
    # the sum of the first two entries overflows at full scale
    assert np.abs(build().entries).max() == 1e308


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("last", [-0.5e308, -1.7976931348623157e308, 0.0])
def test_a_trace_near_the_float_limit_is_still_rejected(last):
    row = [1e308, 1e308, -1e308, last]
    for build in (lambda: BracketTriple.from_diagonals([row, [0.0] * 4, [0.0] * 4]),
                  lambda: BracketTriple(np.diag(row), np.zeros((4, 4)), np.zeros((4, 4)))):
        with pytest.raises(ValueError, match="traceless"):
            build()


def test_diagonal_triple_is_immutable():
    D = np.array([[1.0, -1.0, 2.0, -2.0], [3.0, 1.0, -3.0, -1.0], [0.0] * 4])
    expected = np.array([np.diag(row) for row in D])
    t = BracketTriple.from_diagonals(D)
    for name in ("A", "B", "C", "entries"):
        with pytest.raises(AttributeError):
            setattr(t, name, np.zeros((4, 4)))
    for M in (*t.matrices(), t.entries):
        with pytest.raises(ValueError):
            M[0] = 5.0
    # the triple holds its own copy, so the caller's array stays writable
    D[0, 0] = 7.0
    assert t.A[0, 0] == 1.0
    np.testing.assert_array_equal(t.matrices(), expected)
    np.testing.assert_array_equal(t.entries, expected.ravel())


# -- differential ----------------------------------------------------------------


def test_differential_table_matches_the_oracle_on_every_entry():
    # d is linear in the 48 entries of (A, B, C): each unit entry, commuting
    # or not, must give exactly the oracle's integer matrix
    for deg in range(7):
        out, src, entry, sign = _d_table(deg)
        assert set(sign.tolist()) <= {-1.0, 1.0}
        assert len(set(zip(out.tolist(), src.tolist(), entry.tolist()))) == len(out)
        monomials = [dz.from_dict(deg, {I: 1.0}) for I in BASIS[deg]]
        for e in range(48):
            unit = np.zeros(48)
            unit[e] = 1.0
            c = dz.structure_tensor(*unit.reshape(3, 4, 4))
            got = np.zeros((len(BASIS[deg + 1]), len(BASIS[deg])))
            rows = entry == e
            got[out[rows], src[rows]] = sign[rows]
            want = np.zeros_like(got)
            for n, T in enumerate(monomials):
                for J, v in dz.to_dict(dz.d(c, T, deg), deg + 1).items():
                    assert v in (-1.0, 1.0)
                    want[BASIS[deg + 1].index(J), n] = v
            np.testing.assert_array_equal(got, want, err_msg=f"degree {deg}, entry {e}")


def test_base_covectors_are_closed():
    rng = seeded_rng()
    t = BracketTriple(*dz.commuting_triple(rng))
    for k in (1, 2, 7):
        assert ce_differential(t, monomial((k,))).norm() == 0.0


def test_fiber_covector_differential_columns():
    # de^{k+2} couples e^7, e^1, e^2 to the rows of A, B, C
    A = np.diag([1.0, -1.0, 2.0, -2.0])
    B = np.diag([0.5, 0.5, -0.5, -0.5])
    C = np.zeros((4, 4))
    t = BracketTriple(A, B, C)
    d3 = ce_differential(t, monomial((3,)))
    assert (d3 - (-1.0) * monomial((7, 3)) - (-0.5) * monomial((1, 3))).norm() < 1e-14


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 6), st.data())
def test_differential_matches_koszul_oracle(seed, deg, data):
    rng = np.random.default_rng(seed)
    A, B, C = dz.commuting_triple(rng)
    t = BracketTriple(A, B, C)
    c = dz.structure_tensor(A, B, C)
    import itertools
    combos = list(itertools.combinations(range(1, 8), deg))
    keys = data.draw(st.lists(st.sampled_from(combos), max_size=4, unique=True))
    vals = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
    a = KForm(deg, {k: data.draw(vals) for k in keys})
    got = ce_differential(t, a)
    T = dz.d(c, dz.from_kform(a), deg)
    assert dz.max_dev(T, deg + 1, got) < 1e-11


def test_differential_matches_koszul_oracle_on_every_monomial():
    A, B, C = dz.commuting_triple(seeded_rng())
    t = BracketTriple(A, B, C)
    c = dz.structure_tensor(A, B, C)
    for deg in range(8):
        for I in itertools.combinations(range(1, 8), deg):
            e = KForm(deg, {I: 1.0})
            got = ce_differential(t, e)
            assert dz.max_dev(dz.d(c, dz.from_kform(e), deg), got.degree, got) < 1e-12, I


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_differential_squares_to_zero(seed):
    rng = np.random.default_rng(seed)
    t = BracketTriple(*dz.commuting_triple(rng))
    for a in (PHI, PSI, monomial((3,)), monomial((3, 5)), monomial((4, 5, 6))):
        dd = ce_differential(t, ce_differential(t, a))
        assert dd.norm() < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_differential_is_a_graded_derivation(seed):
    rng = np.random.default_rng(seed)
    t = BracketTriple(*dz.commuting_triple(rng))
    a = monomial((3, 5), 2.0) + monomial((1, 4), -1.0)
    b = monomial((6,), 0.5) + monomial((4,), 1.5)
    lhs = ce_differential(t, wedge(a, b))
    rhs = wedge(ce_differential(t, a), b) + wedge(a, ce_differential(t, b))
    assert (lhs - rhs).norm() < 1e-12


def test_top_degree_differential_is_zero():
    rng = seeded_rng()
    t = BracketTriple(*dz.commuting_triple(rng))
    top = monomial(tuple(range(1, 8)))
    assert ce_differential(t, top).degree == 7
    assert ce_differential(t, top).norm() == 0.0


# -- compatibility ----------------------------------------------------------------


def test_diagonal_triple_is_compatible():
    t = BracketTriple(np.diag([1, -1, 2, -2]),
                      np.diag([1, 1, -1, -1]),
                      np.diag([2, -2, 1, -1]))
    rep = check_compatible(t)
    assert rep.compatible and rep.independent and rep.simultaneously_diagonalizable
    assert rep.reason == "compatible"


def test_conjugated_diagonal_triple_is_compatible():
    rng = seeded_rng()
    G = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    Gi = np.linalg.inv(G)
    mats = [G @ D @ Gi for D in dz.diagonal_triple(rng)]
    rep = check_compatible(BracketTriple(*mats))
    assert rep.simultaneously_diagonalizable


def test_nilpotent_triple_is_not_diagonalizable():
    Nmat = np.zeros((4, 4))
    Nmat[0, 1] = 1.0
    t = BracketTriple(Nmat,
                      2 * Nmat + np.diag([0.0, 0.0, 1.0, -1.0]),
                      np.diag([1.0, 1.0, -1.0, -1.0]))
    rep = check_compatible(t)
    assert rep.independent
    assert not rep.simultaneously_diagonalizable
    assert not rep.compatible
    assert "diagonalizable" in rep.reason


def _traceless(X):
    return X - (np.trace(X) / 4.0) * np.eye(4)


def test_polynomials_in_one_matrix_are_diagonalizable_exactly_when_it_is():
    # q(M) for real M with distinct real eigenvalues is diagonalizable; with a
    # complex pair, some q_i(M) of a generic triple has one too.  Draws with
    # eigenvalues within 1e-3 of each other or of the real axis are skipped.
    rng = seeded_rng()
    seen = {True: 0, False: 0}
    for _ in range(1000):
        M = rng.standard_normal((4, 4))
        ev = np.linalg.eigvals(M)
        imag = np.abs(ev.imag).max()
        if imag == 0.0 and np.diff(np.sort(ev.real)).min() > 1e-3:
            want = True
        elif imag > 1e-3:
            want = False
        else:
            continue
        powers = [np.linalg.matrix_power(M, k) for k in range(4)]
        mats = [_traceless(sum(c * P for c, P in zip(rng.uniform(-1, 1, 4), powers)))
                for _ in range(3)]
        assert check_compatible(BracketTriple(*mats)).simultaneously_diagonalizable == want
        seen[want] += 1
    assert min(seen.values()) > 80


def test_conjugated_jordan_block_triples_are_not_diagonalizable():
    # A carries a 2x2 Jordan block; B and C are diagonalizable and commute
    # with it, so the verdict rests on A alone
    rng = seeded_rng()
    for _ in range(300):
        lam = rng.uniform(-1.0, 1.0, 3)
        J = np.diag([lam[0], lam[0], lam[1], lam[2]])
        J[0, 1] = rng.uniform(0.1, 1.0)
        G = rng.standard_normal((4, 4)) + 3.0 * np.eye(4)
        Gi = np.linalg.inv(G)
        B, C = (G @ _traceless(np.diag(d[[0, 0, 1, 2]])) @ Gi for d in rng.uniform(-1, 1, (2, 3)))
        rep = check_compatible(BracketTriple(G @ _traceless(J) @ Gi, B, C))
        assert rep.independent
        assert not rep.simultaneously_diagonalizable


def test_dependent_triple_is_flagged():
    D = np.diag([1.0, -1.0, 2.0, -2.0])
    rep = check_compatible(BracketTriple(D, 2 * D, -D))
    assert not rep.independent
    assert not rep.compatible
    assert "dependent" in rep.reason


def test_independence_does_not_depend_on_the_scale_of_each_matrix():
    from g2solv.g2core import closed_triple

    D = np.diag([1.0, -1.0, 2.0, -2.0])
    E = np.diag([1.0, 1.0, -1.0, -1.0])
    assert check_compatible(closed_triple(1e30, 1.0, 1.0)).independent
    assert check_compatible(closed_triple(1.0, 1e-30, 1.0)).independent
    assert not check_compatible(BracketTriple(D, 1e30 * D, E)).independent
    assert not check_compatible(BracketTriple(D, 0.0 * D, E)).independent


def _rotation_triple():
    J = np.zeros((4, 4))
    J[0, 1], J[1, 0] = -1.0, 1.0
    J[2, 3], J[3, 2] = 1.0, -1.0
    return BracketTriple(J, np.diag([1.0, 1.0, -1.0, -1.0]), np.zeros((4, 4)))


def test_rotation_block_triple_is_not_real_diagonalizable():
    rep = check_compatible(_rotation_triple())
    assert not rep.simultaneously_diagonalizable


def _conjugator(rng, log_cond):
    """Random G with cond(G) = 10^log_cond."""
    Q1 = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    Q2 = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    return (Q1 * np.logspace(0.0, -log_cond, 4)) @ Q2


_STRESS_KINDS = ("distinct", "double", "two doubles", "triple", "close",
                 "jordan", "jordan3", "rotation")


def _stress_base(rng, kind):
    """A 4x4 matrix with eigenvalues in [-1, 1] and the structure `kind`."""
    lam = rng.uniform(-1.0, 1.0, 4)
    if kind in ("double", "jordan", "rotation"):
        lam[1] = lam[0]
    elif kind == "two doubles":
        lam[1], lam[3] = lam[0], lam[2]
    elif kind in ("triple", "jordan3"):
        lam[1] = lam[2] = lam[0]
    elif kind == "close":
        lam[1] = lam[0] + 10.0 ** rng.uniform(-9.0, -3.0)
    J = np.diag(lam)
    if kind in ("jordan", "jordan3"):
        J[0, 1] = rng.uniform(0.1, 1.0)
    if kind == "jordan3":
        J[1, 2] = rng.uniform(0.1, 1.0)
    if kind == "rotation":  # the double eigenvalue becomes a complex pair
        J[0, 1] = -rng.uniform(0.1, 1.0)
        J[1, 0] = -J[0, 1]
    return J


def _stress_triples(n):
    """n commuting triples: three traceless polynomials in one matrix of each
    `_STRESS_KINDS` in turn, conjugated by a G with cond(G) up to 1e10."""
    rng = seeded_rng()
    triples = []
    while len(triples) < n:
        J = _stress_base(rng, _STRESS_KINDS[len(triples) % len(_STRESS_KINDS)])
        G = _conjugator(rng, rng.uniform(0.0, 10.0))
        Gi = np.linalg.inv(G)
        powers = [np.eye(4), J, J @ J, J @ J @ J]
        mats = []
        for coef in rng.uniform(-1.0, 1.0, (3, 4)):
            X = sum(c * P for c, P in zip(coef, powers))
            mats.append(G @ _traceless(X) @ Gi)
        try:
            triples.append(BracketTriple(*mats))
        except ValueError:  # rounding broke commutation at high cond(G)
            pass
    return triples


def test_compatibility_agrees_with_the_per_cluster_rank_oracle(monkeypatch):
    # the shortcuts for diagonal matrices and one-eigenvalue clusters decide
    # as the rank count of every cluster does, on distinct, repeated and close
    # eigenvalues, Jordan blocks and rotation blocks, and on the benchmark's
    # torsion pools
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    workloads = importlib.import_module("workloads")
    pools = [op.data[0] for seed in range(1, 6)
             for op in itertools.chain.from_iterable(workloads.build_torsion(seed))]
    triples = _stress_triples(4000) + pools
    seen = {True: 0, False: 0}
    for t in triples:
        rep = check_compatible(t)
        want = rf.compatible(*t.matrices())
        assert (rep.independent, rep.simultaneously_diagonalizable) == want
        seen[want[1]] += 1
    assert min(seen.values()) > 1000


def _conjugated(*diagonals):
    rng = seeded_rng()
    G = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
    Gi = np.linalg.inv(G)
    return BracketTriple(*(G @ np.diag(d) @ Gi for d in diagonals))


@pytest.mark.parametrize("triple, eigvals, svd, compatible", [
    # a diagonal matrix needs no eigenvalues; one SVD decides independence
    (lambda: BracketTriple(np.diag([1.0, 1.0, -1.0, -1.0]), np.diag([1.0, -1.0, 1.0, -1.0]),
                           np.diag([3.0, -1.0, -1.0, -1.0])), 0, 1, True),
    # simple eigenvalues need no rank count
    (lambda: _conjugated([3.0, 1.0, -1.0, -3.0], [1.0, -2.0, 4.0, -3.0],
                         [2.0, 0.5, -1.0, -1.5]), 3, 1, True),
    # one double eigenvalue of A: exactly one cluster SVD
    (lambda: _conjugated([1.0, 1.0, 0.0, -2.0], [1.0, -2.0, 4.0, -3.0],
                         [2.0, 0.5, -1.0, -1.5]), 3, 2, True),
    # a complex pair in A ends the check at A's eigenvalues
    (_rotation_triple, 1, None, False),
], ids=["diagonal", "distinct", "double", "complex"])
def test_compatibility_lapack_calls(monkeypatch, triple, eigvals, svd, compatible):
    t = triple()
    calls = {"eigvals": 0, "svd": 0}
    for name in calls:
        def counted(*args, _name=name, _call=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    assert check_compatible(t).compatible is compatible
    assert calls["eigvals"] == eigvals
    if svd is not None:
        assert calls["svd"] == svd


def test_a_diagonal_matrix_is_diagonalizable_whatever_its_gaps():
    # entries 1.2e-6 apart share a cluster (width 1e-6 |M| = 1.4e-6) but are
    # not both within the rank cut (1e-6 of the largest singular value), so
    # the rank count alone would reject this diagonal matrix
    gap = 1.2e-6
    D = np.diag([0.0, gap, 1.0, -1.0 - gap])
    t = BracketTriple(D, np.diag([1.0, 1.0, -1.0, -1.0]), np.diag([1.0, -1.0, 1.0, -1.0]))
    assert rf.compatible(*t.matrices()) == (True, False)
    assert check_compatible(t).compatible


# -- curvature ---------------------------------------------------------------------


def test_ricci_blocks_for_diagonal_triples():
    # diagonal matrices are normal, so the fiber block vanishes and the
    # abelian block is minus the Gram matrix of the triple; the report is in
    # display order, the a-block (e7, e1, e2) first
    rng = seeded_rng()
    A, B, C = dz.diagonal_triple(rng)
    ric = np.array(ricci_report(BracketTriple(A, B, C))["ricci"])
    assert np.abs(ric[3:, 3:]).max() < 1e-14
    trip = (A, B, C)
    for i in range(3):
        for j in range(3):
            assert ric[i, j] == pytest.approx(-np.trace(trip[i] @ trip[j]), abs=1e-13)
    # mixed entries between the two blocks vanish identically
    assert np.abs(ric[:3, 3:]).max() == 0.0
    assert np.abs(ric[3:, :3]).max() == 0.0


def test_scalar_curvature_is_minus_frobenius_norm_for_symmetric_triples():
    rng = seeded_rng()
    for _ in range(5):
        A, B, C = dz.diagonal_triple(rng)
        t = BracketTriple(A, B, C)
        expect = -sum(float(np.sum(M * M)) for M in (A, B, C))
        assert ricci_report(t)["scal"] == pytest.approx(expect, abs=1e-12)


def test_ricci_for_equal_scale_closed_triple():
    from g2solv.g2core import closed_triple
    ric = np.array(ricci_report(closed_triple(1.0, 1.0, 1.0))["ricci"])
    assert np.abs(ric[:3, :3] + 4.0 * np.eye(3)).max() < 1e-13
    assert ricci_report(closed_triple(1.0, 1.0, 1.0))["scal"] == pytest.approx(-12.0)


def test_ricci_for_symmetric_coclosed_point():
    # (a, a, b, -b, c, c) has Ric = Diag(-4a^2, -4b^2, -4c^2, 0, 0, 0, 0)
    # in display order (e7, e1, e2, e3..e6)
    from g2solv.coflow import CoclosedParams
    a, b, c = 1.3, 0.7, 2.1
    t = CoclosedParams(a, a, b, -b, c, c).to_triple()
    disp = np.array(ricci_report(t)["ricci"])
    expect = np.diag([-4 * a * a, -4 * b * b, -4 * c * c, 0, 0, 0, 0])
    assert np.abs(disp - expect).max() < 1e-12


def test_ricci_for_general_coclosed_point():
    from g2solv.coflow import CoclosedParams
    a1, a2, b1, b2, c1, c2 = 0.9, -0.4, 1.1, 0.3, -0.7, 0.5
    t = CoclosedParams(a1, a2, b1, b2, c1, c2).to_triple()
    disp = np.array(ricci_report(t)["ricci"])
    expect_a = -np.array([
        [2 * (a1**2 + a2**2), (a1 - a2) * (b1 - b2), (a1 + a2) * (c1 - c2)],
        [(a1 - a2) * (b1 - b2), 2 * (b1**2 + b2**2), (b1 + b2) * (c1 + c2)],
        [(a1 + a2) * (c1 - c2), (b1 + b2) * (c1 + c2), 2 * (c1**2 + c2**2)],
    ])
    assert np.abs(disp[:3, :3] - expect_a).max() < 1e-12
    assert np.abs(disp[3:, :]).max() < 1e-14
    assert np.abs(disp[:, 3:]).max() < 1e-14


@settings(max_examples=25, deadline=None)
@given(traceless_diagonals(), st.floats(min_value=0.1, max_value=10.0))
def test_homothety_invariant_is_scale_free(mats, scale):
    t = BracketTriple(*mats)
    try:
        base = homothety_invariant(t)
    except ValueError:
        return
    scaled = homothety_invariant(BracketTriple(*(scale * M for M in mats)))
    assert scaled == pytest.approx(base, rel=1e-9)


@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e-8, 1e20, 1e100])
def test_homothety_invariant_holds_over_extreme_scales(scale):
    rng = seeded_rng()
    G = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    Gi = np.linalg.inv(G)
    for _ in range(5):
        # a symmetric triple and a conjugated, non-normal one
        D = dz.diagonal_triple(rng)
        for mats in (D, [G @ M @ Gi for M in D]):
            base = homothety_invariant(BracketTriple(*mats))
            scaled = homothety_invariant(BracketTriple(*(scale * M for M in mats)))
            assert scaled == pytest.approx(base, rel=1e-12)


def test_homothety_invariant_rejects_flat():
    t = BracketTriple(np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((4, 4)))
    with pytest.raises(ValueError):
        homothety_invariant(t)
    # commuting skew-symmetric matrices: nonzero brackets, vanishing Ricci
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    Z = np.zeros((2, 2))
    A = np.block([[J, Z], [Z, Z]])
    B = np.block([[Z, Z], [Z, J]])
    for scale in (1e-300, 1.0, 1e100):
        with pytest.raises(ValueError):
            homothety_invariant(BracketTriple(scale * A, scale * B, np.zeros((4, 4))))


def test_batched_invariants_match_the_one_triple_case():
    rng = seeded_rng()
    # the batched path of the flow: FlowTrajectory.invariants on family points
    rows = rng.uniform(-2.0, 2.0, size=(24, 6))
    rows = np.vstack([np.zeros(6), rows, 1e-300 * rows, 1e100 * rows])
    traj = FlowTrajectory(times=np.arange(len(rows), dtype=float), params=rows,
                          status="max_time")
    got = traj.invariants()
    assert got.shape == (len(rows),)
    assert np.isnan(got[0])
    for F, row in zip(got, rows):
        try:
            want = homothety_invariant(CoclosedParams.from_array(row).to_triple())
        except ValueError:
            assert np.isnan(F)
            continue
        assert F == pytest.approx(want, rel=1e-12)
    # the elementwise rule on unit-scale curvatures of general triples, over
    # a leading axis of any shape
    G = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    Gi = np.linalg.inv(G)
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    Z = np.zeros((2, 2))
    skew = [np.block([[J, Z], [Z, Z]]), np.block([[Z, Z], [Z, J]]), np.zeros((4, 4))]
    triples = [np.zeros((3, 4, 4)), np.array(skew)]
    for _ in range(8):
        D = np.array(dz.diagonal_triple(rng))
        for mats in (D, G @ D @ Gi, np.array(dz.commuting_triple(rng))):
            triples += [mats, 1e-300 * mats, 1e100 * mats]
    curv = np.array([_unit_curvature(BracketTriple(*mats))[2:4] for mats in triples])
    batched = _homothety(curv[:, 0], curv[:, 1])
    assert np.isnan(batched[:2]).all()
    for F, mats in zip(batched, triples):
        try:
            want = homothety_invariant(BracketTriple(*mats))
        except ValueError:
            assert np.isnan(F)
            continue
        assert F == want
    np.testing.assert_array_equal(
        _homothety(curv[2:, 0].reshape(8, 9), curv[2:, 1].reshape(8, 9)),
        batched[2:].reshape(8, 9))


def test_invariant_upper_bound_is_dimension():
    rng = seeded_rng()
    for _ in range(20):
        t = BracketTriple(*dz.diagonal_triple(rng))
        if all(np.abs(M).max() < 1e-12 for M in t.matrices()):
            continue
        assert homothety_invariant(t) <= 7.0 + 1e-12


# -- soliton condition ---------------------------------------------------------------


def test_solvsoliton_on_equal_scale_closed_triple():
    from g2solv.g2core import closed_triple
    res = solvsoliton_check(closed_triple(1.0, 1.0, 1.0))
    assert res["is_solvsoliton"] is True
    assert res["lam"] == pytest.approx(-4.0)


def test_solvsoliton_fails_off_the_diagonal_ray():
    from g2solv.g2core import closed_triple
    res = solvsoliton_check(closed_triple(2.0, 1.0, 1.0))
    assert res["is_solvsoliton"] is False
    assert res["lam"] is None


def test_solvsoliton_flat_case():
    t = BracketTriple(np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((4, 4)))
    res = solvsoliton_check(t)
    assert res["flat"] is True
    assert res["is_solvsoliton"] is False


def test_solvsoliton_characterization_on_coclosed_family():
    # within (a1, a2, b1, b2, c1, c2) the condition holds exactly on the two
    # sign patterns (a, a, b, -b, c, c) and (a, -a, b, b, c, -c) with equal
    # squares
    from g2solv.coflow import CoclosedParams

    def check(p):
        return solvsoliton_check(p.to_triple())["is_solvsoliton"]

    assert check(CoclosedParams(1, 1, 1, -1, 1, 1))
    assert check(CoclosedParams(1, 1, -1, 1, -1, -1))
    assert check(CoclosedParams(1, -1, 1, 1, 1, -1))
    assert not check(CoclosedParams(1, 1, 1, -1, 2, 2))
    assert not check(CoclosedParams(1, 1, 1, 1, 1, 1))
    assert not check(CoclosedParams(2, 2, 2, -2, 1, 1))


# -- reporting ---------------------------------------------------------------------


def test_ricci_report_structure():
    from g2solv.g2core import closed_triple
    rep = ricci_report(closed_triple(1.0, 1.0, 1.0))
    assert rep["scal"] == pytest.approx(-12.0)
    assert rep["F"] == pytest.approx(3.0)
    assert np.array(rep["ricci"]).shape == (7, 7)
    assert rep["trace_ric_sq"] == pytest.approx(48.0)


# display order (e7, e1, e2, e3..e6) of the internal basis e1..e7, zero-based
_DISPLAY = [6, 0, 1, 2, 3, 4, 5]


def _oracle_ricci(t):
    """Besse's Ricci operator of t in display order (orthonormal basis)."""
    ric = dz.ricci(dz.structure_tensor(*t.matrices()))
    return ric[np.ix_(_DISPLAY, _DISPLAY)]


def _commuting_skew_triple(rng):
    # rotations in the planes (e3, e4) and (e5, e6) commute, and each is normal
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    Z = np.zeros((2, 2))
    return [np.block([[x * J, Z], [Z, y * J]]) for x, y in rng.uniform(-1.0, 1.0, (3, 2))]


def _curvature_triples():
    """(kind, matrices): commuting, diagonal, conjugated-diagonal and
    commuting skew-symmetric triples."""
    rng = seeded_rng()
    G = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    Gi = np.linalg.inv(G)
    out = []
    for _ in range(5):
        D = dz.diagonal_triple(rng)
        out += [("commuting", dz.commuting_triple(rng)), ("diagonal", D),
                ("conjugated", [G @ M @ Gi for M in D]),
                ("skew", _commuting_skew_triple(rng))]
    return out


@pytest.mark.parametrize("power", [-200, 0, 200])
def test_ricci_report_reads_the_homothety_invariant(power):
    # every field against Besse's Ricci tensor; scaling by a power of two
    # leaves the unit-scale pass, and so F, bit for bit alone
    for kind, mats in _curvature_triples():
        t = BracketTriple(*(np.ldexp(M, power) for M in mats))
        rep = ricci_report(t)
        want = _oracle_ricci(t)
        unit = math.ldexp(1.0, 2 * power)  # the square of the scale
        got = np.array(rep["ricci"])
        assert got.shape == (7, 7)
        assert np.abs(got - want).max() <= 1e-13 * max(np.abs(want).max(), unit), kind
        # the blocks never mix
        assert not got[:3, 3:].any() and not got[3:, :3].any()
        assert rep["scal"] == pytest.approx(np.trace(want), rel=1e-13, abs=1e-13 * unit)
        ric_sq = np.sum(want * want)
        assert rep["trace_ric_sq"] == pytest.approx(ric_sq, rel=1e-13, abs=1e-13 * unit * unit)
        if kind == "skew":
            # normal skew matrices: vanishing Ricci curvature
            assert rep["F"] is None
            with pytest.raises(ValueError):
                homothety_invariant(t)
            continue
        assert rep["F"] == homothety_invariant(t) == homothety_invariant(BracketTriple(*mats))
        assert rep["F"] == pytest.approx(np.trace(want) ** 2 / ric_sq, rel=1e-13)


def test_ricci_report_flat_has_no_invariant():
    t = BracketTriple(np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((4, 4)))
    rep = ricci_report(t)
    assert rep["F"] is None
    assert rep["scal"] == 0.0
