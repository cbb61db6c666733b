"""Lattice certification from totally real quartic number fields.

A monic integer quartic p with four distinct real roots u_1..u_4 and constant
term +-1 gives a rank-4 lattice with a multiplication-by-u matrix M (the
companion matrix).  Units of the order Z[u] expressed as integer polynomials
q(u) of degree <= 3 act integrally by q(M); three multiplicatively independent
units with totally positive squares produce the commuting positive matrices
that exponentiate to a cocompact lattice in the ambient solvable group.

`certify_lattice` decides in exact integer arithmetic everything except
multiplicative independence: irreducibility, total reality (a Sturm chain),
and, from the integer characteristic polynomial of each unit matrix, the
unit property, det = 1 and the positivity of the spectrum.  Each unit
matrix is built column by column from shifts mod p (column j is u^j q(u)),
and its characteristic polynomial needs one squaring.  Commutation holds by
construction: every unit matrix is a polynomial in M.
Floating point enters in one pass per certificate: the roots of p are
extracted once, and the values q_i(u_j) feed the log-embedding rank test
(against `TOL.unit_log_sigma`) and the reported Vandermonde residual.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from operator import mul

import numpy as np

from .config import TOL

# ---------------------------------------------------------------------------
# exact integer 4x4 helpers


def _mul_matrix(p: QuarticPoly, q: UnitSpec):
    """Exact integer matrix q(M) of multiplication by q(u) in the basis
    1, u, u^2, u^3, as a list of rows.

    Column j holds the coefficients of u^j q(u) mod p.  Column 0 is q itself,
    and multiplying by u shifts a column up one degree and folds u^4 back
    with u^4 = -(a0 + a1 u + a2 u^2 + a3 u^3): 12 products in all (Cohen, A
    Course in Computational Algebraic Number Theory, 4.1).  p is not
    validated.
    """
    a0, a1, a2, a3 = p.coeffs()
    c0, c1, c2, c3 = column = q.coeffs()
    columns = [column]
    for _ in range(3):
        c0, c1, c2, c3 = -c3 * a0, c0 - c3 * a1, c1 - c3 * a2, c2 - c3 * a3
        columns.append((c0, c1, c2, c3))
    return [list(row) for row in zip(*columns)]


def charpoly(X) -> QuarticPoly:
    """det(t I - X) of an integer 4x4 matrix, exactly.

    The power sums s_k = tr X^k need one product X^2 (s3 and s4 are traces
    of products, summed row by column without forming them).  Newton's
    identities k e_k = sum_{i=1..k} (-1)^(i-1) e_(k-i) s_i then give the
    elementary symmetric functions of the eigenvalues; each division by k is
    exact, since det(t I - X) has integer coefficients.
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


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuarticPoly:
    """Monic integer quartic t^4 + a3 t^3 + a2 t^2 + a1 t + a0, stored as
    (a0, a1, a2, a3)."""

    a0: int
    a1: int
    a2: int
    a3: int

    def __post_init__(self):
        for name in ("a0", "a1", "a2", "a3"):
            v = getattr(self, name)
            if not isinstance(v, int):
                raise ValueError("coefficients must be integers")

    def coeffs(self) -> tuple[int, int, int, int]:
        return (self.a0, self.a1, self.a2, self.a3)

    def __call__(self, x):
        a0, a1, a2, a3 = self.coeffs()
        return (((x + a3) * x + a2) * x + a1) * x + a0

    def derivative(self, x):
        a0, a1, a2, a3 = self.coeffs()
        return ((4 * x + 3 * a3) * x + 2 * a2) * x + a1

    def alternates_in_sign(self) -> bool:
        """Whether 1, a3, a2, a1, a0 strictly alternate in sign.  For a
        polynomial with only real roots this holds exactly when every root is
        positive: Descartes' rule of signs is exact there."""
        return self.a3 < 0 < self.a2 and self.a1 < 0 < self.a0


@dataclass(frozen=True)
class UnitSpec:
    """Unit written in the power basis: q0 + q1 u + q2 u^2 + q3 u^3."""

    q0: int
    q1: int
    q2: int
    q3: int

    def __post_init__(self):
        for name in ("q0", "q1", "q2", "q3"):
            if not isinstance(getattr(self, name), int):
                raise ValueError("coefficients must be integers")

    def coeffs(self):
        return (self.q0, self.q1, self.q2, self.q3)

    def __call__(self, x):
        q0, q1, q2, q3 = self.coeffs()
        return ((q3 * x + q2) * x + q1) * x + q0


def is_irreducible(p: QuarticPoly) -> bool:
    """Irreducibility over Q for a monic integer quartic.

    By Gauss's lemma p factors over Q exactly when it factors over Z: it has
    an integer root, which divides a0, or it splits as (t^2 + b t + c)
    (t^2 + d t + e) with c e = a0 and |c| <= sqrt|a0|.  One walk over the
    divisors k <= sqrt|a0| tests the roots +-k, +-a0/k and the splits with
    c = +-k.  a0 = 0 gives the root 0.
    """
    a0, a1, a2, a3 = p.coeffs()
    if a0 == 0:
        return False
    for k in range(1, math.isqrt(abs(a0)) + 1):
        if a0 % k:
            continue
        if 0 in (p(k), p(-k), p(a0 // k), p(-(a0 // k))):
            return False
        for c, e in ((k, a0 // k), (-k, -(a0 // k))):
            # b + d = a3, b d = a2 - c - e, b e + c d = a1
            disc = a3 * a3 - 4 * (a2 - c - e)
            if disc < 0:
                continue
            rt = math.isqrt(disc)
            if rt * rt == disc and (a3 + rt) % 2 == 0:
                b = (a3 + rt) // 2
                d = a3 - b
                if a1 in (b * e + c * d, d * e + c * b):
                    return False
    return True


def _poly_rem(a: list, b: list) -> list:
    """A positive multiple of the remainder of a by b, for integer coefficient
    lists with the leading term first; positive factors keep every sign."""
    sign, scale = (1 if b[0] > 0 else -1), abs(b[0])
    while len(a) >= len(b):
        a = ([scale * x - sign * a[0] * y for x, y in zip(a[1:], b[1:])]
             + [scale * x for x in a[len(b):]])
    while a and a[0] == 0:
        a = a[1:]
    g = math.gcd(*a) if a else 1
    return [x // g for x in a]


def is_totally_real(p: QuarticPoly) -> bool:
    """Whether every root of p is real, repeated roots included; exact.

    The Sturm chain p, p', -rem, ... ends at gcd(p, p').  Sign changes at
    -inf and +inf count the distinct real roots, and p has 4 - deg gcd
    distinct roots in all.
    """
    a0, a1, a2, a3 = p.coeffs()
    chain = [[1, a3, a2, a1, a0], [4, 3 * a3, 2 * a2, a1]]
    while r := _poly_rem(chain[-2], chain[-1]):
        chain.append([-x for x in r])

    def sign_changes(at_minus_inf: bool) -> int:
        signs = [(f[0] > 0) != (at_minus_inf and len(f) % 2 == 0) for f in chain]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    return sign_changes(True) - sign_changes(False) == 5 - len(chain[-1])


def _roots(p: QuarticPoly) -> np.ndarray:
    """The roots of a totally real p in descending order: the real parts of
    the companion eigenvalues, Newton-polished on p."""
    vals = np.linalg.eigvals(np.array(companion(p), dtype=float))
    # sorted() rather than np.sort: the first np.sort call would add the
    # pages of numpy's sort code to every process that certifies
    u = np.array(sorted(vals.real.tolist(), reverse=True))
    for _ in range(8):
        deriv = p.derivative(u)
        step = np.where(np.abs(deriv) > 1e-30, p(u) / np.where(deriv == 0, 1, deriv), 0.0)
        u = u - step
        if np.abs(step).max() < TOL.newton:
            break
    return u


# Roots closer than this, relative to max(1, largest |root|), are not told
# apart: double precision resolves a simple root to about 1e-16 of that
# scale, but a near-double root only to about its square root, 1e-8.
_ROOT_SEPARATION = 1e-8


def roots(p: QuarticPoly) -> np.ndarray:
    """Roots via companion eigenvalues, Newton-polished, descending order.

    Raises when the polynomial is not totally real, as decided exactly by
    `is_totally_real`, or when two roots lie within `_ROOT_SEPARATION` of
    each other, which floats cannot resolve.  `certify_lattice` decides
    separability exactly (irreducible implies separable) and does without
    this float test.
    """
    if not is_totally_real(p):
        raise ValueError("polynomial is not totally real (complex roots)")
    u = _roots(p)
    scale = max(1.0, np.abs(u).max())
    if np.diff(np.sort(u)).min() < _ROOT_SEPARATION * scale:
        raise ValueError("repeated roots within tolerance")
    return u


def companion(p: QuarticPoly):
    """Integer companion matrix of p (multiplication by u in basis 1,u,u^2,u^3)."""
    return _mul_matrix(p, UnitSpec(0, 1, 0, 0))


def unit_matrix(p: QuarticPoly, q: UnitSpec):
    """Exact integer matrix q(M) of multiplication by q(u) on Z[u].

    Raises when |det q(M)| != 1, i.e. when q(u) is not a unit of the order;
    the determinant is read from `charpoly`.  p itself is not validated.
    """
    X = _mul_matrix(p, q)
    det = charpoly(X).a0
    if det not in (1, -1):
        raise ValueError(f"q(u) is not a unit (|det| = {abs(det)})")
    return X


def poly_square_mod(q: UnitSpec, p: QuarticPoly) -> UnitSpec:
    """The square of a unit, reduced mod p back to the power basis: q(M)
    applied to the coefficients of q."""
    return UnitSpec(*(sum(map(mul, row, q.coeffs())) for row in _mul_matrix(p, q)))


def mult_independence(p: QuarticPoly, units) -> dict:
    """Rank of the log-embedding matrix L[i, j] = log|q_i(u_j)|.

    The units are multiplicatively independent exactly when L has full row
    rank; numerically this is sigma_min(L) clearing an absolute threshold.
    p must be irreducible and totally real, and each q_i(u) a unit,
    |N(q_i)| = |det q_i(M)| = 1, as `certify_lattice` decides exactly; the
    roots are taken without the tests of `roots`.  A unit's smallest
    conjugate can cancel to 0.0 in floats, so each row takes it from the
    norm instead: |q_i(u_j)| = 1 / prod of the others, and L[i, j] = minus
    the sum of their logs.  A zero among the others still raises.
    The report also carries those roots and the float values
    Q[i, j] = q_i(u_j), as evaluated.
    """
    u = _roots(p)
    Q = np.array([q(u) for q in units], dtype=float)
    A = np.abs(Q)
    # flat index of each row's smallest; 1.0 there makes L's row sum the others'
    smallest = A.argmin(axis=1) + np.arange(0, A.size, A.shape[1])
    A.ravel()[smallest] = 1.0
    if (A < 1e-300).any():
        raise ValueError("unit vanishes at an embedding")
    L = np.log(A)
    L.ravel()[smallest] = -L.sum(axis=1)
    s = np.linalg.svd(L, compute_uv=False)
    sigma_min = float(s[len(units) - 1]) if len(units) <= 4 else 0.0
    rank = int((s > TOL.unit_log_sigma).sum())
    return {
        "independent": bool(sigma_min > TOL.unit_log_sigma),
        "rank": rank,
        "sigma_min": sigma_min,
        "log_matrix": L,
        "roots": u,
        "values": Q,
    }


@dataclass
class LatticeCertificate:
    poly: tuple[int, int, int, int]
    units: list[tuple[int, int, int, int]]
    matrices: list = field(default_factory=list)  # exact integer entries
    roots: list[float] = field(default_factory=list)
    vandermonde: list = field(default_factory=list)
    spectra: list = field(default_factory=list)  # q_i(u_j), one row per unit
    checks: dict = field(default_factory=dict)
    verdict: bool = False
    reason: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


# the checks the verdict rests on; "integral", "commute" and "diagonalized"
# are reported too but hold by construction (see certify_lattice)
_REQUIRED = ("irreducible", "unit_constant_term", "totally_real", "units_valid",
             "det_one", "positive_spectra", "independent")


def certify_lattice(p: QuarticPoly, units) -> LatticeCertificate:
    """Certify p with exactly three units (ValueError otherwise); failed
    checks are recorded.

    Exact checks: p irreducible and totally real with unit constant term; for
    each unit matrix X = q(M), from the characteristic polynomial of X,
    |det X| = 1 (q(u) is a unit), det X = +1 and a positive spectrum (the
    coefficients alternate in sign).

    `integral`, `commute` and `diagonalized` hold by construction: each X
    is an integer polynomial in the one companion matrix M, so the X commute
    exactly, and the eigenvalues of M are distinct (irreducible implies
    separable) and real, so the root Vandermonde V diagonalizes every X,
    V X = diag(q(u)) V.  `diag_residual` reports that identity in floating
    point, as the largest |V X - diag(q(u)) V| relative to |V| |X|
    (Frobenius norms).

    Multiplicative independence is the one numerical decision (see
    `mult_independence`).  A ValueError from that float pass fails the
    certificate with its message as the reason; other errors propagate.
    """
    if len(units) != 3:
        raise ValueError(f"a lattice needs three units, got {len(units)}")
    cert = LatticeCertificate(poly=p.coeffs(), units=[q.coeffs() for q in units])
    checks = cert.checks
    # the factorization search costs sqrt|a0| steps: skip it (None, "not
    # decided") when a0 != +-1 already rules the polynomial out
    unit = p.a0 in (1, -1)
    checks["irreducible"] = is_irreducible(p) if unit else None
    checks["unit_constant_term"] = unit
    checks["totally_real"] = is_totally_real(p)
    checks["units_valid"] = False
    if checks["irreducible"] and checks["totally_real"]:
        mats = [_mul_matrix(p, q) for q in units]
        chars = [charpoly(X) for X in mats]
        checks["units_valid"] = all(c.a0 in (1, -1) for c in chars)
    if not checks["units_valid"]:
        cert.reason = "polynomial or unit validation failed"
        return cert

    cert.matrices = mats
    checks["integral"] = True
    checks["det_one"] = all(c.a0 == 1 for c in chars)
    checks["commute"] = True
    checks["positive_spectra"] = all(c.alternates_in_sign() for c in chars)
    checks["diagonalized"] = True
    try:
        indep = mult_independence(p, units)
    except ValueError as exc:
        cert.reason = f"floating-point pass failed: {exc}"
        return cert
    u, Q = indep["roots"], indep["values"]
    V = np.vander(u, 4, increasing=True)
    cert.roots, cert.vandermonde, cert.spectra = u.tolist(), V.tolist(), Q.tolist()
    # one stacked pass over the unit matrices, shape (k, 4, 4)
    Xs = np.array(mats, dtype=float)
    R = V @ Xs - Q[:, :, None] * V
    ratios = np.einsum("kij,kij->k", R, R) / np.einsum("kij,kij->k", Xs, Xs)
    checks["diag_residual"] = math.sqrt(ratios.max() / np.einsum("ij,ij", V, V))
    checks["independent"] = indep["independent"]
    checks["independence_sigma_min"] = indep["sigma_min"]
    cert.verdict = all(checks[k] for k in _REQUIRED)
    cert.reason = "certified" if cert.verdict else "checks failed"
    return cert


# ---------------------------------------------------------------------------
# built-in examples with reference action matrices for bit-exact comparison;
# the unit coefficient vectors are squares of fundamental units reduced to
# the power basis (see poly_square_mod).

BUILTIN_EXAMPLES = {
    # p(t) = t^4 - t^3 - 4 t^2 + 4 t + 1, roots 2 cos(2 pi k / 15)
    "kl-2015": {
        "poly": QuarticPoly(1, 4, -4, -1),
        "units": [
            UnitSpec(0, 0, 1, 0),
            UnitSpec(3, -4, 0, 1),
            UnitSpec(4, 3, -1, -1),
        ],
        "reference": [
            [[0, 0, -1, -1], [0, 0, -4, -5], [1, 0, 4, 0], [0, 1, 1, 5]],
            [[3, -1, -1, -1], [-4, -1, -5, -5], [0, 0, 3, -1], [1, 1, 1, 4]],
            [[4, 1, 2, 3], [3, 8, 9, 14], [-1, -1, 0, -3], [-1, -2, -3, -3]],
        ],
    },
    # p(t) = t^4 - 4 t^2 + 1, roots +-sqrt(2 +- sqrt(3))
    "kl-sqrt3": {
        "poly": QuarticPoly(1, 0, -4, 0),
        "units": [
            UnitSpec(0, 0, 1, 0),
            UnitSpec(1, 4, 4, 0),
            UnitSpec(-5, -2, 20, 10),
        ],
        "reference": [
            [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 4, 0], [0, 1, 0, 4]],
            [[1, 0, -4, -4], [4, 1, 0, -4], [4, 4, 17, 16], [0, 4, 4, 17]],
            [[-5, -10, -20, -38], [-2, -5, -10, -20], [20, 38, 75, 142], [10, 20, 38, 75]],
        ],
    },
}
