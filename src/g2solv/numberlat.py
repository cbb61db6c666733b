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
unit property, det = 1 and the positivity of the spectrum.  Commutation
holds by construction: every unit matrix is a polynomial in M.
Floating point enters in one pass per certificate: the roots of p are
extracted once, and the values q_i(u_j) feed the log-embedding rank test
(against `TOL.unit_log_sigma`) and the reported Vandermonde residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import TOL

# ---------------------------------------------------------------------------
# exact integer 4x4 helpers


def _imat_mul(X, Y):
    return [
        [sum(X[i][k] * Y[k][j] for k in range(4)) for j in range(4)]
        for i in range(4)
    ]


def _horner(M, q: UnitSpec):
    """q(M) = ((q3 M + q2) M + q1) M + q0, exactly."""
    q0, q1, q2, q3 = q.coeffs()
    acc = [[q3 if i == j else 0 for j in range(4)] for i in range(4)]
    for c in (q2, q1, q0):
        acc = _imat_mul(acc, M)
        for i in range(4):
            acc[i][i] += c
    return acc


def charpoly(X) -> QuarticPoly:
    """det(t I - X) of an integer 4x4 matrix, exactly.

    The power sums s_k = tr X^k need one product X^2 (s3 and s4 are traces
    of products, summed without forming them).  Newton's identities
    k e_k = sum_{i=1..k} (-1)^(i-1) e_(k-i) s_i then give the elementary
    symmetric functions of the eigenvalues; each division by k is exact,
    since det(t I - X) has integer coefficients.
    """
    X2 = _imat_mul(X, X)
    s1 = sum(X[i][i] for i in range(4))
    s2 = sum(X2[i][i] for i in range(4))
    s3 = sum(X2[i][j] * X[j][i] for i in range(4) for j in range(4))
    s4 = sum(X2[i][j] * X2[j][i] for i in range(4) for j in range(4))
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


def _divisors(n: int):
    """The divisors 1 <= d <= sqrt|n| of a nonzero integer n."""
    d = 1
    while d * d <= abs(n):
        if n % d == 0:
            yield d
        d += 1


def _rational_roots(p: QuarticPoly):
    """Integer roots of a monic integer polynomial divide the constant term."""
    a0 = p.a0
    if a0 == 0:
        return [0]
    cands = set()
    for d in _divisors(a0):
        cands.update({d, -d, abs(a0) // d, -abs(a0) // d})
    return [r for r in sorted(cands) if p(r) == 0]


def _quadratic_factorization(p: QuarticPoly):
    """Search integer factorizations (t^2+bt+c)(t^2+dt+e); None if none exist."""
    a0, a1, a2, a3 = p.coeffs()
    for d in _divisors(a0):
        for c, e in ((d, a0 // d), (-d, -(a0 // d))):
            # b + d = a3, bd = a2 - c - e, be + cd = a1
            disc = a3 * a3 - 4 * (a2 - c - e)
            if disc < 0:
                continue
            rt = math.isqrt(disc)
            if rt * rt == disc and (a3 + rt) % 2 == 0:
                b = (a3 + rt) // 2
                dd = a3 - b
                for bb, ddd in ((b, dd), (dd, b)):
                    if bb * e + c * ddd == a1:
                        return (1, bb, c), (1, ddd, e)
    return None


def is_irreducible(p: QuarticPoly) -> bool:
    """Irreducibility over Q for a monic integer quartic: no rational root
    and no integer quadratic factorization."""
    if _rational_roots(p):
        return False
    return _quadratic_factorization(p) is None


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


def _polished_roots(p: QuarticPoly, vals: np.ndarray) -> np.ndarray:
    """The real parts of the companion eigenvalues vals, Newton-polished on
    p, in descending order."""
    u = np.sort(vals.real)[::-1]
    for _ in range(8):
        deriv = p.derivative(u)
        step = np.where(np.abs(deriv) > 1e-30, p(u) / np.where(deriv == 0, 1, deriv), 0.0)
        u = u - step
        if np.abs(step).max() < TOL.newton:
            break
    return u


def _companion_eigvals(p: QuarticPoly) -> np.ndarray:
    return np.linalg.eigvals(np.array(companion(p), dtype=float))


def roots(p: QuarticPoly) -> np.ndarray:
    """Roots via companion eigenvalues, Newton-polished, descending order.

    Raises when the polynomial is not totally real (a complex pair) or has a
    repeated root within tolerance.  `certify_lattice` decides both exactly
    and does without these float tests.
    """
    vals = _companion_eigvals(p)
    scale = max(1.0, np.abs(vals).max())
    if np.abs(vals.imag).max() > TOL.eig_imag * scale:
        raise ValueError("polynomial is not totally real (complex roots)")
    u = _polished_roots(p, vals)
    if np.diff(np.sort(u)).min() < 1e-8 * scale:
        raise ValueError("repeated roots within tolerance")
    return u


def companion(p: QuarticPoly):
    """Integer companion matrix of p (multiplication by u in basis 1,u,u^2,u^3)."""
    a0, a1, a2, a3 = p.coeffs()
    return [[0, 0, 0, -a0], [1, 0, 0, -a1], [0, 1, 0, -a2], [0, 0, 1, -a3]]


def unit_matrix(p: QuarticPoly, q: UnitSpec):
    """Exact integer matrix q(M) of multiplication by q(u) on Z[u].

    Raises when |det q(M)| != 1, i.e. when q(u) is not a unit of the order;
    the determinant is read from `charpoly`.  p itself is not validated.
    """
    X = _horner(companion(p), q)
    det = charpoly(X).a0
    if det not in (1, -1):
        raise ValueError(f"q(u) is not a unit (|det| = {abs(det)})")
    return X


def poly_square_mod(q: UnitSpec, p: QuarticPoly) -> UnitSpec:
    """The square of a unit, reduced mod p back to the power basis."""
    qq = [0] * 7
    qc = q.coeffs()
    for i in range(4):
        for j in range(4):
            qq[i + j] += qc[i] * qc[j]
    a0, a1, a2, a3 = p.coeffs()
    for k in range(6, 3, -1):
        c = qq[k]
        if c == 0:
            continue
        qq[k] = 0
        # t^k = t^(k-4) * (-a3 t^3 - a2 t^2 - a1 t - a0)
        qq[k - 1] -= c * a3
        qq[k - 2] -= c * a2
        qq[k - 3] -= c * a1
        qq[k - 4] -= c * a0
    return UnitSpec(qq[0], qq[1], qq[2], qq[3])


def mult_independence(p: QuarticPoly, units) -> dict:
    """Rank of the log-embedding matrix L[i, j] = log|q_i(u_j)|.

    The units are multiplicatively independent exactly when L has full row
    rank; numerically this is sigma_min(L) clearing an absolute threshold.
    p must be irreducible and totally real, as `certify_lattice` decides
    exactly, so the roots are taken without the float tests of `roots`.
    The report also carries those roots and the values Q[i, j] = q_i(u_j).
    """
    u = _polished_roots(p, _companion_eigvals(p))
    Q = np.array([q(u) for q in units], dtype=float)
    if np.any(np.abs(Q) < 1e-300):
        raise ValueError("unit vanishes at an embedding")
    L = np.log(np.abs(Q))
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
        return {
            "poly": list(self.poly),
            "units": [list(u) for u in self.units],
            "matrices": self.matrices,
            "roots": self.roots,
            "vandermonde": self.vandermonde,
            "spectra": self.spectra,
            "checks": self.checks,
            "verdict": self.verdict,
            "reason": self.reason,
        }


# the checks the verdict rests on; "integral", "commute" and "diagonalized"
# are reported too but hold by construction (see certify_lattice)
_REQUIRED = ("irreducible", "unit_constant_term", "totally_real", "units_valid",
             "det_one", "positive_spectra", "independent")


def certify_lattice(p: QuarticPoly, units) -> LatticeCertificate:
    """Run the full certification chain; failed checks are recorded.

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
        M = companion(p)
        mats = [_horner(M, q) for q in units]
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
    residual = 0.0
    for X, q in zip(mats, Q):
        X = np.array(X, dtype=float)
        res = np.linalg.norm(V @ X - q[:, None] * V) / (np.linalg.norm(V) * np.linalg.norm(X))
        residual = max(residual, float(res))
    checks["diag_residual"] = residual
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
        "root_family": "2cos(2pik/15), k in {1,2,4,7}",
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
        "root_family": "+-sqrt(2 +- sqrt(3))",
    },
}
