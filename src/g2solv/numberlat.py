"""Lattice certification from totally real quartic number fields.

A monic integer quartic p with four distinct real roots u_1..u_4 and constant
term +-1 gives a rank-4 lattice with a multiplication-by-u matrix M (the
companion matrix).  Units of the order Z[u] expressed as integer polynomials
q(u) of degree <= 3 act integrally by q(M); three multiplicatively independent
units with totally positive squares produce the commuting positive matrices
that exponentiate to a cocompact lattice in the ambient solvable group.

Everything on the integer side (matrix products, determinants, characteristic
polynomial identities) is computed in exact arbitrary-precision arithmetic;
floating point only enters through root extraction and the log-embedding rank
test, both of which are certified against explicit tolerances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .config import TOL

# ---------------------------------------------------------------------------
# exact integer 4x4 helpers


def _imat_eye(n: int = 4):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _imat_add(X, Y):
    return [[X[i][j] + Y[i][j] for j in range(4)] for i in range(4)]


def _imat_scale(c: int, X):
    return [[c * X[i][j] for j in range(4)] for i in range(4)]


def _imat_mul(X, Y):
    return [
        [sum(X[i][k] * Y[k][j] for k in range(4)) for j in range(4)]
        for i in range(4)
    ]


def _imat_det(X) -> int:
    """Exact determinant by Leibniz expansion (24 terms for 4x4)."""
    total = 0
    for perm in itertools.permutations(range(4)):
        sign = 1
        for i in range(4):
            for j in range(i + 1, 4):
                if perm[i] > perm[j]:
                    sign = -sign
        term = 1
        for i in range(4):
            term *= X[i][perm[i]]
        total += sign * term
    return total


def _imat_commute(X, Y) -> bool:
    return _imat_mul(X, Y) == _imat_mul(Y, X)


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


def roots(p: QuarticPoly) -> np.ndarray:
    """Roots via companion eigenvalues, Newton-polished, descending order.

    Raises when the polynomial is not totally real (a complex pair) or has a
    repeated root within tolerance.
    """
    M = np.array(companion(p, check=False), dtype=float)
    vals = np.linalg.eigvals(M)
    scale = max(1.0, np.abs(vals).max())
    if np.abs(vals.imag).max() > TOL.eig_imag * scale:
        raise ValueError("polynomial is not totally real (complex roots)")
    vals = np.sort(vals.real)[::-1]
    for _ in range(8):
        deriv = p.derivative(vals)
        step = np.where(np.abs(deriv) > 1e-30, p(vals) / np.where(deriv == 0, 1, deriv), 0.0)
        vals = vals - step
        if np.abs(step).max() < TOL.newton:
            break
    gaps = np.diff(np.sort(vals))
    if len(gaps) and np.abs(gaps).min() < 1e-8 * scale:
        raise ValueError("repeated roots within tolerance")
    return vals


def companion(p: QuarticPoly, check: bool = True):
    """Integer companion matrix of p (multiplication by u in basis 1,u,u^2,u^3).

    With check=True the polynomial must be irreducible over Q and totally
    real; violations raise with the reason.
    """
    if check:
        if not is_irreducible(p):
            raise ValueError("polynomial is reducible over Q")
        roots(p)  # raises on complex or repeated roots
    a0, a1, a2, a3 = p.coeffs()
    M = [[0, 0, 0, -a0], [1, 0, 0, -a1], [0, 1, 0, -a2], [0, 0, 1, -a3]]
    return M


def unit_matrix(p: QuarticPoly, q: UnitSpec):
    """Exact integer matrix of multiplication by the unit q(u) on Z[u].

    Raises when |det q(M)| != 1, i.e. when q(u) is not a unit of the order.
    """
    M = companion(p)
    q0, q1, q2, q3 = q.coeffs()
    # Horner: ((q3 M + q2) M + q1) M + q0
    acc = _imat_scale(q3, _imat_eye())
    for c in (q2, q1, q0):
        acc = _imat_add(_imat_mul(acc, M), _imat_scale(c, _imat_eye()))
    det = _imat_det(acc)
    if det not in (1, -1):
        raise ValueError(f"q(u) is not a unit (|det| = {abs(det)})")
    return acc


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


def diagonalize(p: QuarticPoly, mats) -> dict:
    """Simultaneously diagonalize unit matrices by the root Vandermonde.

    The rows of V are (1, u_i, u_i^2, u_i^3); conjugation V X V^-1 sends each
    multiplication matrix to the diagonal of its values at the roots.  Returns
    roots, V, the diagonals, and the worst off-diagonal residual.
    """
    u = roots(p)
    V = np.vander(u, 4, increasing=True)
    Vinv = np.linalg.inv(V)
    diags = []
    residual = 0.0
    for X in mats:
        D = V @ np.array(X, dtype=float) @ Vinv
        off = D - np.diag(np.diag(D))
        residual = max(residual, float(np.abs(off).max()))
        diags.append(np.diag(D).copy())
    return {"roots": u, "vandermonde": V, "diagonals": diags, "residual": residual}


def mult_independence(p: QuarticPoly, units) -> dict:
    """Rank of the log-embedding matrix L[i, j] = log|q_i(u_j)|.

    The units are multiplicatively independent exactly when L has full row
    rank; numerically this is sigma_min(L) clearing an absolute threshold.
    """
    u = roots(p)
    L = np.empty((len(units), 4))
    for i, q in enumerate(units):
        vals = np.abs([q(x) for x in u])
        if np.any(vals < 1e-300):
            raise ValueError("unit vanishes at an embedding")
        L[i] = np.log(vals)
    s = np.linalg.svd(L, compute_uv=False)
    sigma_min = float(s[len(units) - 1]) if len(units) <= 4 else 0.0
    rank = int((s > TOL.unit_log_sigma).sum())
    return {
        "independent": bool(sigma_min > TOL.unit_log_sigma),
        "rank": rank,
        "sigma_min": sigma_min,
        "log_matrix": L,
    }


@dataclass
class LatticeCertificate:
    poly: tuple[int, int, int, int]
    units: list[tuple[int, int, int, int]]
    matrices: list  # exact integer entries
    roots: list[float]
    vandermonde: list
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
            "checks": self.checks,
            "verdict": self.verdict,
            "reason": self.reason,
        }


def certify_lattice(p: QuarticPoly, units) -> LatticeCertificate:
    """Run the full certification chain; failures are recorded, not raised.

    Checks: p irreducible and totally real with unit constant term; each q(u)
    a unit acting integrally; determinants exactly +1; pairwise commuting;
    simultaneous diagonalization residual; positive spectra (squares of units
    giving a totally positive action); multiplicative independence of rank 3.
    """
    cert = LatticeCertificate(
        poly=p.coeffs(),
        units=[q.coeffs() for q in units],
        matrices=[],
        roots=[],
        vandermonde=[],
    )
    checks = cert.checks
    try:
        checks["irreducible"] = is_irreducible(p)
        checks["unit_constant_term"] = p.a0 in (1, -1)
        checks["totally_real"] = is_totally_real(p)

        mats = []
        dets = []
        if checks["irreducible"] and checks["totally_real"]:
            for q in units:
                try:
                    X = unit_matrix(p, q)
                except ValueError:
                    checks["units_valid"] = False
                    break
                mats.append(X)
                dets.append(_imat_det(X))
            else:
                checks["units_valid"] = True
        else:
            checks["units_valid"] = False

        if checks.get("units_valid"):
            cert.matrices = mats
            checks["integral"] = True  # exact integer arithmetic by construction
            checks["det_one"] = all(d == 1 for d in dets)
            checks["commute"] = all(
                _imat_commute(X, Y)
                for i, X in enumerate(mats)
                for Y in mats[i + 1:]
            )
            diag = diagonalize(p, mats)
            cert.roots = [float(x) for x in diag["roots"]]
            cert.vandermonde = diag["vandermonde"].tolist()
            checks["diag_residual"] = diag["residual"]
            checks["diagonalized"] = diag["residual"] < TOL.diag_residual
            checks["positive_spectra"] = all(
                np.all(D > 0) for D in diag["diagonals"]
            )
            indep = mult_independence(p, units)
            checks["independent"] = indep["independent"]
            checks["independence_sigma_min"] = indep["sigma_min"]
            required = [
                "irreducible", "unit_constant_term", "totally_real",
                "units_valid", "integral", "det_one", "commute",
                "diagonalized", "positive_spectra", "independent",
            ]
            cert.verdict = all(bool(checks[k]) for k in required)
            cert.reason = "certified" if cert.verdict else "checks failed"
        else:
            cert.verdict = False
            cert.reason = "polynomial or unit validation failed"
    except Exception as exc:  # pragma: no cover - defensive
        cert.verdict = False
        cert.reason = f"internal failure: {exc}"
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
