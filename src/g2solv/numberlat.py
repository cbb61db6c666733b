"""Lattice certification from totally real quartic number fields.

A monic integer quartic p with four distinct real roots u_1..u_4 and constant
term +-1 gives a rank-4 lattice with a multiplication-by-u matrix M (the
companion matrix).  Units of the order Z[u] expressed as integer polynomials
q(u) of degree <= 3 act integrally by q(M); three multiplicatively independent
units with totally positive squares produce the commuting positive matrices
that exponentiate to a cocompact lattice in the ambient solvable group.

`certify_lattice` decides in exact integer arithmetic everything except
multiplicative independence: irreducibility, total reality and, from the
integer characteristic polynomial of each unit matrix, the unit property,
det = 1 and the positivity of the spectrum.  Total reality takes three
integer signs when the discriminant is nonzero: the discriminant's, and
when it is positive those of P and D (Rees 1922, Lazard 1988;
`_real_roots`); a repeated root, discriminant 0, is left to a Sturm chain.
Each unit matrix is built column by column from shifts mod p (column j is
u^j q(u)), and its characteristic polynomial comes from the trace form of
Z[u]: the power sums of the roots of p, taken once per certificate, and
q^2 mod p.
Commutation holds by construction: every unit matrix is a polynomial in M.
Floating point enters in one pass per certificate, on plain Python floats:
the roots of p are extracted once, each proven to be p's root rounded to
nearest by exact sign changes of p (`_polish`), and the values q_i(u_j)
feed the regulator of the units, a 3x3 log determinant, and the reported
spectra.  Roots that floats cannot resolve or separate fail the pass.
Independence needs no tolerance: the regulator is exactly 0 or at least
`_REGULATOR_FLOOR`, a theorem about every number field.  Each unit's
smallest conjugate, which can cancel in floats, is taken from its exact
norm.  Float sums run left to right, never through builtin `sum`
(compensated on Python 3.12+), so the bits do not depend on the Python
version.  Nothing is cached between calls.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field

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


def _power_sums(p: QuarticPoly) -> list[int]:
    """T_k = sum_j u_j^k = tr M^k for k = 0..6, exactly, over the roots u_j
    of p counted with multiplicity.

    Newton's identities give T_1..T_3, and T_k = -a3 T_(k-1) - a2 T_(k-2)
    - a1 T_(k-3) - a0 T_(k-4) for k >= 4.  H_ij = T_(i+j) (i, j = 0..3) is
    the trace form of Z[u]: Tr(x y) = x^T H y for x, y in the power basis
    (Cohen, 4.3).  Any monic p.
    """
    a0, a1, a2, a3 = p.coeffs()
    T = [4, -a3, a3 * a3 - 2 * a2, -a3 * a3 * a3 + 3 * a2 * a3 - 3 * a1]
    for k in range(4, 7):
        T.append(-a3 * T[k - 1] - a2 * T[k - 2] - a1 * T[k - 3] - a0 * T[k - 4])
    return T


def _square(X, q: UnitSpec) -> list[int]:
    """q^2 mod p in the power basis, for X = q(M): X applied to q's
    coefficients."""
    q0, q1, q2, q3 = q.coeffs()
    return [x0 * q0 + x1 * q1 + x2 * q2 + x3 * q3 for x0, x1, x2, x3 in X]


def _charpoly(X, q: UnitSpec, T) -> QuarticPoly:
    """det(t I - X) of X = q(M), exactly, from the power sums T of p.

    The eigenvalues of X are the q(u_j), so s_k = tr X^k = Tr(q^k).  With
    r = q^2 mod p and the trace form H: s1 = q.T, s2 = r.T, s3 = q^T H r
    and s4 = r^T H r: about 50 integer products besides X's 12.  Newton's
    identities k e_k = sum_{i=1..k} (-1)^(i-1) e_(k-i) s_i then give the
    elementary symmetric functions of the eigenvalues; each division by k is
    exact, since det(t I - X) has integer coefficients.
    """
    q0, q1, q2, q3 = q.coeffs()
    r0, r1, r2, r3 = _square(X, q)
    h0, h1, h2, h3 = (t0 * r0 + t1 * r1 + t2 * r2 + t3 * r3
                      for t0, t1, t2, t3 in (T[0:4], T[1:5], T[2:6], T[3:7]))
    s1 = T[0] * q0 + T[1] * q1 + T[2] * q2 + T[3] * q3
    s2 = h0  # r.T: the first row of H is T_0..T_3
    s3 = q0 * h0 + q1 * h1 + q2 * h2 + q3 * h3
    s4 = r0 * h0 + r1 * h1 + r2 * h2 + r3 * h3
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
        if not all(isinstance(v, int) for v in self.coeffs()):
            raise ValueError("coefficients must be integers")

    def coeffs(self) -> tuple[int, int, int, int]:
        return (self.a0, self.a1, self.a2, self.a3)

    def __call__(self, x):
        a0, a1, a2, a3 = self.coeffs()
        return (((x + a3) * x + a2) * x + a1) * x + a0

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
        if not all(isinstance(v, int) for v in self.coeffs()):
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


def _sturm(p: QuarticPoly) -> tuple[int, int]:
    """(distinct real roots, distinct roots) of p, exactly.

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

    return sign_changes(True) - sign_changes(False), 5 - len(chain[-1])


def _real_roots(p: QuarticPoly) -> tuple[int, int]:
    """(distinct real roots, distinct roots) of p, exactly.

    Write p = t^4 + b t^3 + c t^2 + d t + e.  When its discriminant disc is
    nonzero the roots are distinct, and three integer signs count the real
    ones: two when disc < 0, and when disc > 0 four if P = 8 c - 3 b^2 < 0
    and D = 64 e - 16 c^2 + 16 b^2 c - 16 b d - 3 b^4 < 0, none otherwise
    (Rees, Amer. Math. Monthly 29, 1922; Lazard, J. Symbolic Comput. 5,
    1988).  disc takes its sign from 27 disc = 4 I^3 - J^2, with I and J
    the invariants of p.  disc = 0, a repeated root, is left to the Sturm
    chain (`_sturm`).
    """
    e, d, c, b = p.coeffs()
    I = c * c - 3 * b * d + 12 * e
    J = (2 * c * c - 9 * b * d - 72 * e) * c + 27 * (b * b * e + d * d)
    disc = 4 * I**3 - J * J
    if disc < 0:
        return 2, 4
    if disc > 0:
        bb = b * b
        P = 8 * c - 3 * bb
        D = 64 * e - 16 * c * c + 16 * bb * c - 16 * b * d - 3 * bb * bb
        return (4 if P < 0 and D < 0 else 0), 4
    return _sturm(p)


def is_totally_real(p: QuarticPoly) -> bool:
    """Whether every root of p is real, repeated roots included; exact
    (`_real_roots`: three integer signs when the discriminant is nonzero,
    the Sturm chain when p has a repeated root)."""
    real, distinct = _real_roots(p)
    return real == distinct


def _laguerre(c, y: float) -> float:
    """The root of y^4 + c3 y^3 + c2 y^2 + c1 y + c0, c = (c0, c1, c2, c3),
    nearest a start y beyond all of its roots, which must be real.

    Laguerre's iteration then moves monotonically towards that root (Press et
    al., Numerical Recipes, 9.5): cubically at a simple root, and at a
    cluster linearly, each step dividing the distance by at least 3.  It
    stops where rounding stalls or reverses the step.  The step
    4 p / (p' +- sqrt(3 (3 p'^2 - 4 p p''))) is Laguerre's
    n / (G +- sqrt((n - 1)(n H - G^2))) multiplied through by p, which
    cannot overflow on coefficients of at most 1 and |y| <= 2.
    """
    c0, c1, c2, c3 = c
    toward = -1.0 if y > 0 else 1.0
    while True:
        p = (((y + c3) * y + c2) * y + c1) * y + c0
        dp = ((4.0 * y + 3.0 * c3) * y + 2.0 * c2) * y + c1
        d2p = (12.0 * y + 6.0 * c3) * y + 2.0 * c2
        denom = dp + math.copysign(math.sqrt(max(0.0, 3.0 * (3.0 * dp * dp - 4.0 * p * d2p))), dp)
        if p == 0.0 or denom == 0.0:
            return y
        nxt = y - 4.0 * p / denom
        if not (nxt - y) * toward > 0.0:  # stalled, reversed, or NaN
            return y
        y = nxt


def _root_estimates(p: QuarticPoly) -> list[float]:
    """Estimates of the roots of a totally real p, in descending order, for
    `_polish`.  p is first scaled exactly, t = 2^k y, so that the quartic in
    y has coefficients of at most 1 and its roots lie in |y| < 2.
    Laguerre's iteration from +-(1 + max |c_i|) gives the two extreme roots.
    The quadratic cofactor then comes from two deflations, each in its
    stable direction (Peters and Wilkinson, J. Inst. Maths Applics 8, 1971):
    backward by the extreme root of larger modulus, then forward by the
    other when its modulus is at most the geometric mean of the two left's,
    backward otherwise.  Its roots are the middle two.  Int-by-int division
    rounds each scaled coefficient correctly, so no coefficient overflows
    here; a root beyond the float range raises OverflowError.
    """
    coeffs = p.coeffs()
    k = max((abs(a).bit_length() + 3 - i) // (4 - i) for i, a in enumerate(coeffs))
    c = [a / (1 << k * (4 - i)) for i, a in enumerate(coeffs)]
    c0, c1, c2, _ = c
    start = 1.0 + max(map(abs, c))
    top, bottom = _laguerre(c, start), _laguerre(c, -start)
    big, other = (top, bottom) if abs(top) >= abs(bottom) else (bottom, top)
    if big == 0.0:  # p = t^4
        return [0.0] * 4
    # p = (y - big)(y^3 + d2 y^2 + d1 y + d0), backward from the constant term
    d0 = -c0 / big
    d1 = (d0 - c1) / big
    d2 = (d1 - c2) / big
    # the cubic = (y - other)(y^2 + b y + e); |d0| = |other| * |e|
    if abs(other) ** 3 <= abs(d0):
        b = d2 + other
        e = d1 + other * b
    else:
        e = -d0 / other
        b = (e - d1) / other
    q = -0.5 * (b + math.copysign(math.sqrt(max(0.0, b * b - 4.0 * e)), b))
    middle = (q, e / q if q else 0.0)
    return sorted((math.ldexp(y, k) for y in (top, *middle, bottom)), reverse=True)


def _value(p: QuarticPoly, n: int, d: int) -> int:
    """d^4 p(n / d) for ints n and d > 0: an int with the sign of p at n/d."""
    a0, a1, a2, a3 = p.coeffs()
    d2 = d * d
    return (((n + a3 * d) * n + a2 * d2) * n + a1 * d2 * d) * n + a0 * d2 * d2


def _polish(p: QuarticPoly, x: float) -> float:
    """p's root rounded to nearest, from an estimate x, or ValueError.

    Newton's method runs in exact arithmetic: on the dyadic x = n / d,
    d^4 p(x) and d^3 p'(x) are ints, and each step is one correctly rounded
    int/int division, so no cancellation in p(x) can overflow or stall it.
    It returns x where p(x) = 0, and otherwise stops where p'(x) = 0, when
    an iterate repeats, or after 64 steps.  Then a proof, on ints too: let
    y be x's float neighbour on the side that Newton's step from x points
    to, and m the dyadic midpoint of x and y.  A sign change of p between x
    and m puts a root strictly nearer to x than to any other float, so x is
    that root rounded to nearest; one between y and m (or p(y) = 0) proves
    y the same way.  Otherwise it raises "a root that floats cannot
    resolve": two roots, or none, lie within the half-ulp, or Newton
    stopped short.
    """
    _, a1, a2, a3 = p.coeffs()
    seen = set()
    while True:
        n, d = x.as_integer_ratio()
        v = _value(p, n, d)
        if not v:
            return x
        d2 = d * d
        dv = ((4 * n + 3 * a3 * d) * n + 2 * a2 * d2) * n + a1 * d2 * d
        if not dv:
            break
        seen.add(x)
        step = (n * dv - v) / (d * dv)
        if step in seen or len(seen) == 64:
            break
        x = step
    y = math.nextafter(x, math.inf if (v < 0) == (dv > 0) else -math.inf)
    m, e = y.as_integer_ratio()
    if e > d:
        n, d = n * (e // d), e
    else:
        m *= d // e
    mid = _value(p, n + m, 2 * d)  # the sign of p at (x + y) / 2
    if mid and (mid > 0) != (v > 0):
        return x
    w = _value(p, m, d)
    if not w or mid and (mid > 0) != (w > 0):
        return y
    raise ValueError("a root that floats cannot resolve")


def _roots(p: QuarticPoly) -> list[float]:
    """The four roots of a totally real p, each rounded to nearest, in
    strictly decreasing order: `_root_estimates` each `_polish`ed on p.  A
    call that returns has proved four distinct real roots.  Raises
    ValueError when a coefficient of p or a root is beyond the float range,
    when `_polish` cannot prove a root, or when two proven roots are the
    same float ("distinct roots that floats cannot separate")."""
    if max(map(abs, p.coeffs())) > sys.float_info.max:
        raise ValueError("coefficients beyond the float range")
    try:
        u = [_polish(p, x) for x in _root_estimates(p)]
    except OverflowError:
        raise ValueError("roots beyond the float range") from None
    if not u[0] > u[1] > u[2] > u[3]:
        raise ValueError("distinct roots that floats cannot separate")
    return u


def roots(p: QuarticPoly) -> list[float]:
    """The roots of p, each rounded to nearest, in decreasing order
    (`_roots`).

    Raises when p is not totally real or has a repeated root, both decided
    exactly by `_real_roots` (the signs of the discriminant, P and D, or
    the Sturm chain when the discriminant is 0), and when `_roots` cannot
    prove four distinct float roots.  `certify_lattice` decides
    separability exactly (irreducible implies separable) and calls `_roots`
    directly.
    """
    real, distinct = _real_roots(p)
    if real != distinct:
        raise ValueError("polynomial is not totally real (complex roots)")
    if distinct < 4:
        raise ValueError("repeated roots")
    return _roots(p)


def unit_matrix(p: QuarticPoly, q: UnitSpec):
    """Exact integer matrix q(M) of multiplication by q(u) on Z[u].  Raises
    when |det q(M)|, the constant term of `_charpoly`, is not 1: q(u) is not
    a unit of the order.  p itself is not validated."""
    X = _mul_matrix(p, q)
    det = _charpoly(X, q, _power_sums(p)).a0
    if det not in (1, -1):
        raise ValueError(f"q(u) is not a unit (|det| = {abs(det)})")
    return X


def poly_square_mod(q: UnitSpec, p: QuarticPoly) -> UnitSpec:
    """The square of a unit, reduced mod p back to the power basis: q(M)
    applied to the coefficients of q."""
    return UnitSpec(*_square(_mul_matrix(p, q), q))


def _smallest(row) -> int:
    """Index of the conjugate of least magnitude in a row of q_i(u_j), the
    first one on ties."""
    magnitudes = [abs(v) for v in row]
    return magnitudes.index(min(magnitudes))


# The regulator of three independent units of a totally real quartic field
# is a positive integer multiple of its regulator R_K, and R_K > 0.2052 for
# every number field (Friedman, Analytic formulas for the regulator of a
# number field, Invent. Math. 98, 1989): 0 or at least this.
_REGULATOR_FLOOR = 0.2052


def mult_independence(p: QuarticPoly, units) -> dict:
    """The regulator of three units, |det L[:, :3]| for the log embedding
    L[i, j] = log|q_i(u_j)|, and with it their independence.

    Each row of L sums to 0 (the norm is +-1), so any three columns give
    the same |det|: 0 exactly when the units are dependent, and otherwise at
    least `_REGULATOR_FLOOR`.  The float value is compared with half the
    floor, so no error below 0.1 changes the verdict.  Raises ValueError
    unless there are three units.  p must be irreducible and totally real
    and each q_i(u) a unit, as `certify_lattice` decides exactly.  The roots
    are `_roots`, each proven to be p's root rounded to nearest; a root that
    floats cannot resolve or separate raises ValueError.  A unit's smallest
    conjugate can cancel to 0.0 in floats, so its log is minus the sum of
    the others'; a zero among those raises, as does a value beyond the
    float range.  The report also carries, as lists, the roots, L and the
    float values Q[i, j] = q_i(u_j), each row's smallest included.
    """
    if len(units) != 3:
        raise ValueError(f"independence needs three units, got {len(units)}")
    u = _roots(p)
    try:
        Q = [[q(x) for x in u] for q in units]
    except OverflowError:
        raise ValueError("unit coefficients beyond the float range") from None
    L = []
    for row in Q:
        if not all(map(math.isfinite, row)):
            raise ValueError("unit value beyond the float range")
        k = _smallest(row)
        if any(abs(v) < 1e-300 for j, v in enumerate(row) if j != k):
            raise ValueError("unit vanishes at an embedding")
        logs = [0.0 if j == k else math.log(abs(v)) for j, v in enumerate(row)]
        logs[k] = -(((logs[0] + logs[1]) + logs[2]) + logs[3])
        L.append(logs)
    (a0, a1, a2, _), (b0, b1, b2, _), (c0, c1, c2, _) = L
    regulator = abs(a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0)
                    + a2 * (b0 * c1 - b1 * c0))
    return {
        "independent": regulator > _REGULATOR_FLOOR / 2,
        "regulator": regulator,
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
    """Certify p with exactly three units (ValueError otherwise), recording
    failed checks.  Exact checks: p irreducible and totally real with unit
    constant term; for each unit matrix X = q(M), from the characteristic
    polynomial of X (`_charpoly`, on the power sums of p computed once),
    |det X| = 1 (q(u) is a unit), det X = +1 and a positive spectrum (the
    coefficients alternate in sign).

    `integral`, `commute` and `diagonalized` hold by construction: each X
    is an integer polynomial in the one companion matrix M, so the X commute
    exactly, and the eigenvalues of M are distinct (irreducible implies
    separable) and real, so the root Vandermonde V, rows (1, u_j, u_j^2,
    u_j^3), diagonalizes every X: V X = diag(q(u)) V (Cohen, 4.1); the tests
    recompute that residual from `roots`, `matrices` and `spectra`.  Each
    row of `spectra` holds the float values q(u_j), its smallest taken as
    det X / prod of the others, since it can cancel to 0.0 in floats.

    Multiplicative independence is the one float decision, on the units'
    `regulator` (`mult_independence`).  A ValueError from that pass fails
    the certificate with its message as the reason; others propagate.
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
        T = _power_sums(p)
        mats = [_mul_matrix(p, q) for q in units]
        chars = [_charpoly(X, q, T) for X, q in zip(mats, units)]
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
    for row, chi in zip(indep["values"], chars):
        # the smallest conjugate can cancel to 0.0: take it from the norm
        k = _smallest(row)
        others = row[:k] + row[k + 1:]
        row[k] = chi.a0 / (others[0] * others[1] * others[2])
    cert.roots, cert.spectra = indep["roots"], indep["values"]
    checks["independent"] = indep["independent"]
    checks["regulator"] = indep["regulator"]
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
