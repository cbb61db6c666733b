"""Exterior algebra on a 7-dimensional oriented inner-product space.

A k-form is one float vector over the C(7, k) increasing index tuples of
degree k, in `itertools.combinations(range(1, 8), k)` order (`BASIS[k]`).
The basis covectors e^1..e^7 are orthonormal and e^1234567 is the unit
volume form, so every operation is a fixed linear map built once from index
tables: wedge an index-and-sign table per degree pair, the Hodge star a
signed permutation per degree, e^v ^ (.) a signed 0/1 matrix whose transpose
is the interior product, and theta(D) = -sum D[k, m] e^m ^ i(e_k).

`_to_unit` and `_scaled` are the package's one scale rule: a value is held
as 2^e times its unit-scale value, decided on there and scaled back.

`KForm(degree, {I: c})` is the validated entry point; `.coeffs` is a
read-only {I: c} view that leaves out entries of size at most `TOL.prune`.
Wedging past top degree returns the zero 7-form rather than raising; this
keeps derivations and antiderivations uniform at the boundary.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import combinations
from types import MappingProxyType

import numpy as np

from .config import TOL

DIM = 7
_FULL = tuple(range(1, DIM + 1))
BASIS = tuple(tuple(combinations(_FULL, k)) for k in range(DIM + 1))
_INDEX = tuple({I: n for n, I in enumerate(b)} for b in BASIS)


def _to_unit(x):
    """(u, e) with x = 2^e u and the largest |u| in [1/2, 1) (e = 0 for
    x = 0), exact but for underflow (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., Sec. 2.1): the one scale rule.  Verdicts
    are decided on u, and a magnitude of degree k is scaled back by
    `_scaled(value, k e)`.  Raises ValueError for inf or NaN, which would
    pass every comparison with a bound."""
    largest = float(np.abs(x).max(initial=0.0))
    if not math.isfinite(largest):
        raise ValueError("entries must be finite")
    e = math.frexp(largest)[1]
    return np.ldexp(x, -e), e


def _scaled(x, k: int):
    """x 2^k for a float or array x taken at unit scale (`_to_unit`), x
    itself when k = 0; raises ValueError, not a numpy warning, when that
    leaves the float range.  The reports' unit-scale values stay below
    2^16, so an array can only leave it, and is searched for its largest
    entry, when k exceeds 1000."""
    if k == 0:
        return x
    try:
        if isinstance(x, float):
            return math.ldexp(x, k)
        if k > 1000:
            math.ldexp(float(np.abs(x).max(initial=0.0)), k)
        return np.ldexp(x, k)
    except OverflowError:
        raise ValueError(f"a value 2^{k} times its unit-scale one leaves the float range "
                         "(about 1.8e308)") from None


def _norm(u: np.ndarray) -> float:
    """sqrt(u . u) of a vector u taken at unit scale (`_to_unit`), where
    its squares lie far from both ends of the float range: the package's
    one norm.  `ndarray.dot` calls the same BLAS dot as `@`, with less of
    numpy's per-call overhead."""
    return math.sqrt(u.dot(u))


def _sign(seq) -> int:
    """Sign of the permutation sorting a tuple of distinct integers."""
    return -1 if sum(a > b for a, b in combinations(seq, 2)) % 2 else 1


class KForm:
    """A k-form: its degree and its coefficient vector over BASIS[degree]."""

    __slots__ = ("degree", "vec")

    def __init__(self, degree: int, coeffs=None):
        if not 0 <= degree <= DIM:
            raise ValueError(f"degree must lie in 0..{DIM}, got {degree}")
        vec = np.zeros(len(BASIS[degree]))
        for I, c in (coeffs or {}).items():
            n = _INDEX[degree].get(tuple(int(i) for i in I))
            if n is None:
                raise ValueError(f"index {I} is not an increasing {degree}-tuple "
                                 f"from 1..{DIM}")
            vec[n] = float(c)
        self._set(degree, vec)

    def _set(self, degree: int, vec: np.ndarray):
        vec.flags.writeable = False
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "vec", vec)

    def __setattr__(self, name, value):
        raise AttributeError("KForm is immutable")

    @classmethod
    def _of(cls, degree: int, vec: np.ndarray) -> "KForm":
        out = cls.__new__(cls)
        out._set(degree, vec)
        return out

    @property
    def coeffs(self) -> MappingProxyType:
        basis = BASIS[self.degree]
        return MappingProxyType({basis[n]: c for n, c in enumerate(self.vec.tolist())
                                 if abs(c) > TOL.prune})

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "KForm") -> "KForm":
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        return KForm._of(self.degree, self.vec + other.vec)

    def __sub__(self, other: "KForm") -> "KForm":
        return self + (-other)

    def __neg__(self) -> "KForm":
        return KForm._of(self.degree, -self.vec)

    def __mul__(self, scalar: float) -> "KForm":
        return KForm._of(self.degree, float(scalar) * self.vec)

    __rmul__ = __mul__

    # -- queries -------------------------------------------------------------

    def norm(self) -> float:
        """sqrt(vec . vec), taken at unit scale (`_norm`) and scaled back, so
        it neither underflows nor overflows on the way and raises ValueError
        only when the norm itself leaves the float range."""
        u, e = _to_unit(self.vec)
        return _scaled(_norm(u), e)

    def scalar(self) -> float:
        """Coefficient of a 0- or 7-form as a plain number."""
        if self.degree not in (0, DIM):
            raise ValueError("scalar() only applies to degree 0 or 7")
        return float(self.vec[0])

    def __repr__(self):
        return f"KForm({self.degree}, {dict(self.coeffs)!r})"

    def __str__(self):
        return format_form(self)


def zero_form(degree: int) -> KForm:
    return KForm(degree)


@cache
def _wedge_table(k: int, l: int):
    """(out, left, right, sign) with e^I ^ e^J = sign e^K for disjoint I, J."""
    rows = []
    for o, K in enumerate(BASIS[k + l]):
        for I in combinations(K, k):
            J = tuple(x for x in K if x not in I)
            rows.append((o, _INDEX[k][I], _INDEX[l][J], _sign(I + J)))
    out, left, right, sign = np.array(rows, dtype=np.int64).reshape(-1, 4).T
    return out, left, right, sign.astype(float)


def wedge(alpha: KForm, beta: KForm) -> KForm:
    """Exterior product.  Degrees beyond 7 clamp to the zero 7-form."""
    deg = alpha.degree + beta.degree
    if deg > DIM:
        return zero_form(DIM)
    out, left, right, sign = _wedge_table(alpha.degree, beta.degree)
    terms = sign * alpha.vec[left] * beta.vec[right]
    return KForm._of(deg, np.bincount(out, terms, minlength=len(BASIS[deg])))


@cache
def _hodge_table(k: int):
    """(source, sign) with *e^I = sign e^J for each J of degree 7 - k."""
    src, sign = [], []
    for J in BASIS[DIM - k]:
        I = tuple(i for i in _FULL if i not in J)
        src.append(_INDEX[k][I])
        sign.append(_sign(I + J))
    return np.array(src), np.array(sign, dtype=float)


def hodge(alpha: KForm) -> KForm:
    """Hodge star for the orthonormal basis and volume form e^1234567.

    With this convention hodge(hodge(x)) == x in every degree (n = 7 odd).
    """
    src, sign = _hodge_table(alpha.degree)
    return KForm._of(DIM - alpha.degree, sign * alpha.vec[src])


@cache
def _covector_wedge(k: int) -> np.ndarray:
    """[E_1 .. E_7] side by side, E_v the matrix of e^v ^ (.) from k-forms to
    (k+1)-forms; the transpose of E_v is the interior product i(e_v)."""
    out, left, right, sign = _wedge_table(1, k)
    W = np.zeros((len(BASIS[k + 1]), DIM * len(BASIS[k])))
    W[out, left * len(BASIS[k]) + right] = sign
    return W


def inner(alpha: KForm, beta: KForm) -> float:
    """Pointwise inner product; basis monomials are orthonormal in each degree."""
    if alpha.degree != beta.degree:
        raise ValueError("inner product needs equal degrees")
    return float(alpha.vec @ beta.vec)


def theta(D, alpha: KForm) -> KForm:
    """Representation of gl acting on forms by the dual derivation.

    On covectors theta(D) e^k = -sum_m D[k, m] e^m, extended to all degrees
    as the derivation -sum_{k,m} D[k, m] e^m ^ i(e_k).  A 4x4 argument acts
    on e^3..e^6 only and leaves e^1, e^2, e^7 untouched; a 7x7 argument acts
    on the whole basis.
    """
    D = np.asarray(D, dtype=float)
    if D.shape == (4, 4):
        D, D4 = np.zeros((DIM, DIM)), D
        D[2:6, 2:6] = D4
    elif D.shape != (DIM, DIM):
        raise ValueError("theta expects a 4x4 or 7x7 matrix")
    if alpha.degree == 0:
        return zero_form(0)
    W = _covector_wedge(alpha.degree - 1)
    contractions = (W.T @ alpha.vec).reshape(DIM, -1)  # row k: i(e_k) alpha
    return KForm._of(alpha.degree, -(W @ (D.T @ contractions).ravel()))


def format_form(alpha: KForm) -> str:
    """Render as a signed monomial sum, e.g. '+1.000 e^{127} -2.000 e^{34}'."""
    coeffs = alpha.coeffs
    if not coeffs:
        return "0"
    parts = []
    for I, c in coeffs.items():
        label = "1" if I == () else "".join(str(i) for i in I)
        parts.append(f"{c:+.3f} e^{{{label}}}")
    return " ".join(parts)


# The fixed forms of the model structure.

PHI = KForm(3, {
    (1, 2, 7): 1.0,
    (3, 4, 7): 1.0,
    (5, 6, 7): 1.0,
    (1, 3, 5): 1.0,
    (1, 4, 6): -1.0,
    (2, 3, 6): -1.0,
    (2, 4, 5): -1.0,
})

PSI = hodge(PHI)
