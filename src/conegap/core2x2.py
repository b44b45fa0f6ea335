"""Scalar formulas on 2x2 complex matrices.

A matrix M = [[a, b], [c, d]] acts as the Moebius map z -> (a z + b)/(c z + d)
on the closed right half-plane. This module computes everything attached to
that action: membership in the contraction classes (open, closed,
theta-bounded), the contraction numbers d1..d4, the projective extrema phi
and Phi, and the rate functions delta1 and eta1.

All strict comparisons use one tolerance, taken relative to the squared
Frobenius norm of the matrix, so every predicate is scale-free. A squared
modulus is abs(z) * abs(z), the hypot modulus squared by multiplication, and
raises OverflowError where it is infinite (past |z| ~ 1.34e154). The norm
sums them as (|a|^2 + |d|^2) + (|b|^2 + |c|^2), the same bits under
transposition and row or column swap since fl addition commutes; certify
and cone square and sum the same way, so they match bit for bit.
Degenerate subexpressions evaluate to +inf rather than raising; products of 0
and inf never arise in the formulas below.
"""

import math
from dataclasses import dataclass

DEFAULT_TOL = 1e-12
ROW_CONE_ERROR = "rows must lie in the closed planar cone: need Re(a conj(b)) >= 0 and Re(c conj(d)) >= 0"

__all__ = [
    "DEFAULT_TOL",
    "Complex2x2",
    "DeltaQuadruple",
    "as_mat2",
    "in_gamma_open",
    "in_gamma_closed",
    "theta2",
    "deltas",
    "phi",
    "Phi",
    "rank_of",
    "delta1",
    "eta1",
    "refined_rate",
    "diameter_bound",
]


def _square(x: float) -> float:
    """x * x for a modulus x; OverflowError where that is infinite, as x ** 2 raises."""
    s = x * x
    if s == math.inf:
        raise OverflowError("squared modulus too large")
    return s


def _require_finite(z: complex, what: str) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{what} must be finite, got {z!r}")
    return z


@dataclass(frozen=True)
class Complex2x2:
    """Row-major 2x2 complex matrix [[a, b], [c, d]] with finite entries."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        for name in "abcd":
            object.__setattr__(self, name, _require_finite(getattr(self, name), f"entry {name}"))

    @classmethod
    def from_rows(cls, rows) -> "Complex2x2":
        (a, b), (c, d) = rows
        return cls(complex(a), complex(b), complex(c), complex(d))

    @property
    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    def frob2(self) -> float:
        """Squared Frobenius norm, the scale for all relative tolerances.

        Summed as (|a|^2 + |d|^2) + (|b|^2 + |c|^2): fl addition commutes, so
        the transpose and either swap give the same bits.
        """
        return (_square(abs(self.a)) + _square(abs(self.d))) + (_square(abs(self.b)) + _square(abs(self.c)))

    def transpose(self) -> "Complex2x2":
        return Complex2x2(self.a, self.c, self.b, self.d)


def as_mat2(M) -> Complex2x2:
    """Coerce a Complex2x2 or any 2x2 row-major nest of numbers."""
    if isinstance(M, Complex2x2):
        return M
    return Complex2x2.from_rows(M)


def _re_products(M: Complex2x2):
    re_ab = (M.a * M.b.conjugate()).real
    re_ac = (M.a * M.c.conjugate()).real
    re_bd = (M.b * M.d.conjugate()).real
    re_cd = (M.c * M.d.conjugate()).real
    return re_ab, re_ac, re_bd, re_cd


def _denominator(M: Complex2x2) -> float:
    # Re(a conj(d) + b conj(c)), the denominator of the contraction ratio
    return (M.a * M.d.conjugate() + M.b * M.c.conjugate()).real


def in_gamma_open(M, tol: float = DEFAULT_TOL) -> bool:
    """Strict class membership.

    True iff Re(a conj(b)), Re(a conj(c)), Re(b conj(d)), Re(c conj(d)) are
    all positive and |ad - bc| < Re(a conj(d) + b conj(c)), with every strict
    inequality padded by tol * frob2.
    """
    M = as_mat2(M)
    s = tol * M.frob2()
    re_ab, re_ac, re_bd, re_cd = _re_products(M)
    if not (re_ab > s and re_ac > s and re_bd > s and re_cd > s):
        return False
    return abs(M.det) < _denominator(M) - s


def in_gamma_closed(M, tol: float = DEFAULT_TOL) -> bool:
    """Closed class membership: the non-strict version of in_gamma_open."""
    M = as_mat2(M)
    s = tol * M.frob2()
    re_ab, re_ac, re_bd, re_cd = _re_products(M)
    if not (re_ab >= -s and re_ac >= -s and re_bd >= -s and re_cd >= -s):
        return False
    return abs(M.det) <= _denominator(M) + s


def theta2(M) -> float | None:
    """Contraction ratio |ad - bc| / Re(a conj(d) + b conj(c)).

    Returns None when the denominator is not positive; in that case the
    matrix itself is the certification-failure witness.
    """
    M = as_mat2(M)
    r = _denominator(M)
    if r <= 0.0:
        return None
    return abs(M.det) / r


@dataclass(frozen=True)
class DeltaQuadruple:
    """The four contraction numbers d1 >= d2, d3 >= d4 >= 0 of a matrix."""

    d1: float
    d2: float
    d3: float
    d4: float

    def as_tuple(self):
        return (self.d1, self.d2, self.d3, self.d4)

    def sup(self, other: "DeltaQuadruple") -> "DeltaQuadruple":
        return DeltaQuadruple(
            max(self.d1, other.d1),
            max(self.d2, other.d2),
            max(self.d3, other.d3),
            max(self.d4, other.d4),
        )


def _log_ratio(s: float, dmod: float) -> float:
    # log((s + dmod)/(s - dmod)); nonpositive denominators are degenerate
    if s - dmod > 0.0:
        return math.log((s + dmod) / (s - dmod))
    return math.inf


def deltas(M) -> DeltaQuadruple:
    """Contraction numbers of the Moebius action of M.

    d1 = log((R + D)/(R - D))          with R = Re(a conj(d) + b conj(c)), D = |ad - bc|
    d2 = log((S2 + D)/(S2 - D))        with S2 = |a conj(d) + conj(b) c|
    d3 = log((S3 + D)/(S3 - D))        with S3 = |a conj(d) + b conj(c)|
    d4 = |log|ad / bc||

    Meaningful on the open class; outside it degenerate values become +inf.
    """
    M = as_mat2(M)
    dmod = abs(M.det)
    r = _denominator(M)
    s2 = abs(M.a * M.d.conjugate() + M.b.conjugate() * M.c)
    s3 = abs(M.a * M.d.conjugate() + M.b * M.c.conjugate())
    na = abs(M.a * M.d)
    nb = abs(M.b * M.c)
    if na > 0.0 and nb > 0.0:
        d4 = abs(math.log(na / nb))
    else:
        d4 = math.inf
    return DeltaQuadruple(_log_ratio(r, dmod), _log_ratio(s2, dmod), _log_ratio(s3, dmod), d4)


def rank_of(M, tol: float = DEFAULT_TOL) -> int:
    """2 if |det| > tol * frob2, else 1 if the Frobenius norm exceeds tol, else 0."""
    M = as_mat2(M)
    f2 = M.frob2()
    if abs(M.det) > tol * f2:
        return 2
    if f2 > tol * tol:
        return 1
    return 0


def _rank_one_value(M: Complex2x2, tol: float) -> float:
    # modulus of the constant value of a rank-one map: |a/c|, or |b/d| when
    # the first column carries no mass
    f2 = M.frob2()
    col1 = _square(abs(M.a)) + _square(abs(M.c))
    if col1 > tol * f2:
        num, den = abs(M.a), abs(M.c)
    else:
        num, den = abs(M.b), abs(M.d)
    if den == 0.0:
        return math.inf
    return num / den


def _check_row_cone(M: Complex2x2, tol: float) -> None:
    s = tol * M.frob2()
    re_ab = (M.a * M.b.conjugate()).real
    re_cd = (M.c * M.d.conjugate()).real
    if re_ab < -s or re_cd < -s:
        raise ValueError(ROW_CONE_ERROR)


def Phi(M, tol: float = DEFAULT_TOL) -> float:
    """Supremum of |(a z + b)/(c z + d)| over the closed right half-plane.

    Requires both rows of M in the closed planar cone. Rank 2 uses
    (|a conj(d) + b conj(c)| + |ad - bc|) / (2 Re(c conj(d))), which is +inf
    when the denominator vanishes; rank 1 is the constant modulus; the zero
    matrix gives 0.
    """
    M = as_mat2(M)
    _check_row_cone(M, tol)
    rk = rank_of(M, tol)
    if rk == 0:
        return 0.0
    if rk == 1:
        return _rank_one_value(M, tol)
    re_cd = (M.c * M.d.conjugate()).real
    if re_cd <= 0.0:
        return math.inf
    return (abs(M.a * M.d.conjugate() + M.b * M.c.conjugate()) + abs(M.det)) / (2.0 * re_cd)


def phi(M, tol: float = DEFAULT_TOL) -> float:
    """Infimum of |(a z + b)/(c z + d)| over the closed right half-plane.

    Same domain as Phi. Rank 2 uses 2 Re(a conj(b)) / (|a conj(d) + b conj(c)|
    + |ad - bc|); rank 1 is the constant modulus; the zero matrix gives +inf
    (empty image, infimum over nothing).
    """
    M = as_mat2(M)
    _check_row_cone(M, tol)
    rk = rank_of(M, tol)
    if rk == 0:
        return math.inf
    if rk == 1:
        return _rank_one_value(M, tol)
    re_ab = (M.a * M.b.conjugate()).real
    if re_ab <= 0.0:
        return 0.0
    den = abs(M.a * M.d.conjugate() + M.b * M.c.conjugate()) + abs(M.det)
    return 2.0 * re_ab / den


def delta1(theta: float) -> float:
    """Projective diameter bound log((1 + theta)/(1 - theta)); +inf at theta >= 1."""
    theta = float(theta)
    if theta < 0.0 or math.isnan(theta):
        raise ValueError("theta must be nonnegative")
    if theta >= 1.0:
        return math.inf
    return math.log((1.0 + theta) / (1.0 - theta))


def eta1(theta: float) -> float:
    """Contraction rate tanh((9/4) delta1(theta)); exactly 0 at theta = 0, 1 at theta >= 1."""
    d = delta1(theta)
    if math.isinf(d):
        return 1.0
    return math.tanh(2.25 * d)


def refined_rate(dq: DeltaQuadruple) -> float:
    """Sharper contraction rate tanh(d1 + d2/2 + d3/2 + d4/4)."""
    return math.tanh(dq.d1 + 0.5 * dq.d2 + 0.5 * dq.d3 + 0.25 * dq.d4)


def diameter_bound(dq: DeltaQuadruple) -> float:
    """Bound 4 d1 + 2 d2 + 2 d3 + d4 on the projective diameter of the image cone."""
    return 4.0 * dq.d1 + 2.0 * dq.d2 + 2.0 * dq.d3 + dq.d4
