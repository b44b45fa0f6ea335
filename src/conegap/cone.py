"""The canonical complexified cone in C^n and its projective geometry.

Members are vectors x with Re(x_i conj(x_j)) >= 0 for every coordinate
pair, a property of one vector: member_closed is the one rule that decides
it, and every entry point checks each vector argument with it. The module
provides the membership test, the projective gauges alpha and beta together
with the metric they induce, the cone pre-order with a sampled counterpart,
a real-orthant oracle for the metric, and a random member sampler. The pair
extrema phi and Phi behind all of these are evaluated as arrays over the
pairs p <= q, bit-identical to the scalar core2x2 formulas (the test oracle).
"""

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .core2x2 import DEFAULT_TOL

__all__ = [
    "as_vector",
    "member_closed",
    "beta",
    "alpha",
    "DistanceResult",
    "distance",
    "preorder_geq",
    "preorder_sample_check",
    "hilbert_distance",
    "random_member",
]


def as_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=complex)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("expected a nonempty 1-D vector")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    return v


def _norm2(v: np.ndarray) -> float:
    return float(np.vdot(v, v).real)


def _closed(v: np.ndarray, tol: float) -> bool:
    # member_closed on a vector that as_vector has already checked.
    # Bring the largest part near 1 so the products below neither overflow nor
    # underflow; a power of two scales them and ||v||^2 exactly, and the test
    # is invariant under positive scaling
    e = -math.frexp(float(np.maximum(abs(v.real), abs(v.imag)).max()))[1]
    if e > 1000:  # 2^e overflows for a largest part below 2^-1024; lifting in two steps is exact
        v, e = v * 2.0 ** 1000, e - 1000
    v = v * math.ldexp(1.0, e)
    # smallest Re(v_i conj(v_j)); the diagonal contributes |v_i|^2 >= 0
    return float(np.multiply.outer(v, v.conj()).real.min()) >= -tol * _norm2(v)


def member_closed(x, tol: float = DEFAULT_TOL) -> bool:
    """True iff Re(x_i conj(x_j)) >= -tol * ||x||^2 for all coordinate pairs.

    The one membership rule: a property of x alone, and scale-free, since
    x -> c x multiplies both sides by |c|^2. Nothing checks pairs of vectors.
    """
    return _closed(as_vector(x), tol)


def _require_member(v: np.ndarray, name: str, tol: float) -> None:
    """Raise ValueError unless v, already through as_vector, is a nonzero closed member."""
    if _norm2(v) == 0.0:
        raise ValueError(f"{name} must be nonzero")
    if not _closed(v, tol):
        raise ValueError(f"{name} is not a member of the closed cone")


def _validated_pair(x, y, tol: float):
    vx, vy = as_vector(x), as_vector(y)
    if vx.shape != vy.shape:
        raise ValueError("vectors must have the same length")
    _require_member(vx, "x", tol)
    _require_member(vy, "y", tol)
    return vx, vy


@functools.lru_cache(maxsize=32)
def _pair_index(n: int, k: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(n, k), built once per (n, k): the coordinate pairs p <= q
    (k = 0) or p < q (k = 1) in row-major order.

    The pair gauges take k = 0, the block sweep k = 1 for its row and column
    pairs. Every caller shares the two arrays, so they are read-only.
    """
    p, q = np.triu_indices(n, k)
    p.flags.writeable = q.flags.writeable = False
    return p, q


def _gauges(x: np.ndarray, y: np.ndarray, tol: float):
    """phi and Phi of the pair matrices in both orders, as (lo, hi) of shape (2, n(n+1)/2).

    Row 0 holds [[x_p, x_q], [y_p, y_q]], row 1 the swapped [[y_p, y_q],
    [x_p, x_q]]; columns are the pairs p <= q in _pair_index order. Nothing
    here checks the domain: callers pass vectors that member_closed, the one
    membership rule, accepted. Each value repeats core2x2.phi/Phi (which check
    their own 2x2 rows) operation for operation, so it is bit-identical to
    them: complex products in CPython's order, hypot for moduli as in
    abs(complex), and squares as core2x2 takes them, each hypot modulus times
    itself. Swapping the rows ([::-1]) negates ad - bc and Im(a conj(d) +
    b conj(c)) exactly, since fl(u - v) = -fl(v - u), so |ad - bc| and the
    cross term serve both orders. So do the squared Frobenius norm, the
    margin, both rank tests and the first-column test: frob2's sum
    (|a|^2 + |d|^2) + (|b|^2 + |c|^2) commutes under the row swap. Only
    Re(a conj(b)) and the rank-one modulus are per row. Raises only
    OverflowError, as phi/Phi do: where a square is infinite (past |z| ~
    1.34e154), and else where |ad - bc| is.
    """
    p, q = _pair_index(x.size)
    z = np.array([x, y])
    with np.errstate(all="ignore"):
        m = np.hypot(z.real, z.imag)
        sq = m * m
        if np.isinf(sq).any():
            raise OverflowError("squared modulus too large")
        # a = x_p, b = x_q in row 0 over c = y_p, d = y_q in row 1
        pr, pi, qr, qi = z.real[:, p], z.imag[:, p], z.real[:, q], z.imag[:, q]
        sqp, sqq, mp, mq = sq[:, p], sq[:, q], m[:, p], m[:, q]
        re = pr * qr + pi * qi  # Re(a conj b) over Re(c conj d)
        rr, ii = pr * qr[::-1], pi * qi[::-1]  # a_r d_r, a_i d_i over c_r b_r, c_i b_i
        ri, ir = pr * qi[::-1], pi * qr[::-1]  # a_r d_i, a_i d_r over c_r b_i, c_i b_r
        re_ad, im_ad = rr - ii, ri + ir  # ad over cb
        det_r, det_i = re_ad[0] - re_ad[1], im_ad[0] - im_ad[1]
        dmod = np.hypot(det_r, det_i)
        if np.any(np.isinf(dmod) & np.isfinite(det_r) & np.isfinite(det_i)):
            raise OverflowError("absolute value too large")
        # |a conj(d) + b conj(c)| + |ad - bc|, from a conj(d) over c conj(b) = conj(b conj(c))
        re_adc, im_adc = rr + ii, ir - ri
        ssum = np.hypot(re_adc[0] + re_adc[1], im_adc[0] - im_adc[1]) + dmod
        f2 = (sqp[0] + sqq[1]) + (sqq[0] + sqp[1])
        s = tol * f2
        # rank one: the constant modulus |a/c|, or |b/d| when the first column carries no mass
        first = sqp[0] + sqp[1] > s
        num, den = np.where(first, mp, mq), np.where(first, mp[::-1], mq[::-1])
        one = np.where(den == 0.0, np.inf, num / den)
        rank2, rank1 = dmod > s, f2 > tol * tol
        lo = np.where(rank2, np.where(re <= 0.0, 0.0, 2.0 * re / ssum), np.where(rank1, one, np.inf))
        hi = np.where(rank2, np.where(re[::-1] <= 0.0, np.inf, ssum / (2.0 * re[::-1])),
                      np.where(rank1, one, 0.0))
    return lo, hi


def _sup(hi: np.ndarray) -> float:
    # fmax skips NaN, as the scalar running maximum does
    return float(np.fmax.reduce(hi, initial=0.0))


def beta(x, y, tol: float = DEFAULT_TOL) -> float:
    """Least t with x <= t y in the cone order: sup of Phi over coordinate pairs.

    The pair (p, q) contributes Phi([[x_p, x_q], [y_p, y_q]]); the diagonal
    pair p = q contributes |x_p / y_p|. The value +inf is a valid result,
    meaning no finite multiple of y dominates x.
    """
    return _sup(_gauges(*_validated_pair(x, y, tol), tol)[1][0])


def alpha(x, y, tol: float = DEFAULT_TOL) -> float:
    """Greatest t with t y <= x: inf of phi over coordinate pairs. Dual to beta."""
    return float(np.fmin.reduce(_gauges(*_validated_pair(x, y, tol), tol)[0][0], initial=math.inf))


@dataclass(frozen=True)
class DistanceResult:
    beta_xy: float
    beta_yx: float
    distance: float


def distance(x, y, tol: float = DEFAULT_TOL) -> DistanceResult:
    """Projective metric d(x, y) = log(beta(x, y) beta(y, x)).

    Zero exactly on complex-projectively equal members; +inf when either
    gauge is infinite (boundary members with mismatched supports).
    """
    _, (hi_xy, hi_yx) = _gauges(*_validated_pair(x, y, tol), tol)
    bxy, byx = _sup(hi_xy), _sup(hi_yx)
    if math.isinf(bxy) or math.isinf(byx):
        d = math.inf
    else:
        d = max(0.0, math.log(bxy * byx))
    return DistanceResult(bxy, byx, d)


def preorder_geq(x, y, tol: float = DEFAULT_TOL) -> bool:
    """True iff x dominates y in the cone pre-order, i.e. beta(y, x) <= 1 + tol."""
    return beta(y, x, tol) <= 1.0 + tol


def preorder_sample_check(
    x, y, n_alpha: int = 360, radius: float = 0.999, tol: float = DEFAULT_TOL
) -> bool:
    """Sampled counterpart of preorder_geq.

    Checks x - a y is a nonzero member of the closed cone for n_alpha values
    of a on the circle |a| = radius < 1. Domination guarantees this for every
    |a| < 1, so a True from preorder_geq must never meet a False here.
    """
    vx, vy = _validated_pair(x, y, tol)
    if not (0.0 <= radius < 1.0):
        raise ValueError("radius must lie in [0, 1)")
    if n_alpha < 1:
        raise ValueError("need at least one sample")
    for k in range(n_alpha):
        a = radius * cmath.exp(2j * math.pi * k / n_alpha)
        z = vx - a * vy
        if _norm2(z) == 0.0 or not member_closed(z, tol):
            return False
    return True


def hilbert_distance(x, y) -> float:
    """Classical orthant metric log(max_i x_i/y_i / min_i x_i/y_i) for positive real vectors.

    Oracle for distance() on real positive pairs; the two agree to roundoff.
    """
    vx = np.asarray(x)
    vy = np.asarray(y)
    out = []
    for v in (vx, vy):
        if np.iscomplexobj(v):
            if np.any(v.imag != 0.0):
                raise ValueError("entries must be real")
            v = v.real
        v = np.asarray(v, dtype=float)
        if v.ndim != 1 or v.size == 0 or not np.all(np.isfinite(v)):
            raise ValueError("expected a nonempty finite 1-D vector")
        if np.any(v <= 0.0):
            raise ValueError("entries must be positive")
        out.append(v)
    vx, vy = out
    if vx.shape != vy.shape:
        raise ValueError("vectors must have the same length")
    ratios = vx / vy
    return float(np.log(ratios.max() / ratios.min()))


def random_member(rng: "np.random.Generator", n: int, interior: bool = False) -> np.ndarray:
    """Random member of the closed cone.

    Draws orthant parts u1, u2 and a uniform phase lam, then assembles
    (lam / 2)((1 + i) u1 + (1 - i) u2), which ranges over the whole cone.
    With interior=True the parts stay away from 0 so the member is strict.
    n must be at least 1: the empty vector has no nonzero member to draw.
    """
    if n < 1:
        raise ValueError(f"a random member needs n >= 1, got {n}")
    lo = 0.1 if interior else 0.0
    while True:
        u1 = rng.uniform(lo, 1.0, n)
        u2 = rng.uniform(lo, 1.0, n)
        lam = cmath.exp(2j * math.pi * rng.random())
        v = 0.5 * lam * ((1.0 + 1.0j) * u1 + (1.0 - 1.0j) * u2)
        if _norm2(v) > 1e-12:
            return v
