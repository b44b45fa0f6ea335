"""Variational bounds on the leading eigenvalue modulus.

Every nonzero cone member x sandwiches |lambda_1| between alpha(Ax, x) = inf
phi and beta(Ax, x) = sup Phi over the pair matrices [[(Ax)_p, (Ax)_q], [x_p,
x_q]], read off cone's array gauges. Two closed forms (the best basis vector
and the all-ones vector) give cheap lower bounds, and running the bounds
along the power orbit tightens the sandwich at the certified rate.
"""

import math
from dataclasses import dataclass

import numpy as np

from .certify import ContractionCertificate, as_matrix
from .cone import _closed, _gauges, _norm2, _pair_index, _require_member, as_vector
from .core2x2 import DEFAULT_TOL
from .spectral import _orbit_step

__all__ = [
    "VariationalBounds",
    "bounds_at",
    "basis_lower_bound",
    "ones_lower_bound",
    "refine_bounds",
]


@dataclass
class VariationalBounds:
    """lower <= |lambda_1| <= upper, with the extremal coordinate pairs and the test vector."""

    lower: float
    upper: float
    argmin: tuple[int, int] | None
    argmax: tuple[int, int] | None
    test_vector: np.ndarray


def _square(A) -> np.ndarray:
    M = as_matrix(A)
    if M.shape[0] != M.shape[1]:
        raise ValueError("bounds need a square matrix")
    return M


def bounds_at(A, x, tol: float = DEFAULT_TOL) -> VariationalBounds:
    """Sandwich at one test vector: lower = inf phi, upper = sup Phi over pairs.

    x must be a nonzero member of the closed cone and A must map it back into
    the cone (any matrix with a closed or strict certificate does). The upper
    bound may be +inf on boundary test vectors; +inf never tightens the min,
    so the lower bound stays finite. argmin and argmax are the first pairs,
    in (p, q) order, that attain the bounds. For the left eigenvalue pass A.T.
    """
    M = _square(A)
    v = as_vector(x)
    if v.size != M.shape[0]:
        raise ValueError("test vector length must match the matrix")
    _require_member(v, "test vector", tol)
    y = as_vector(M @ v)  # rejects an image that overflowed
    if _norm2(y) != 0.0 and not _closed(y, tol):
        raise ValueError("matrix does not map the test vector into the cone")
    (lo, _), (hi, _) = _gauges(y, v, tol)
    p, q = _pair_index(v.size)
    # fmin/fmax skip NaN, as the scalar running extrema do; argmax gives the first hit
    lower = float(np.fmin.reduce(lo, initial=math.inf))
    upper = float(np.fmax.reduce(hi, initial=0.0))
    k = int(np.argmax(hi == upper))
    argmax = None if upper == 0.0 else (int(p[k]), int(q[k]))
    if math.isinf(lower):  # only possible when A x = 0 on the support of x
        return VariationalBounds(0.0, upper, None, argmax, v)
    k = int(np.argmax(lo == lower))
    return VariationalBounds(lower, upper, (int(p[k]), int(q[k])), argmax, v)


def basis_lower_bound(A) -> float:
    """Best standard-basis lower bound: max_i min_j Re(A[j,i] conj(A[i,i])) / |A[j,i]|.

    Terms with A[j,i] = 0 are +inf and drop out of the min; an all-zero
    column contributes 0. Equals max_i bounds_at(A, e_i).lower.
    """
    M = _square(A)
    with np.errstate(all="ignore"):
        mod = np.hypot(M.real, M.imag)
        # Re(A[j,i] conj(A[i,i])) / |A[j,i]|, spelled out as CPython evaluates it
        terms = np.where(M == 0, np.inf, (M.real * M.real.diagonal() + M.imag * M.imag.diagonal()) / mod)
    if np.any(np.isinf(mod)):  # abs() raises where the modulus of a finite entry overflows
        raise OverflowError("absolute value too large")
    col_min = np.fmin.reduce(terms, axis=0, initial=math.inf)  # fmin skips NaN, as `<` does
    # max() keeps 0.0 over -0.0 and NaN, as the scalar running maximum does
    return max(0.0, float(np.fmax.reduce(np.where(np.isinf(col_min), 0.0, col_min))))


def ones_lower_bound(A) -> float:
    """Lower bound at the all-ones vector, via the pair infimum on the row sums."""
    M = _square(A)
    return bounds_at(M, np.ones(M.shape[0], dtype=complex)).lower


def refine_bounds(A, cert: ContractionCertificate, iters: int,
                  tol: float = DEFAULT_TOL, gap_rtol: float | None = None) -> list[VariationalBounds]:
    """Bounds along the power orbit x_0 = ones, x_{k+1} = A x_k / (A x_k)[0].

    Returns the bounds at x_0 .. x_iters. The sandwich gap contracts at the
    certified rate. With gap_rtol set, iteration stops early once
    upper - lower <= gap_rtol * lower.
    """
    if not cert.strict:
        raise ValueError("refinement needs a strict certificate")
    if iters < 0:
        raise ValueError("iteration count must be nonnegative")
    M = _square(A)
    x = np.ones(M.shape[0], dtype=complex)
    out = [bounds_at(M, x, tol)]
    for _ in range(iters):
        b = out[-1]
        if (
            gap_rtol is not None
            and b.lower > 0.0
            and math.isfinite(b.upper)
            and b.upper - b.lower <= gap_rtol * b.lower
        ):
            break
        x = _orbit_step(M, x)
        out.append(bounds_at(M, x, tol))
    return out
