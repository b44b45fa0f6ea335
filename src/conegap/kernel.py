"""Certification for discretized integral kernels.

A kernel k sampled on quadrature nodes contracts the function cone exactly
when every quadruple matrix [[k(x1,y1), k(x1,y2)], [k(x2,y1), k(x2,y2)]]
(x1 < x2, y1 < y2 grid points) lies in the 2x2 class; the test is free of
the quadrature weights. The Nystrom matrix L[j][i] = k(x_i, x_j) w_i then
discretizes the operator, and its observed spectral gap is bounded by
eta1(theta) of the weight-free certificate, which is also the certificate
of the Nystrom matrix: the block test is invariant under positive diagonal
scaling and under transposition. With power-of-two weights the scaling is
exact and the two certificates are equal bit for bit, up to the swap of
delta_sup's d2 and d3 that transposition brings. kernel_certify runs
spectral.gap_pipeline on the Nystrom matrix under the certificate of the
value table, which it sweeps once.
"""

import numpy as np

from .certify import ContractionCertificate, certify_matrix
from .core2x2 import DEFAULT_TOL
from .spectral import GapResult, gap_pipeline

__all__ = [
    "KernelGrid",
    "kernel_theta",
    "nystrom_matrix",
    "kernel_certify",
]


class KernelGrid:
    """Sampled kernel: values[i][j] = k(points[i], points[j]) on increasing nodes.

    points are strictly increasing reals, weights are positive quadrature
    weights, values is the N x N complex sample matrix, N >= 2.
    """

    def __init__(self, points, weights, values):
        p = np.asarray(points, dtype=float)
        w = np.asarray(weights, dtype=float)
        v = np.asarray(values, dtype=complex)
        if p.ndim != 1 or p.size < 2:
            raise ValueError("need at least two grid points")
        if not np.all(np.isfinite(p)):
            raise ValueError("grid points must be finite")
        if np.any(np.diff(p) <= 0.0):
            raise ValueError("grid points must be strictly increasing")
        if w.shape != p.shape:
            raise ValueError("weights must match the grid points")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("weights must be finite and positive")
        if v.shape != (p.size, p.size):
            raise ValueError("values must be an N x N matrix over the grid")
        if not np.all(np.isfinite(v.real) & np.isfinite(v.imag)):
            raise ValueError("kernel values must be finite")
        self.points = p
        self.weights = w
        self.values = v

    @property
    def n(self) -> int:
        return self.points.size


def kernel_theta(grid: KernelGrid, tol: float = DEFAULT_TOL, sample: int | None = None,
                 rng=None) -> ContractionCertificate:
    """Weight-free quadruple certificate of the sampled kernel.

    Classifies every quadruple matrix of the value table; this is exactly the
    block certificate of the value matrix, since the class, theta, and the
    contraction numbers are transpose-invariant. Witness indices (i, j, p, q)
    name the node quadruple (x_i, x_j; x_p, x_q).
    """
    return certify_matrix(grid.values, tol, sample=sample, rng=rng)


def nystrom_matrix(grid: KernelGrid) -> np.ndarray:
    """Quadrature discretization L[j][i] = k(x_i, x_j) * w_i of the kernel operator."""
    return grid.values.T * grid.weights


def kernel_certify(grid: KernelGrid, power_tol: float = 1e-12, max_iter: int = 1000,
                   seed: int = 0) -> GapResult:
    """The kernel gap pipeline: gap_pipeline on the Nystrom matrix L = V^T diag(w).

    It runs under the weight-free certificate of the value table V, which is
    also L's, so L is never swept. That certificate speaks of the exact
    product, while the orbit runs on fl(V^T diag(w)), one rounding per entry
    away from it. A sweep of fl(L) would add no rigour: its own block
    arithmetic leaves rounding of the same order uncounted. power_tol and
    max_iter are power_eigen's, and seed seeds the deflation starts.
    """
    return gap_pipeline(nystrom_matrix(grid), kernel_theta(grid), power_tol, max_iter, seed=seed)
