"""Certification for discretized integral kernels.

A kernel k sampled on quadrature nodes contracts the function cone exactly
when every quadruple matrix [[k(x1,y1), k(x1,y2)], [k(x2,y1), k(x2,y2)]]
(x1 < x2, y1 < y2 grid points) lies in the 2x2 class; the test is free of
the quadrature weights. The Nystrom matrix L[j][i] = k(x_i, x_j) w_i then
discretizes the operator, and its observed spectral gap is bounded by
eta1(theta) of the weight-free certificate, which is also the certificate
of the Nystrom matrix: the block test is invariant under positive diagonal
scaling and under transposition. kernel_certify is the one pipeline from a
grid to a checked gap; it sweeps the value table once.
"""

from dataclasses import dataclass

import numpy as np

from .certify import ContractionCertificate, certify_matrix
from .core2x2 import DEFAULT_TOL, eta1
from .spectral import EigenTriple, deflated_radius, power_eigen

__all__ = [
    "KernelGrid",
    "KernelResult",
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


@dataclass(frozen=True)
class KernelResult:
    """Outcome of kernel_certify, filled up to the first stage that stopped it.

    certificate is the weight-free certificate of the value table, which is
    also that of the Nystrom matrix. triple is the Nystrom matrix's
    eigen-triple, None when the certificate is not strict. r_deflated is the
    deflated spectral radius of the Nystrom matrix, None when triple is None
    or did not converge.
    """

    certificate: ContractionCertificate
    triple: EigenTriple | None = None
    r_deflated: float | None = None


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


def kernel_certify(grid: KernelGrid, tol: float = DEFAULT_TOL, power_tol: float = 1e-12,
                   max_iter: int = 1000, deflate_iters: int = 200, starts: int = 8,
                   seed: int = 0) -> KernelResult:
    """The kernel gap pipeline: certificate, Nystrom eigen-triple, deflated gap check.

    The block test is invariant under positive diagonal scaling and under
    transposition, so the weight-free certificate of the value table V is
    also the certificate of the Nystrom matrix L = V^T diag(w), and it is
    the one power_eigen runs under; L is never swept. The certificate speaks
    of the exact product, while the orbit runs on fl(V^T diag(w)), one
    rounding per entry away from it. A sweep of fl(L) would add no rigour:
    its own block arithmetic leaves rounding of the same order uncounted. With
    power-of-two weights the scaling is exact and the two certificates are
    equal bit for bit, up to the swap of delta_sup's d2 and d3 that
    transposition brings.

    Stages run until one stops the pipeline, and the result is filled up to
    there: triple is None when the certificate is not strict, and r_deflated
    is None when either power orbit did not converge (no deflation runs
    then). An observed gap r_deflated / |lam| above eta1(theta) would refute
    the certificate numerically and raises RuntimeError.
    """
    cert = kernel_theta(grid, tol)
    if not cert.strict:
        return KernelResult(cert)
    L = nystrom_matrix(grid)
    triple = power_eigen(L, cert, power_tol, max_iter)
    if not triple.converged:
        return KernelResult(cert, triple)
    r = deflated_radius(L, triple, deflate_iters, starts, seed)
    eta_obs = r / abs(triple.lam)
    if eta_obs > eta1(cert.theta) + 1e-9:
        raise RuntimeError(
            f"observed gap {eta_obs} exceeds the certified bound {eta1(cert.theta)}"
        )
    return KernelResult(cert, triple, r)
