"""Certified power iteration and spectral-gap observation.

For a square matrix with a strict contraction certificate, the cone power
iteration converges geometrically in the projective metric at the certified
rate. The stopping rule turns the last step length into an a-posteriori
metric error bound, replacing any unknown constants. Where the matrix's own
rate puts that rule below the floating-point floor of the step, a certified
power of the matrix supplies the rate instead. The deflated operator
A - lambda h nu^T exposes the second modulus, and a small dense oracle gives
an independent full spectrum for cross-checks. gap_pipeline runs these
stages in order, for a matrix and for a kernel's Nystrom matrix alike.
"""

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .certify import ContractionCertificate, as_matrix, certify_perturbed
from .cone import distance

__all__ = [
    "EigenTriple",
    "power_eigen",
    "deflated_radius",
    "GapResult",
    "gap_pipeline",
    "dense_spectrum_oracle",
]


@dataclass
class EigenTriple:
    """Leading eigendata: A h = lam h, nu A = lam nu, normalized h[0] = 1, <nu, h> = 1.

    The pairing is bilinear (no conjugation). residual = ||A h - lam h|| / ||h||.
    iterations counts the steps of the right orbit, the one that gives h.
    metric_error bounds the projective distance from h to the true eigenray
    by d(x_{k-p}, x_k) / (1 - eta_p), the last p-step of that orbit over the
    certified rate eta_p of A^p; p is 1, with eta_1 the given certificate's
    eta_refined, unless power_eigen had to certify a power of A. It is +inf
    when no certified rate is below 1. converged is True only when both the
    right and the left orbit met the stop rule under a rate below 1;
    otherwise the triple is a flagged partial result. power and power_rate
    are that p and eta_p, and left_iterations counts the steps of the left
    orbit, the one that gives nu. For an exactly symmetric A (A == A^T) the
    left orbit is the right one, which runs once: nu is h / <h, h>,
    left_iterations equals iterations, and converged is the right orbit's
    stop under a rate below 1.
    """

    lam: complex
    h: np.ndarray
    nu: np.ndarray
    iterations: int
    residual: float
    metric_error: float
    converged: bool
    power: int = 1
    power_rate: float = math.nan
    left_iterations: int = 0


# Near the fixed point the projective step between floating-point iterates
# moves in whole units of the double epsilon, by one to three of them. A stop
# threshold below two units is met only where some step happens to round to
# one unit or to an exact fixed point, which depends on summation order.
STEP_FLOOR = 2.0 * np.finfo(float).eps

# Powers of A that power_eigen may certify, each the square of the one before.
POWERS = (2, 4, 8)

ORACLE_MAX_N = 16  # the largest size dense_spectrum_oracle accepts


def _product_error_scale(n: int) -> float:
    """gamma for |fl(XY) - XY| <= gamma |X| |Y| with complex n x n factors.

    sqrt(2) gamma_{n+2}, gamma_k = k u / (1 - k u) with u the unit roundoff
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 3.5-3.6).
    """
    ku = (n + 2) * 0.5 * np.finfo(float).eps
    return math.sqrt(2.0) * ku / (1.0 - ku)


def _power_products(M: np.ndarray):
    """Yield (p, P, E) for p in POWERS, forming the powers of M by squaring.

    P = fl(c M^p) for some power of two c, and E bounds |P - c M^p| entrywise.
    """
    gamma = _product_error_scale(M.shape[0])
    P, E = M, np.zeros(M.shape)
    for p in POWERS:
        # keep the largest entry near 1; a power of two scales P and E exactly,
        # and certificates are invariant under positive scaling
        scale = math.ldexp(1.0, -math.frexp(float(np.abs(P).max()))[1])
        P, E = P * scale, E * scale
        Q = np.abs(P)
        # fl(P P) - (P + D)(P + D) for |D| <= E: the product's own rounding plus
        # the carried error; doubled to cover the rounding of this bound itself
        P, E = P @ P, 2.0 * (gamma * (Q @ Q) + E @ Q + (Q + E) @ E)
        yield p, P, E


def _power_rate(M: np.ndarray, eta: float, tol: float) -> tuple[int, float]:
    """The power p and its certified rate eta_p that back the orbit's stop rule.

    Every eigenvalue of A^p is lam^p, so a strict certificate of A^p bounds
    the gap by eta_p^(1/p) and an orbit of A by d(x_k, h) <= d(x_{k-p},
    x_k) / (1 - eta_p). A's own rate serves when its threshold tol (1 - eta)
    is at least STEP_FLOOR. Otherwise A^2, A^4 and A^8 are certified in turn,
    each fl(A^p) with the bound on its rounding error, so that eta_p bounds
    the rate of the exact A^p. The first power whose threshold reaches the
    floor is taken, else the one with the least rate.
    """
    if tol * (1.0 - eta) >= STEP_FLOOR:
        return 1, eta
    best = (1, eta)
    for p, P, E in _power_products(M):
        cert = certify_perturbed(P, E)
        if cert.strict and cert.eta_refined < best[1]:
            best = (p, cert.eta_refined)
            if tol * (1.0 - best[1]) >= STEP_FLOOR:
                break
    return best


def _orbit_step(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One step x -> M x / (M x)[0] of the normalized power orbit."""
    y = M @ x
    y0 = complex(y[0])
    if y0 == 0:
        raise RuntimeError("normalization functional vanished on the orbit")
    return y / y0


def _power_orbit(M: np.ndarray, tol: float, max_iter: int, eta: float, p: int):
    """Iterate x -> M x / (M x)[0] until d(x_{k-p}, x_k) <= tol (1 - eta).

    Returns the last iterate, the step count, the last p-step (+inf before
    step p) and whether the stop rule was met.
    """
    x = np.ones(M.shape[0], dtype=complex)
    thresh = tol * (1.0 - eta)
    back = deque([x], maxlen=p)  # x_{k-p}, ..., x_{k-1}
    gap = math.inf
    converged = False
    k = 0
    for k in range(1, max_iter + 1):
        x = _orbit_step(M, x)
        if k >= p:
            gap = distance(back[0], x).distance
            if gap <= thresh:
                converged = True
                break
        back.append(x)
    return x, k, gap, converged


def power_eigen(A, cert: ContractionCertificate, tol: float = 1e-12, max_iter: int = 1000) -> EigenTriple:
    """Leading eigen-triple by cone power iteration under a strict certificate.

    Iterates x -> A x / (A x)[0] from the all-ones vector and stops once the
    projective p-step d(x_{k-p}, x_k) <= tol * (1 - eta_p), so the reported
    metric_error is at most tol at convergence. p = 1 and eta_1 =
    cert.eta_refined where that threshold is at least STEP_FLOOR; otherwise
    p is the power of A, up to A^8, whose certified rate eta_p brings the
    threshold above the floor, or comes closest (see _power_rate). The
    certificate itself is not changed. The left eigenvector comes from the
    same iteration on the plain transpose, under the same rate, since the
    class, theta and the contraction numbers are transpose-invariant; it is
    rescaled to the bilinear normalization <nu, h> = 1. For an exactly
    symmetric A (A == A^T) that orbit is the right one over again, so it is
    not run: nu = h / <h, h>. converged requires both orbits to stop;
    iterations counts the right one and left_iterations the left one, and
    power and power_rate give p and eta_p. tol must be finite and
    nonnegative (0 stops only at an exact fixed point), and max_iter at
    least 1.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"power iteration tolerance must be finite and nonnegative, got {tol}")
    if max_iter < 1:
        raise ValueError(f"power iteration needs at least one iteration, got max_iter {max_iter}")
    M = as_matrix(A)
    if M.shape[0] != M.shape[1]:
        raise ValueError("power iteration needs a square matrix")
    if not cert.strict:
        raise ValueError("power iteration needs a strict certificate")
    p, eta = _power_rate(M, cert.eta_refined, tol)
    h, iters, gap, conv_right = _power_orbit(M, tol, max_iter, eta, p)
    lam = complex((M @ h)[0])
    if np.array_equal(M, M.T):  # the left orbit would be the right one again
        w, left_iters, conv_left = h, iters, conv_right
    else:
        w, left_iters, _, conv_left = _power_orbit(M.T, tol, max_iter, eta, p)
    pairing = complex(np.dot(w, h))  # bilinear, no conjugation
    if pairing == 0:
        raise RuntimeError("bilinear pairing of the eigenvectors vanished")
    nu = w / pairing
    residual = float(np.linalg.norm(M @ h - lam * h) / np.linalg.norm(h))
    if eta < 1.0:
        metric_error, converged = gap / (1.0 - eta), conv_right and conv_left
    else:  # no bound survives, an exact fixed point of the floating-point map included
        metric_error, converged = math.inf, False
    return EigenTriple(lam, h, nu, iters, residual, metric_error, converged, p, eta, left_iters)


def deflated_radius(A, triple: EigenTriple, iters: int = 200, starts: int = 8, seed: int = 0) -> float:
    """Spectral-radius estimate of the deflated operator B = A - lam h nu^T.

    Runs plain power iteration from several random complex starts, all of
    them at once as the columns of one n x starts block, and takes the
    largest tail growth rate (geometric mean of the second half of the
    per-step norm growth factors). Dividing by |lam| gives the observed
    spectral gap ratio. A start that B annihilates exactly, or whose rate
    comes out NaN, is skipped; with every start skipped the estimate is 0.
    This is an observed estimate, not a bound: the block product and the
    column norms round as the BLAS does, so its last digits depend on it.
    """
    if iters < 1:
        raise ValueError("need at least one iteration")
    if starts < 1:
        raise ValueError(f"need at least one start, got {starts}")
    M = as_matrix(A)
    B = M - triple.lam * np.outer(triple.h, triple.nu)
    rng = np.random.default_rng(seed)
    n = M.shape[0]
    Z = np.empty((n, starts), dtype=complex)
    for k in range(starts):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        Z[:, k] = z / np.linalg.norm(z)
    growth = np.empty((iters, starts))
    # an annihilated column divides 0 by 0 and stays NaN; it is dropped below
    with np.errstate(invalid="ignore"):
        for t in range(iters):
            W = B @ Z
            growth[t] = np.linalg.norm(W, axis=0)
            Z = W / growth[t]
    live = growth[:, (growth != 0.0).all(axis=0)]
    rates = np.exp(np.log(live[iters // 2:]).mean(axis=0))
    # fmax skips NaN rates, and the initial 0 is the estimate with no start left
    return float(np.fmax.reduce(rates, initial=0.0))


@dataclass(frozen=True)
class GapResult:
    """Outcome of gap_pipeline, filled up to the first stage that stopped it.

    certificate is the certificate the pipeline ran under. triple is the
    eigen-triple, None when the certificate is not strict. r_deflated is the
    deflated spectral radius, None when triple is None or did not converge.
    """

    certificate: ContractionCertificate
    triple: EigenTriple | None = None
    r_deflated: float | None = None


def gap_pipeline(A, cert: ContractionCertificate, tol: float = 1e-12, max_iter: int = 1000,
                 seed: int = 0) -> GapResult:
    """The gap pipeline: eigen-triple under a certificate, then the deflated gap check.

    Stages run until one stops the pipeline: a certificate that is not strict
    stops it before power_eigen, and a triple that did not converge stops it
    before deflated_radius, which runs its default starts and steps from seed.
    An observed gap r_deflated / |lam| above the certified eta_simple =
    eta1(theta) would refute the certificate numerically and raises
    RuntimeError.
    """
    if not cert.strict:
        return GapResult(cert)
    triple = power_eigen(A, cert, tol, max_iter)
    if not triple.converged:
        return GapResult(cert, triple)
    r = deflated_radius(A, triple, seed=seed)
    eta_obs = r / abs(triple.lam)
    if eta_obs > cert.eta_simple + 1e-9:
        raise RuntimeError(f"observed gap {eta_obs} exceeds the certified bound {cert.eta_simple}")
    return GapResult(cert, triple, r)


def dense_spectrum_oracle(A) -> np.ndarray:
    """Full spectrum of a small matrix, sorted by decreasing modulus.

    Independent of the cone power iteration (dense QR eigensolver), intended
    for tests and report verification only, hence the size cap ORACLE_MAX_N.
    """
    M = as_matrix(A)
    if M.shape[0] != M.shape[1]:
        raise ValueError("oracle needs a square matrix")
    if M.shape[0] > ORACLE_MAX_N:
        raise ValueError(f"oracle is capped at {ORACLE_MAX_N} x {ORACLE_MAX_N}")
    vals = np.linalg.eigvals(M)
    order = np.lexsort((vals.imag, vals.real, -np.abs(vals)))
    return vals[order]
