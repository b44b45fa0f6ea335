"""Correctness gate: every output the benchmark times is checked here.

Certificates are re-checked with the scalar core2x2 predicates, which stay the
reference oracle whatever implements the sweep. Eigen-triples and bounds are
checked against numpy.linalg.eigvals. Each check returns a list of problems;
an empty list means the output passed.
"""

import numpy as np

# Relative slack for comparisons between two floating-point computations of
# the same exact quantity (dense eigensolver against cone iteration).
EIG_RTOL = 1e-9
RESIDUAL_RTOL = 1e-12
PAIRING_ATOL = 1e-9
BOUNDS_RTOL = 1e-10


def block(M: np.ndarray, i: int, j: int, p: int, q: int):
    return complex(M[i, p]), complex(M[j, p]), complex(M[i, q]), complex(M[j, q])


def _theta_of(core, T, tol):
    th = core.theta2(T)
    if th is None and abs(T.det) <= tol * T.frob2():
        return 0.0  # rank-degenerate block
    return th


def check_certificate(core, M: np.ndarray, cls: str, theta, eta_simple, eta_refined,
                      witness, rng: np.random.Generator, exhaustive: bool = True,
                      samples: int = 64) -> list[str]:
    """Re-check a certificate of M.

    witness is (i, j, p, q, (a, b, c, d)) or None. The witness block must be
    the block of M at its indices; strict needs theta2(witness) == theta,
    closed a closed block that is not open, fail a block that is not closed.
    A seeded sample of blocks must agree with the class and stay <= theta.
    """
    tol = core.DEFAULT_TOL
    problems = []
    n, m = M.shape
    if cls not in ("strict", "closed", "fail"):
        return [f"unknown classification {cls!r}"]
    if witness is None:
        return [f"{cls} certificate without a witness block"]
    i, j, p, q, entries = witness
    if not (0 <= i < j < n and 0 <= p < q < m):
        return [f"witness indices {(i, j, p, q)} out of range"]
    if tuple(entries) != block(M, i, j, p, q):
        problems.append(f"witness block {(i, j, p, q)} does not match the matrix")
    W = core.Complex2x2(*entries)
    if cls == "strict":
        if not core.in_gamma_open(W, tol):
            problems.append("strict witness block is not open")
        if core.theta2(W) != theta:
            problems.append(f"theta2(witness) = {core.theta2(W)!r} != theta = {theta!r}")
        if eta_simple != core.eta1(theta):
            problems.append(f"eta_simple {eta_simple!r} != eta1(theta) {core.eta1(theta)!r}")
        if eta_refined is None or not 0.0 <= eta_refined <= 1.0:
            problems.append(f"eta_refined {eta_refined!r} outside [0, 1]")
    else:
        if core.in_gamma_open(W, tol):
            problems.append(f"{cls} witness block is open")
        if cls == "closed" and not core.in_gamma_closed(W, tol):
            problems.append("closed witness block is not closed")
        if cls == "fail" and core.in_gamma_closed(W, tol):
            problems.append("fail witness block is closed")
        if eta_simple is not None or eta_refined is not None:
            problems.append(f"{cls} certificate carries a rate")
    if not exhaustive:
        return problems  # a sampled certificate speaks only for the blocks it drew
    for _ in range(samples):
        i, j = sorted(rng.choice(n, size=2, replace=False))
        p, q = sorted(rng.choice(m, size=2, replace=False))
        T = core.Complex2x2(*block(M, i, j, p, q))
        where = f"block {(int(i), int(j), int(p), int(q))}"
        if cls == "strict" and not core.in_gamma_open(T, tol):
            problems.append(f"{where} is not open under a strict certificate")
        elif cls == "closed" and not core.in_gamma_closed(T, tol):
            problems.append(f"{where} is not closed under a closed certificate")
        th = _theta_of(core, T, tol)
        if theta is not None and th is not None and th > theta:
            problems.append(f"{where} has theta {th!r} above the supremum {theta!r}")
    return problems


def dense_leading(M: np.ndarray):
    """Leading eigenvalue and |lambda_2 / lambda_1| from the dense eigensolver."""
    vals = np.linalg.eigvals(M)
    vals = vals[np.argsort(-np.abs(vals), kind="stable")]
    ratio = abs(vals[1]) / abs(vals[0]) if vals.size > 1 else 0.0
    return complex(vals[0]), float(ratio)


def check_triple(M: np.ndarray, eta_refined: float, lam: complex, h: np.ndarray,
                 nu: np.ndarray) -> list[str]:
    """Residual, eigenvalue, pairing and gap of an eigen-triple against the dense oracle."""
    problems = []
    lam_dense, ratio = dense_leading(M)
    scale = abs(lam)
    residual = float(np.linalg.norm(M @ h - lam * h) / np.linalg.norm(h))
    if not residual <= RESIDUAL_RTOL * scale:
        problems.append(f"residual {residual!r} above {RESIDUAL_RTOL} |lambda|")
    if not abs(lam - lam_dense) <= EIG_RTOL * scale:
        problems.append(f"lambda {lam!r} differs from the dense {lam_dense!r}")
    pairing = complex(np.dot(nu, h))
    if not abs(pairing - 1.0) <= PAIRING_ATOL:
        problems.append(f"<nu, h> = {pairing!r}, not 1")
    if not ratio <= eta_refined * (1.0 + EIG_RTOL):
        problems.append(f"dense |lambda2/lambda1| = {ratio!r} above eta_refined {eta_refined!r}")
    return problems


def check_bounds(M: np.ndarray, history) -> list[str]:
    """lower <= |lambda_dense| <= upper at every refinement step."""
    lam_abs = abs(dense_leading(M)[0])
    slack = BOUNDS_RTOL * lam_abs
    problems = []
    for k, (lower, upper) in enumerate(history):
        if not (lower <= lam_abs + slack and lam_abs <= upper + slack):
            problems.append(f"refine step {k}: [{lower!r}, {upper!r}] misses |lambda| = {lam_abs!r}")
    return problems
