"""Start-by-start deflated power iteration: the oracle for deflated_radius.

This is the scalar loop, one matrix-vector product, vector norm and list
append per step and start. It is slow (a Python iteration per step) and
exists only so the batched iteration in conegap.spectral can be compared
against it. The block product and column norms there round differently from
the vector product and norm here, so the two agree to a relative tolerance,
not bit for bit.
"""

import math

import numpy as np

from conegap.certify import as_matrix
from conegap.spectral import EigenTriple


def reference_deflated_radius(A, triple: EigenTriple, iters: int = 200, starts: int = 8, seed: int = 0) -> float:
    """Same contract as conegap.spectral.deflated_radius, one start at a time."""
    if iters < 1:
        raise ValueError("need at least one iteration")
    if starts < 1:
        raise ValueError("need at least one start")
    M = as_matrix(A)
    B = M - triple.lam * np.outer(triple.h, triple.nu)
    rng = np.random.default_rng(seed)
    n = M.shape[0]
    best = 0.0
    for _ in range(starts):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z = z / np.linalg.norm(z)
        growth = []
        for _ in range(iters):
            w = B @ z
            nw = float(np.linalg.norm(w))
            if nw == 0.0:
                growth = []
                break
            growth.append(nw)
            z = w / nw
        if not growth:
            continue
        tail = growth[len(growth) // 2:]
        est = math.exp(sum(math.log(g) for g in tail) / len(tail))
        if est > best:
            best = est
    return best
