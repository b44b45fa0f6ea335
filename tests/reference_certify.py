"""Scalar block sweep: the oracle that certify_matrix must match bit for bit.

This is the block-by-block loop over the core2x2 predicates, one Complex2x2
per block. It is slow (tens of microseconds per block) and exists only so the
array sweep in conegap.certify can be compared against it. submatrix_T builds
one such block by its indices.
"""

import numpy as np

from conegap.certify import BlockWitness, ContractionCertificate, as_matrix
from conegap.core2x2 import (
    DEFAULT_TOL,
    Complex2x2,
    DeltaQuadruple,
    deltas,
    diameter_bound,
    eta1,
    in_gamma_closed,
    in_gamma_open,
    refined_rate,
    theta2,
)


def submatrix_T(A, i: int, j: int, p: int, q: int) -> Complex2x2:
    """Functional block [[A[i,p], A[j,p]], [A[i,q], A[j,q]]] for i < j, p < q."""
    M = as_matrix(A)
    n, m = M.shape
    if not (0 <= i < j < n and 0 <= p < q < m):
        raise ValueError("need row indices 0 <= i < j < rows and column indices 0 <= p < q < cols")
    return Complex2x2(complex(M[i, p]), complex(M[j, p]), complex(M[i, q]), complex(M[j, q]))


def reference_certify(A, tol: float = DEFAULT_TOL, sample: int | None = None, rng=None) -> ContractionCertificate:
    """Same contract as conegap.certify.certify_matrix, evaluated one block at a time."""
    M = as_matrix(A)
    n, m = M.shape
    if n < 2 or m < 2:
        raise ValueError("certification needs at least 2 rows and 2 columns")
    quads = [(i, j, p, q) for i in range(n) for j in range(i + 1, n)
             for p in range(m) for q in range(p + 1, m)]
    exhaustive = True
    if sample is not None:
        if sample < 1:
            raise ValueError("sample size must be positive")
        if rng is None:
            rng = np.random.default_rng(0)
        take = min(int(sample), len(quads))
        exhaustive = take == len(quads)
        sel = rng.choice(len(quads), size=take, replace=False)
        quads = [quads[int(k)] for k in np.sort(sel)]

    all_open = True
    all_closed = True
    first_not_open = None
    first_not_closed = None
    theta_sup = 0.0
    theta_defined = True
    extremal = None
    dsup = DeltaQuadruple(0.0, 0.0, 0.0, 0.0)

    for (i, j, p, q) in quads:
        T = Complex2x2(complex(M[i, p]), complex(M[j, p]), complex(M[i, q]), complex(M[j, q]))
        if not in_gamma_open(T, tol):
            if all_open:
                first_not_open = BlockWitness(i, j, p, q, T)
            all_open = False
            if not in_gamma_closed(T, tol):
                if all_closed:
                    first_not_closed = BlockWitness(i, j, p, q, T)
                all_closed = False
        th = theta2(T)
        if th is None:
            if abs(T.det) <= tol * T.frob2():
                th = 0.0  # rank-degenerate block, maps everything to one point
            else:
                theta_defined = False
        if th is not None and (extremal is None or th > theta_sup):
            theta_sup = th
            extremal = BlockWitness(i, j, p, q, T)
        dsup = dsup.sup(deltas(T.transpose()))

    if all_open:
        classification = "strict"
        witness = extremal
    elif all_closed:
        classification = "closed"
        witness = first_not_open
    else:
        classification = "fail"
        witness = first_not_closed

    theta = theta_sup if theta_defined else None
    if classification == "strict":
        eta_simple = eta1(theta)
        eta_refined = refined_rate(dsup)
        diam = diameter_bound(dsup)
    else:
        eta_simple = eta_refined = diam = None
    return ContractionCertificate(
        classification, theta, dsup, eta_simple, eta_refined, diam, witness,
        exhaustive=exhaustive,
    )
