"""Contraction certificates for complex matrices acting on the cone.

An n x m matrix A maps the closed cone of C^m into the closed cone of C^n
exactly when every functional block

    T(i, j; p, q) = [[A[i, p], A[j, p]], [A[i, q], A[j, q]]],   i < j, p < q

lies in the closed 2x2 class. Strict membership of every block yields a
quantitative certificate: the block supremum theta, the componentwise
supremum of the contraction numbers, the simple rate eta1(theta), a
refined rate from the full quadruple, and a diameter bound for the image.

The sweep over all blocks is a chunked array evaluation of this one test.
Its output is bit-identical to testing block by block with the scalar
core2x2 predicates, which stay the reference the tests compare against.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cone import as_vector, distance, member_closed
from .core2x2 import (
    DEFAULT_TOL,
    Complex2x2,
    DeltaQuadruple,
    diameter_bound,
    eta1,
    refined_rate,
)

__all__ = [
    "BlockWitness",
    "ContractionCertificate",
    "submatrix_T",
    "certify_matrix",
    "product_gap_bound",
    "contraction_witness_test",
]

# Blocks per array evaluation. It bounds the sweep's working memory (a few MB)
# whatever the matrix size; larger chunks are no faster.
CHUNK_BLOCKS = 4096


def as_matrix(A) -> np.ndarray:
    M = np.asarray(A, dtype=complex)
    if M.ndim != 2 or M.size == 0:
        raise ValueError("expected a nonempty 2-D matrix")
    if not np.all(np.isfinite(M.real) & np.isfinite(M.imag)):
        raise ValueError("matrix entries must be finite")
    return M


@dataclass(frozen=True)
class BlockWitness:
    """Indices and content of the block that decided the certificate."""

    i: int
    j: int
    p: int
    q: int
    block: Complex2x2


@dataclass(frozen=True)
class ContractionCertificate:
    """Outcome of the block enumeration.

    classification is 'strict', 'closed', or 'fail'. theta is the block
    supremum of the contraction ratio (None when some block leaves it
    undefined). delta_sup holds the componentwise suprema of the contraction
    numbers, always reported for diagnostics. The rate fields eta_simple,
    eta_refined and diam_bound are populated only for class 'strict'; a
    non-strict certificate carries no rate. witness points at the first
    failing block (fail), the first non-strict block (closed), or the
    theta-extremal block (strict). exhaustive is False for sampled triage,
    which is evidence, not a certificate.
    """

    classification: str
    theta: float | None
    delta_sup: DeltaQuadruple
    eta_simple: float | None
    eta_refined: float | None
    diam_bound: float | None
    witness: BlockWitness | None
    exhaustive: bool = True

    @property
    def strict(self) -> bool:
        return self.classification == "strict"


def submatrix_T(A, i: int, j: int, p: int, q: int) -> Complex2x2:
    """Functional block [[A[i,p], A[j,p]], [A[i,q], A[j,q]]] for i < j, p < q."""
    M = as_matrix(A)
    n, m = M.shape
    if not (0 <= i < j < n and 0 <= p < q < m):
        raise ValueError("need row indices 0 <= i < j < rows and column indices 0 <= p < q < cols")
    return Complex2x2(complex(M[i, p]), complex(M[j, p]), complex(M[i, q]), complex(M[j, q]))


def _log_arg(s, dmod):
    # argument of log in core2x2._log_ratio, +inf where that returns +inf
    return np.where(s - dmod > 0.0, (s + dmod) / (s - dmod), np.inf)


def _block_tests(re, im, sq, entries, tol):
    """The 2x2 test on blocks (a, b, c, d) = (M[i,p], M[j,p], M[i,q], M[j,q]), as arrays.

    entries holds the flat indices of a, b, c and d in the raveled matrix; re,
    im and sq are its real parts, imaginary parts and squared moduli. Returns
    per block: open and closed membership, theta (0 where the denominator is
    not positive), whether theta is undefined, and the arguments of the
    logarithms that give d1, d2, d3 of the transposed block and of |log| that
    gives its d4. Each value repeats the core2x2 expression operation for
    operation: complex products are spelled out in the order CPython evaluates
    them and moduli use hypot, as abs(complex) does.
    """
    a, b, c, d = entries
    ar, ai, br, bi = re[a], im[a], re[b], im[b]
    cr, ci, dr, di = re[c], im[c], re[d], im[d]
    s = tol * (((sq[a] + sq[b]) + sq[c]) + sq[d])
    re_ab = ar * br + ai * bi
    re_ac = ar * cr + ai * ci
    re_bd = br * dr + bi * di
    re_cd = cr * dr + ci * di
    ad_r, ad_i = ar * dr - ai * di, ar * di + ai * dr
    bc_r, bc_i = br * cr - bi * ci, br * ci + bi * cr
    dmod = np.hypot(ad_r - bc_r, ad_i - bc_i)  # |ad - bc|
    den = (ar * dr + ai * di) + (br * cr + bi * ci)  # Re(a conj(d) + b conj(c))
    adc_i = ai * dr - ar * di  # Im(a conj(d))
    cb_i = cr * bi - ci * br  # Im(conj(c) b) = -Im(c conj(b))

    is_open = (re_ab > s) & (re_ac > s) & (re_bd > s) & (re_cd > s) & (dmod < den - s)
    neg_s = -s
    is_closed = ((re_ab >= neg_s) & (re_ac >= neg_s) & (re_bd >= neg_s) & (re_cd >= neg_s)
                 & (dmod <= den + s))
    nonpos = den <= 0.0
    theta = np.where(nonpos, 0.0, dmod / den)
    undefined = nonpos & ~(dmod <= s)  # zero determinant is rank-degenerate, theta 0

    na, nb = np.hypot(ad_r, ad_i), np.hypot(bc_r, bc_i)
    ratio4 = np.where((na > 0.0) & (nb > 0.0), na / nb, np.inf)
    return (is_open, is_closed, theta, undefined, _log_arg(den, dmod),
            _log_arg(np.hypot(den, adc_i + cb_i), dmod), _log_arg(np.hypot(den, adc_i - cb_i), dmod),
            ratio4)


def certify_matrix(A, tol: float = DEFAULT_TOL, sample: int | None = None, rng=None) -> ContractionCertificate:
    """Classify all functional blocks of A and assemble the certificate.

    Needs at least 2 rows and 2 columns. A failing block decides the class
    immediately but the theta and delta suprema are still accumulated over
    the full enumeration for diagnostics. Blocks with zero determinant and
    nonpositive denominator are rank-degenerate and contribute theta 0;
    a nonzero determinant over a nonpositive denominator leaves theta
    undefined. With sample=k, k blocks are drawn at random instead of
    enumerating everything, and the result is marked non-exhaustive.

    The blocks are evaluated as arrays, CHUNK_BLOCKS at a time in
    lexicographic (i, j, p, q) order. The result is bit-identical to testing
    each block with the scalar core2x2 predicates (in_gamma_open,
    in_gamma_closed, theta2, deltas), which remain the reference: witnesses
    are the first non-open, the first non-closed and the first
    theta-maximal block, as in a block-by-block loop.
    """
    M = as_matrix(A)
    n, m = M.shape
    if n < 2 or m < 2:
        raise ValueError("certification needs at least 2 rows and 2 columns")
    rows_i, rows_j = np.triu_indices(n, 1)
    cols_p, cols_q = np.triu_indices(m, 1)
    n_col_pairs = cols_p.size
    total = rows_i.size * n_col_pairs  # block k is row pair k // n_col_pairs, column pair k % n_col_pairs
    blocks = None  # None: every block, in order
    exhaustive = True
    if sample is not None:
        if sample < 1:
            raise ValueError("sample size must be positive")
        if rng is None:
            rng = np.random.default_rng(0)
        take = min(int(sample), total)
        exhaustive = take == total
        blocks = np.sort(rng.choice(total, size=take, replace=False))
    count = total if blocks is None else blocks.size

    re, im = np.ascontiguousarray(M.real).ravel(), np.ascontiguousarray(M.imag).ravel()
    # numpy squares as x * x, but frob2's abs(z) ** 2 calls libm pow, which is
    # not always correctly rounded; square each entry the same way here.
    sq = np.array([abs(z) ** 2 for z in M.ravel().tolist()])

    first_not_open = first_not_closed = extremal = None  # block numbers
    theta_sup = 0.0
    theta_defined = True
    log_sups = [1.0, 1.0, 1.0]  # suprema of the d1..d3 log arguments; log(1) = 0
    ratio4_max = ratio4_min = 1.0

    with np.errstate(all="ignore"):
        for start in range(0, count, CHUNK_BLOCKS):
            stop = min(start + CHUNK_BLOCKS, count)
            ks = np.arange(start, stop) if blocks is None else blocks[start:stop]
            rp, cp = np.divmod(ks, n_col_pairs)
            ri, rj = rows_i[rp] * m, rows_j[rp] * m
            p, q = cols_p[cp], cols_q[cp]
            is_open, is_closed, theta, undefined, *log_args, ratio4 = _block_tests(
                re, im, sq, (ri + p, rj + p, ri + q, rj + q), tol)
            if first_not_open is None and not is_open.all():
                first_not_open = int(ks[np.argmin(is_open)])
            if first_not_closed is None and not is_closed.all():
                first_not_closed = int(ks[np.argmin(is_closed)])
            # the first defined theta opens the running maximum; a later one
            # replaces it only when strictly larger
            if extremal is None and not undefined.all():
                k = int(np.argmin(undefined))
                theta_sup, extremal = float(theta[k]), int(ks[k])
            better = ~undefined & (theta > theta_sup)
            if better.any():
                k = int(np.argmax(np.where(better, theta, -1.0)))
                theta_sup, extremal = float(theta[k]), int(ks[k])
            theta_defined = theta_defined and not undefined.any()
            # log is monotone, so the sup of the logs is the log of the sup;
            # fmax/fmin and max() skip NaN as the scalar max() of logs does
            log_sups = [max(sup, float(np.fmax.reduce(x))) for sup, x in zip(log_sups, log_args)]
            ratio4_max = max(ratio4_max, float(np.fmax.reduce(ratio4)))
            ratio4_min = min(ratio4_min, float(np.fmin.reduce(ratio4)))

    if first_not_open is None:
        classification, k = "strict", extremal
    elif first_not_closed is None:
        classification, k = "closed", first_not_open
    else:
        classification, k = "fail", first_not_closed
    rp, cp = divmod(k, n_col_pairs)
    i, j, p, q = int(rows_i[rp]), int(rows_j[rp]), int(cols_p[cp]), int(cols_q[cp])
    witness = BlockWitness(i, j, p, q, submatrix_T(M, i, j, p, q))

    d1, d2, d3 = (math.log(x) for x in log_sups)
    # |log r| is largest at the largest or at the smallest ratio r
    dsup = DeltaQuadruple(d1, d2, d3, max(abs(math.log(ratio4_max)), abs(math.log(ratio4_min))))
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


def product_gap_bound(certs) -> float:
    """Spectral-gap bound for a product of factors: the product of refined rates.

    Every factor must carry a strict certificate; the bound applies to the
    factors composed in any order.
    """
    certs = list(certs)
    if not certs:
        raise ValueError("need at least one certificate")
    out = 1.0
    for c in certs:
        if not c.strict:
            raise ValueError("every factor must carry a strict certificate")
        out *= c.eta_refined
    return out


def contraction_witness_test(A, x, y, cert: ContractionCertificate, tol: float = 1e-9) -> float:
    """Check the certified Lipschitz bound on one concrete pair.

    Returns d(Ax, Ay). Raises RuntimeError if Ax or Ay leaves the cone or if
    d(Ax, Ay) > eta_refined * d(x, y) + tol, either of which would refute the
    certificate numerically.
    """
    if not cert.strict:
        raise ValueError("witness test needs a strict certificate")
    M = as_matrix(A)
    ax = M @ as_vector(x)
    ay = M @ as_vector(y)
    for name, v in (("Ax", ax), ("Ay", ay)):
        if float(np.vdot(v, v).real) == 0.0 or not member_closed(v):
            raise RuntimeError(f"{name} left the cone, contradicting the certificate")
    dxy = distance(x, y).distance
    daxy = distance(ax, ay).distance
    if daxy > cert.eta_refined * dxy + tol:
        raise RuntimeError(
            f"contraction bound violated: d(Ax, Ay) = {daxy} > "
            f"{cert.eta_refined} * {dxy} + {tol}"
        )
    return daxy
