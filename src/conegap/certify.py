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
A full sweep walks the blocks by whole row pairs, so their entry indices
come from adding row offsets to column pairs, not from dividing block
numbers. Most blocks of a certifiable matrix are open, and an open block is
closed, has a positive denominator and has every log argument defined, so
the closed test, the undefined-theta rule and the guards on theta and the
logarithms run only on the blocks that are not open (see _block_tests).
When A is square and exactly symmetric (A == A^T), the block (p, q, i, j)
is the transpose of the block (i, j, p, q). Every test quantity, the margin
tol * frob2 included, is the same bit for bit for a block and its transpose
(see core2x2.Complex2x2.frob2), except that S2 and S3 trade places; so each
such mirror pair is swept once, and the certificate is the same bit for bit.
certify_perturbed runs the same sweep with every block quantity moved by
given entrywise errors, so that its certificate covers every matrix within
them, such as the exact value of a rounded matrix product.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cone import _pair_index
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
    "certify_matrix",
    "certify_perturbed",
    "product_gap_bound",
]

# Most blocks per array evaluation. It bounds the working memory of a chunk (a
# few MB) whatever the matrix size. A chunk of a full sweep holds whole row
# pairs, or part of one when a row pair has more column pairs than this. On
# complex n x n inputs 2048 was slower at n = 24-32, and 8192 and 16384 at
# n = 16-24.
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


def _block_tests(re, im, sq, entries, tol, pad=None):
    """The 2x2 test on blocks (a, b, c, d) = (M[i,p], M[j,p], M[i,q], M[j,q]), as arrays.

    entries holds the flat indices of a, b, c and d in the raveled matrix; re,
    im and sq are its real parts, imaginary parts and squared moduli, each
    hypot modulus times itself as core2x2's frob2 squares them (_sweep raises
    OverflowError where one is infinite, past |z| ~ 1.34e154), and the margin
    sums them in frob2's order, (|a|^2 + |d|^2) + (|b|^2 + |c|^2). Returns
    per block: open and closed membership, theta (0 where the denominator is
    not positive), whether theta is undefined, the arguments of the
    logarithms that give d1, d2, d3 of the transposed block, and the least and
    greatest ratio |ad| / |bc| whose |log| gives its d4. Each value repeats the
    core2x2 expression operation for operation: complex products are spelled
    out in the order CPython evaluates them and moduli use hypot, as
    abs(complex) does.

    The guarded values, theta and the log arguments (x + dmod) / (x - dmod)
    for x in den, S2 and S3, are first computed for every block as if it were
    open, and the closed test, the theta rules and the guards then run on the
    blocks that are not open only. That is exact: an open block has
    fl(den - s) > dmod with s >= 0, hence den > dmod >= 0, so it is closed,
    its theta is defined, and den, S2 and S3 all exceed dmod (hypot never
    rounds below |den|, and the pad moves all three alike).

    pad = (mod, err) gives the entries' moduli and bounds on their errors.
    Every block quantity is then moved by the most those errors allow, in the
    direction that hurts: the Re-products, R, S2 and S3 down, |ad - bc| up,
    and the ratio |ad| / |bc| out to both ends.

    Without pad, the transpose (a, c, b, d) of a block gets the same values
    bit for bit, as products and sums commute, except that its S2 and S3, so
    its d2 and d3 log arguments, are the block's S3 and S2.
    """
    (ar, br, cr, dr), (ai, bi, ci, di) = re.take(entries), im.take(entries)
    sa, sb, sc, sd = sq.take(entries)
    s = tol * ((sa + sd) + (sb + sc))
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
    s2, s3 = np.hypot(den, adc_i + cb_i), np.hypot(den, adc_i - cb_i)
    na, nb = np.hypot(ad_r, ad_i), np.hypot(bc_r, bc_i)
    na_lo = na_hi = na
    nb_lo = nb_hi = nb

    if pad is not None:
        mod, err = pad
        ma, mb, mc, md = mod.take(entries)
        ea, eb, ec, ed = err.take(entries)
        # |xy - x'y'| <= |x| e_y + e_x (|y| + e_y) when |x - x'| <= e_x, |y - y'| <= e_y
        ub, uc, ud = mb + eb, mc + ec, md + ed
        re_ab = re_ab - (ma * eb + ea * ub)
        re_ac = re_ac - (ma * ec + ea * uc)
        re_bd = re_bd - (mb * ed + eb * ud)
        re_cd = re_cd - (mc * ed + ec * ud)
        pad_ad, pad_bc = ma * ed + ea * ud, mb * ec + eb * uc
        pad_det = pad_ad + pad_bc  # bounds the move of ad - bc, R, S2 and S3 alike
        dmod, den = dmod + pad_det, den - pad_det
        s2, s3 = s2 - pad_det, s3 - pad_det
        na_lo, na_hi = na - pad_ad, na + pad_ad
        nb_lo, nb_hi = nb - pad_bc, nb + pad_bc

    re_min = np.minimum(np.minimum(re_ab, re_ac), np.minimum(re_bd, re_cd))  # NaN if one is
    is_open = (re_min > s) & (dmod < den - s)
    # the guarded values, computed as if every block were open; log_args are
    # the arguments of log in core2x2._log_ratio
    theta = dmod / den
    log_args = [(x + dmod) / (x - dmod) for x in (den, s2, s3)]
    is_closed = is_open.copy()
    undefined = np.zeros(is_open.size, dtype=bool)
    rest = (~is_open).nonzero()[0]
    if rest.size:  # from here on s, dmod and den are those of the blocks that are not open
        s, dmod, den = s[rest], dmod[rest], den[rest]
        is_closed[rest] = (re_min[rest] >= -s) & (dmod <= den + s)
        nonpos = den <= 0.0
        theta[rest[nonpos]] = 0.0
        undefined[rest] = nonpos & ~(dmod <= s)  # zero determinant is rank-degenerate, theta 0
        for arg, x in zip(log_args, (den, s2[rest], s3[rest])):
            arg[rest] = np.where(x - dmod > 0.0, arg[rest], np.inf)  # +inf where _log_ratio gives it

    positive = (na_lo > 0.0) & (nb_lo > 0.0)
    ratio4_lo = np.where(positive, na_lo / nb_hi, np.inf)
    ratio4_hi = ratio4_lo if pad is None else np.where(positive, na_hi / nb_lo, np.inf)
    return (is_open, is_closed, theta, undefined, *log_args, ratio4_lo, ratio4_hi)


def certify_matrix(A, tol: float = DEFAULT_TOL, sample: int | None = None, rng=None) -> ContractionCertificate:
    """Classify all functional blocks of A and assemble the certificate.

    Needs at least 2 rows and 2 columns. A failing block decides the class
    immediately but the theta and delta suprema are still accumulated over
    the full enumeration for diagnostics. Blocks with zero determinant and
    nonpositive denominator are rank-degenerate and contribute theta 0;
    a nonzero determinant over a nonpositive denominator leaves theta
    undefined. With sample=k, k blocks are drawn at random instead of
    enumerating everything, and the result is marked non-exhaustive.

    The blocks are evaluated as arrays, CHUNK_BLOCKS at a time. The result is
    bit-identical to testing each block in lexicographic (i, j, p, q) order
    with the scalar core2x2 predicates (in_gamma_open, in_gamma_closed,
    theta2, deltas), which remain the reference: witnesses are the first
    non-open, the first non-closed and the first theta-maximal block, as in a
    block-by-block loop. An exactly symmetric square A (A == A^T) is swept
    by half, see _sweep. The margin tol must be finite and nonnegative.
    """
    M = _certifiable(A, tol)
    blocks = None  # None: every block
    if sample is not None:
        if sample < 1:
            raise ValueError("sample size must be positive")
        if rng is None:
            rng = np.random.default_rng(0)
        total = _block_count(M)
        blocks = np.sort(rng.choice(total, size=min(int(sample), total), replace=False))
    return _sweep(M, tol, blocks)


def certify_perturbed(A, err, tol: float = DEFAULT_TOL) -> ContractionCertificate:
    """Certificate that holds for every matrix within entrywise error err of A.

    err[i][j] >= 0 bounds |X[i,j] - A[i,j]| for the matrices X it covers. The
    sweep of certify_matrix runs with every block quantity moved by the most
    those errors allow, in the direction that hurts. Class 'strict' then certifies
    each such X, and theta, the contraction numbers and the rates bound those
    of X from above. The margin tol * frob2 is taken on the blocks of A. With
    err all zero this is certify_matrix(A, tol).
    """
    M = _certifiable(A, tol)
    E = np.asarray(err, dtype=float)
    if E.shape != M.shape or not np.all(np.isfinite(E)) or np.any(E < 0.0):
        raise ValueError("err must be a finite nonnegative matrix of the same shape")
    return _sweep(M, tol, None, np.ascontiguousarray(E).ravel())


def _certifiable(A, tol: float) -> np.ndarray:
    # a negative margin would loosen the open test past the class boundary
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"margin tol must be finite and nonnegative, got {tol}")
    M = as_matrix(A)
    if M.shape[0] < 2 or M.shape[1] < 2:
        raise ValueError("certification needs at least 2 rows and 2 columns")
    return M


def _block_count(M: np.ndarray) -> int:
    n, m = M.shape
    return (n * (n - 1) // 2) * (m * (m - 1) // 2)


def _full_chunks(rows, cols):
    """(block numbers, entries) of every block, at most CHUNK_BLOCKS at a time.

    rows holds the flat offsets (i * m, j * m) of the row pairs and cols the
    column pairs (p, q), as 2 x count arrays; block k has row pair k // count
    and column pair k % count, where count is the number of column pairs. A
    chunk is a run of whole row pairs, as many as CHUNK_BLOCKS holds, with
    their entries as every row offset plus every column pair, so no block
    number is divided and no index gathered. When one row pair has more
    column pairs than CHUNK_BLOCKS, a chunk is a slice of CHUNK_BLOCKS column
    pairs of one row pair instead.
    """
    n_row_pairs, n_col_pairs = rows.shape[1], cols.shape[1]
    group = max(1, CHUNK_BLOCKS // n_col_pairs)  # row pairs per chunk
    width = min(CHUNK_BLOCKS, n_col_pairs)  # column pairs per chunk
    for first in range(0, n_row_pairs, group):
        last = min(first + group, n_row_pairs)
        for start in range(0, n_col_pairs, width):
            stop = min(start + width, n_col_pairs)
            # one of the two ranges is whole, so the block numbers are a run
            ks = np.arange(first * n_col_pairs + start, (last - 1) * n_col_pairs + stop)
            yield ks, _entries(rows[:, first:last, None], cols[:, None, start:stop])


def _listed_chunks(blocks, rows, cols):
    """(block numbers, entries) of the sorted block numbers blocks, CHUNK_BLOCKS at a time."""
    n_col_pairs = cols.shape[1]
    for start in range(0, blocks.size, CHUNK_BLOCKS):
        ks = blocks[start:start + CHUNK_BLOCKS]
        rp, cp = np.divmod(ks, n_col_pairs)
        yield ks, _entries(rows.take(rp, axis=1), cols.take(cp, axis=1))


def _half_chunks(rows, cols):
    """(block numbers, entries) of the blocks with row pair <= column pair.

    They run in row-major order, and each chunk's pairs come from its own
    positions h in that order, so the n_pairs (n_pairs + 1) / 2 of them are
    never held at once.
    """
    n_pairs = cols.shape[1]
    pairs = np.arange(n_pairs)
    row_start = pairs * n_pairs - pairs * (pairs - 1) // 2  # position of the pair (r, r)
    count = n_pairs * (n_pairs + 1) // 2
    for start in range(0, count, CHUNK_BLOCKS):
        h = np.arange(start, min(start + CHUNK_BLOCKS, count))
        rp = np.searchsorted(row_start, h, side="right") - 1
        cp = h - row_start[rp] + rp
        yield rp * n_pairs + cp, _entries(rows.take(rp, axis=1), cols.take(cp, axis=1))


def _entries(rows, cols):
    """Flat indices (a, b, c, d) = (i m + p, j m + p, i m + q, j m + q), one column per block.

    rows[0] and rows[1] give i m and j m, cols[0] and cols[1] give p and q,
    broadcast against each other. Callers pick listed pairs with
    take(..., axis=1), since the fancy index rows[:, rp] is about ten times
    slower.
    """
    return (cols[:, None] + rows[None]).reshape(4, -1)


class _Witnesses:
    """The witness block numbers of a sweep, from chunks met in increasing number.

    The result is what a loop over the blocks finds: the first non-open and
    the first non-closed block, and the theta extremum, which that loop opens
    with the first defined theta and replaces only by a strictly larger one
    (so a NaN first theta stays). Full, sampled and half sweeps all yield
    increasing numbers. A half sweep skips the mirrors, which share their
    block's tests (the margin sum commutes) and never come first in full order.
    """

    def __init__(self):
        self.not_open = self.not_closed = None
        self.top = (0.0, None)  # theta_sup and its block number: the running theta extremum
        self.all_defined = True

    def add(self, ks, is_open, is_closed, theta, undefined):
        """One chunk: increasing numbers ks above all earlier ones, and the tests of each."""
        if self.not_open is None and not is_open.all():
            self.not_open = int(ks[is_open.argmin()])
        if self.not_closed is None and not is_closed.all():
            self.not_closed = int(ks[is_closed.argmin()])
        if undefined.any():
            self.all_defined = False
            ks, theta = ks[~undefined], theta[~undefined]
            if ks.size == 0:
                return
        if self.top[1] is None:  # the first defined theta opens the extremum
            self.top = (float(theta[0]), int(ks[0]))
        top = float(np.fmax.reduce(theta))  # NaN only when every theta is
        if top > self.top[0]:  # never true while the extremum is NaN
            self.top = (top, int(ks[(theta == top).argmax()]))


def _sweep(M: np.ndarray, tol: float, blocks, err=None) -> ContractionCertificate:
    """Test the given sorted block numbers of M (None: all) and assemble the certificate.

    err, if given, is the raveled entrywise error bound of certify_perturbed.
    When every block is asked for, err is None and M is square and exactly
    symmetric, the block (p, q, i, j) is the mirror (a, c, b, d) of the block
    (i, j, p, q). Then only the blocks with row pair <= column pair are
    swept: the two agree bit for bit on the open, closed, theta and
    theta-defined tests, the margin included (its sum commutes, see
    core2x2.Complex2x2.frob2), and the mirror's d2 and d3 are the block's d3
    and d2; _Witnesses finds the witnesses of the full order among them. The
    padded sweep of certify_perturbed stays full: its pad on bc is not
    symmetric in b and c.

    Otherwise a full sweep walks every block in order by whole row pairs
    (_full_chunks), and a sampled one looks up the pairs of its listed blocks
    (_listed_chunks).
    """
    n, m = M.shape
    rows_i, rows_j = _pair_index(n, 1)
    cols_p, cols_q = _pair_index(m, 1)
    n_col_pairs = cols_p.size  # block k is row pair k // n_col_pairs, column pair k % n_col_pairs
    rows, cols = np.array((rows_i, rows_j)) * m, np.array((cols_p, cols_q))
    total = _block_count(M)
    exhaustive = blocks is None or blocks.size == total
    mirror = blocks is None and err is None and n == m and np.array_equal(M, M.T)
    if mirror:
        chunks = _half_chunks(rows, cols)
    elif blocks is None:
        chunks = _full_chunks(rows, cols)
    else:
        chunks = _listed_chunks(blocks, rows, cols)

    re, im = np.ascontiguousarray(M.real).ravel(), np.ascontiguousarray(M.imag).ravel()
    with np.errstate(over="ignore"):
        mod = np.hypot(re, im)  # the moduli abs() gives
        sq = mod * mod
    if np.isinf(sq).any():  # where frob2 raises
        raise OverflowError("squared modulus too large")
    pad = None if err is None else (mod, err)

    found = _Witnesses()
    log_sups = [1.0, 1.0, 1.0]  # suprema of the d1..d3 log arguments; log(1) = 0
    ratio4_max = ratio4_min = 1.0

    with np.errstate(all="ignore"):
        for ks, entries in chunks:
            is_open, is_closed, theta, undefined, *log_args, ratio4_lo, ratio4_hi = _block_tests(
                re, im, sq, entries, tol, pad)
            # log is monotone, so the sup of the logs is the log of the sup;
            # fmax/fmin and max() skip NaN as the scalar max() of logs does
            sups = [float(np.fmax.reduce(x)) for x in log_args]
            if mirror:
                sups[1] = sups[2] = float(np.fmax(sups[1], sups[2]))
            found.add(ks, is_open, is_closed, theta, undefined)
            log_sups = [max(sup, x) for sup, x in zip(log_sups, sups)]
            ratio4_max = max(ratio4_max, float(np.fmax.reduce(ratio4_hi)))
            ratio4_min = min(ratio4_min, float(np.fmin.reduce(ratio4_lo)))

    theta_sup, extremal = found.top
    if found.not_open is None:
        classification, k = "strict", extremal
    elif found.not_closed is None:
        classification, k = "closed", found.not_open
    else:
        classification, k = "fail", found.not_closed
    rp, cp = divmod(k, n_col_pairs)
    i, j, p, q = int(rows_i[rp]), int(rows_j[rp]), int(cols_p[cp]), int(cols_q[cp])
    witness = BlockWitness(i, j, p, q, Complex2x2(M[i, p], M[j, p], M[i, q], M[j, q]))

    d1, d2, d3 = (math.log(x) for x in log_sups)
    # |log r| is largest at the largest or at the smallest ratio r
    dsup = DeltaQuadruple(d1, d2, d3, max(abs(math.log(ratio4_max)), abs(math.log(ratio4_min))))
    theta = theta_sup if found.all_defined else None
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

