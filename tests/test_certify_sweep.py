"""The array block sweep against the scalar reference, bit for bit."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conegap import certify
from conegap.certify import certify_matrix, certify_perturbed
from conegap.cli import GRID_PRESETS, main
from conegap.core2x2 import DEFAULT_TOL, Complex2x2, in_gamma_closed, in_gamma_open, theta2
from conegap.fileio import parse_kernel
from conegap.kernel import nystrom_matrix
from tests.reference_certify import reference_certify


# A full sweep's chunks hold whole row pairs, or slices of one row pair when it
# has more column pairs than a chunk holds. With six columns (15 column pairs)
# chunks of 14, 15 and 16 blocks hold one block less than, exactly and one
# block more than a row pair, so the first cuts each row pair in two.
@pytest.fixture(params=[certify.CHUNK_BLOCKS, 7, 14, 15, 16],
                ids=["chunk-default", "chunk-7", "chunk-14", "chunk-15", "chunk-16"])
def chunk(request, monkeypatch):
    monkeypatch.setattr(certify, "CHUNK_BLOCKS", request.param)
    return request.param


def assert_bit_identical(A, sample=None, seed=None, tol=DEFAULT_TOL):
    """Certificates equal field by field; repr also tells apart -0.0 and 0.0."""
    def rng():
        return None if seed is None else np.random.default_rng(seed)

    got = certify_matrix(A, tol, sample=sample, rng=rng())
    want = reference_certify(A, tol, sample=sample, rng=rng())
    assert got == want
    assert repr(got) == repr(want)
    return got


def random_matrices(rng, count):
    """Strict, closed, fail and near-rank-one inputs of mixed shapes."""
    out = []
    for k in range(count):
        n, m = (int(v) for v in rng.integers(2, 7, 2))
        kind = k % 4
        if kind == 0:  # positive base with a small relative twist: mostly strict
            eps = rng.uniform(0.0, 0.1)
            A = rng.uniform(0.5, 2.0, (n, m)) * (1.0 + 1j * eps * rng.uniform(-1.0, 1.0, (n, m)))
        elif kind == 1:  # nonnegative with zeros: closed
            A = rng.uniform(0.5, 2.0, (n, m)) * (rng.uniform(size=(n, m)) > 0.3)
        elif kind == 2:  # unstructured complex: fail
            A = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
        else:  # near rank one: theta close to 0, large d-ratios
            u, v = rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, m) * np.exp(0.3j * rng.normal(size=m))
            A = np.outer(u, v) * (1.0 + 1e-7 * rng.normal(size=(n, m)))
        out.append(A)
    return out


def test_random_matrices_match_reference(chunk):
    rng = np.random.default_rng(2024)
    classes = set()
    for A in random_matrices(rng, 48):
        classes.add(assert_bit_identical(A).classification)
    assert classes == {"strict", "closed", "fail"}


def test_larger_matrices_match_reference():
    rng = np.random.default_rng(11)
    base = rng.uniform(0.5, 2.0, (9, 8))
    assert assert_bit_identical(base * (1.0 + 0.05j * rng.uniform(-1.0, 1.0, (9, 8)))).strict
    A = base.copy()
    A[4, 5] = 0.0  # a zero entry in a positive matrix: closed, not open
    assert assert_bit_identical(A).classification == "closed"
    A[6, 2] = -1.0
    assert assert_bit_identical(A).classification == "fail"


def six_column_matrices(rng):
    """Strict, closed-with-zeros and failing inputs with 15 column pairs, 5 x 6 and 6 x 6."""
    out = []
    for n in (5, 6):
        strict = rng.uniform(1.0, 2.0, (n, 6)) * np.exp(0.1j * rng.uniform(-1.0, 1.0, (n, 6)))
        closed = rng.uniform(1.0, 2.0, (n, 6)) * np.exp(1j * rng.uniform(-math.pi, math.pi))
        closed[1, [0, 4]] = closed[n - 1, 2] = 0.0
        fail = strict.copy()
        fail[n - 2, 3] *= np.exp(2.5j)
        out += [strict, closed, fail]
    return out


def tiny_matrices(rng):
    """Six-column inputs near 1e-160, whose block products are subnormal or zero.

    Scaled whole, most blocks stay open in subnormal arithmetic. One entry
    scaled further makes its products with the others round to zero, so
    blocks that are not open and zero |ad| or |bc| sit among open ones.
    """
    out = []
    for n in (5, 6):
        A = 1e-160 * rng.uniform(1.0, 2.0, (n, 6)) * np.exp(0.1j * rng.uniform(-1.0, 1.0, (n, 6)))
        B = A.copy()
        B[2, 3] *= 1e-4
        out += [A, B]
    return out


def test_six_column_inputs_match_reference(chunk):
    rng = np.random.default_rng(606)
    classes = set()
    for A in six_column_matrices(rng) + tiny_matrices(rng):
        classes.add(assert_bit_identical(A).classification)
        assert_bit_identical(A, sample=40, seed=6)
        got = certify_perturbed(A, np.zeros(A.shape))
        assert repr(got) == repr(reference_certify(A))
    assert classes == {"strict", "closed", "fail"}


def test_padded_certificate_does_not_depend_on_the_chunks(chunk, monkeypatch):
    rng = np.random.default_rng(607)
    for A in six_column_matrices(rng) + tiny_matrices(rng):
        err = 1e-3 * np.abs(A)
        got = repr(certify_perturbed(A, err))
        monkeypatch.setattr(certify, "CHUNK_BLOCKS", A.size**2)  # every block in one chunk
        assert got == repr(certify_perturbed(A, err))
        monkeypatch.setattr(certify, "CHUNK_BLOCKS", chunk)


def test_tiny_inputs_put_guarded_blocks_among_open_ones(monkeypatch):
    for A in tiny_matrices(np.random.default_rng(608))[1::2]:
        n, m = A.shape
        blocks = [Complex2x2(*(complex(A[r, c]) for r, c in ((i, p), (j, p), (i, q), (j, q))))
                  for i, j in itertools.combinations(range(n), 2)
                  for p, q in itertools.combinations(range(m), 2)]
        # most blocks are open, some are not, and some |ad| or |bc|
        # underflows to zero, so the guards run inside an open chunk
        assert 0.5 < np.mean([in_gamma_open(T) for T in blocks]) < 1.0
        assert any(T.a * T.d == 0 or T.b * T.c == 0 for T in blocks)
        monkeypatch.setattr(certify, "CHUNK_BLOCKS", len(blocks))  # every block in one chunk
        assert_bit_identical(A)


@pytest.mark.parametrize("shape", [(2, 40), (40, 2), (3, 25)])
def test_full_sweep_chunks_never_exceed_the_chunk_size(shape, monkeypatch):
    # 780 column pairs at 2 x 40: each row pair is cut into slices
    rng = np.random.default_rng(609)
    A = rng.uniform(1.0, 2.0, shape) * np.exp(0.7j)
    A[1, 1] = 0.0  # closed: the non-open path runs in some chunks
    n, m = shape
    counts = count_blocks(monkeypatch)
    for size in (7, 100, 779, 780, 781, 4096):
        monkeypatch.setattr(certify, "CHUNK_BLOCKS", size)
        counts.clear()
        assert assert_bit_identical(A).classification == "closed"
        assert max(counts) <= size
        assert sum(counts) == (n * (n - 1) // 2) * (m * (m - 1) // 2)


def test_wide_sweep_memory_stays_small():
    # 499 500 column pairs in one row pair: chunks are slices of it
    rng = np.random.default_rng(1)
    A = rng.uniform(1.0, 2.0, (2, 1000)) * np.exp(0.1j * rng.uniform(-1.0, 1.0, (2, 1000)))
    tracemalloc.start()
    try:
        cert = certify_matrix(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.strict and cert.exhaustive
    # the column pairs take 8 MB here, twice while they are stacked; a chunk
    # of at most CHUNK_BLOCKS blocks adds under 2 MB
    assert peak < 24 * 2**20


def _preset_grid(tmp_path, name):
    path = tmp_path / f"{name}.json"
    assert main(["--report", str(path), "grid", "--preset", name, "--n", "9"]) == 0
    return parse_kernel(str(path))


def test_kernel_presets_match_reference(tmp_path, capsys, chunk):
    for name in sorted(GRID_PRESETS):
        grid = _preset_grid(tmp_path, name)
        assert_bit_identical(grid.values)
        assert_bit_identical(nystrom_matrix(grid))
    capsys.readouterr()


@pytest.mark.parametrize("shape", [(2, 9), (9, 2), (3, 7), (7, 3)])
def test_rectangular_match_reference(shape, chunk):
    rng = np.random.default_rng(sum(shape))
    A = rng.uniform(0.5, 2.0, shape) * (1.0 + 0.1j * rng.uniform(-1.0, 1.0, shape))
    assert_bit_identical(A)


def test_zero_and_identity_match_reference(chunk):
    zero = assert_bit_identical(np.zeros((4, 3)))
    assert zero.classification == "closed" and zero.theta == 0.0  # every block rank-degenerate
    eye = assert_bit_identical(np.eye(5))
    assert eye.classification == "closed" and eye.theta == 1.0


def test_degenerate_and_undefined_theta_match_reference(chunk):
    degenerate = [[1.0, 1.0], [-1.0, -1.0]]  # det 0, denominator -2: theta 0
    assert assert_bit_identical(degenerate).theta == 0.0
    undefined = [[1.0, -1.0], [1.0, 1.0]]  # det 2, denominator 0: theta undefined
    assert assert_bit_identical(undefined).theta is None
    # both kinds among ordinary blocks, in several chunks
    A = np.ones((5, 5), dtype=complex) + 0.2 * np.eye(5)
    A[3] = 0.0
    cert = assert_bit_identical(A)
    assert cert.theta is not None and cert.theta > 0.0
    A[1, 4] = -1.0
    assert assert_bit_identical(A).theta is None


def _flip_point(block_at, pred, lo, hi):
    """Bisect t in [lo, hi] to adjacent floats where pred(block_at(t)) changes."""
    p_lo = pred(block_at(lo))
    assert pred(block_at(hi)) != p_lo
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo
        if pred(block_at(mid)) == p_lo:
            lo = mid
        else:
            hi = mid


def _ulps_around(t, k=4):
    out = [t]
    up = down = t
    for _ in range(k):
        up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
        out += [up, down]
    return out


def _open(T):
    return in_gamma_open(T, DEFAULT_TOL)


def _closed(T):
    return in_gamma_closed(T, DEFAULT_TOL)


def _theta_defined(T):
    return theta2(T) is not None or abs(T.det) <= DEFAULT_TOL * T.frob2()


# (block (a, b, c, d) as a function of t, predicate that flips, bracket)
BOUNDARIES = [
    # Re(a conj b) and Re(b conj d) against +tol*frob2
    (lambda t: (1.0, t, 1.0, 1.0), _open, 0.0, 1e-9),
    # Re(a conj b) against -tol*frob2
    (lambda t: (1.0, -t, 1.0, 1.0), _closed, 0.0, 1e-9),
    # |det| against the denominator minus tol*frob2
    (lambda t: (1.0, t, t, 1.0), _open, 1e-7, 1e-5),
    # |det| against the denominator plus tol*frob2: det = 2 + i t, denominator 2
    (lambda t: (1.0, 1j, 1j, 1.0 + 1j * t), _closed, 0.0, 1e-4),
    # denominator t - 1 crosses 0 under det t + 1: theta defined, then undefined
    (lambda t: (1.0, 1.0, -1.0, t), _theta_defined, 0.5, 1.5),
    # det t over a negative denominator: rank-degenerate, then undefined
    (lambda t: (1.0, -1.0, 1.0, -1.0 + t), _theta_defined, 0.0, 1e-9),
]


# libm's pow(x, 2.0), which abs(z) ** 2 calls, is not x * x for this x. Both
# sides square a modulus by multiplication, so a pow put back on either side
# breaks their bitwise agreement at this scale.
AWKWARD_SCALE = 8.237813583927716


def test_frob2_squares_moduli_by_multiplication():
    assert Complex2x2(AWKWARD_SCALE, 0, 0, 0).frob2() == AWKWARD_SCALE * AWKWARD_SCALE


@pytest.mark.parametrize("scale", [1.0, AWKWARD_SCALE])
@pytest.mark.parametrize("case", range(len(BOUNDARIES)))
def test_near_boundary_blocks_match_reference(case, scale, chunk):
    assert AWKWARD_SCALE ** 2 != AWKWARD_SCALE * AWKWARD_SCALE
    family, pred, lo, hi = BOUNDARIES[case]

    def entries(t):
        return tuple(scale * v for v in family(t))

    def block_at(t):
        return Complex2x2(*(complex(v) for v in entries(t)))

    t0 = _flip_point(block_at, pred, lo, hi)
    seen = set()
    base = np.random.default_rng(case).uniform(0.5, 2.0, (4, 4))
    for t in _ulps_around(t0):
        a, b, c, d = entries(t)
        seen.add(pred(block_at(t)))
        A = np.array([[a, c], [b, d]], dtype=complex)  # the block T(0, 1; 0, 1) of A
        assert_bit_identical(A)
        big = base.astype(complex)
        big[1:3, 1:3] = A  # the same block among strict ones, as T(1, 2; 1, 2)
        assert_bit_identical(big)
    assert seen == {True, False}  # both sides of the boundary were tested


# blocks (a, b, c, d) and tolerances where the two sides of one comparison are
# equal, so only the strictness of that comparison decides
EXACT_TIES = [
    ((0.5, 0.5, 0.5, 0.5), 0.25),  # every Re product == s: not open
    ((2.0, 1 + 1j, 2 + 1j, 2 + 1j), 0.125),  # only Re(a conj b) == s: not open
    ((1.0, 1.0, 3.0, -1.0), 0.25),  # Re(c conj d) == -s: closed
    ((0.5, 2.0, 2.0, 0.5), 1 / 17),  # |det| == denominator - s: not open
    ((1.0, 1.0, 1.0, -1.0), 0.5),  # |det| == denominator + s: closed
    ((0.5, 1.0, -1.0, 0.5), 0.5),  # |det| == s over a nonpositive denominator: theta 0
]


@pytest.mark.parametrize("block, tol", EXACT_TIES)
def test_exact_ties_match_reference(block, tol):
    a, b, c, d = block
    assert_bit_identical(np.array([[a, c], [b, d]]), tol=tol)


@pytest.mark.parametrize("k", [1, 7, 50, 36, 10**6])
def test_sampled_mode_matches_reference(k, chunk):
    rng = np.random.default_rng(k)
    A = rng.uniform(0.5, 2.0, (4, 4)) * (1.0 + 0.1j * rng.uniform(-1.0, 1.0, (4, 4)))
    A[2, 1] = -0.5  # some failing blocks, so the sample decides what it sees
    cert = assert_bit_identical(A, sample=k, seed=3)
    assert cert.exhaustive == (k >= 36)  # a 4x4 matrix has 36 blocks
    assert_bit_identical(A, sample=k)  # default generator


def test_witnesses_found_in_later_chunks(monkeypatch):
    monkeypatch.setattr(certify, "CHUNK_BLOCKS", 7)
    # 4x4: row pairs and column pairs are numbered 0..5, block k = 6 * row pair + column pair,
    # and the first block touching entry (3, 3) is k = 14, in the third chunk
    A = np.ones((4, 4))
    A[3, 3] = 2.0  # nine blocks tie at theta 1/3, the others have theta 0
    cert = assert_bit_identical(A)
    assert cert.strict and cert.theta == 1.0 / 3.0
    assert (cert.witness.i, cert.witness.j, cert.witness.p, cert.witness.q) == (0, 3, 0, 3)

    A[3, 3] = 0.0  # closed, first non-open block is k = 14
    cert = assert_bit_identical(A)
    assert cert.classification == "closed"
    assert (cert.witness.i, cert.witness.j, cert.witness.p, cert.witness.q) == (0, 3, 0, 3)

    A[3, 3] = -1.0
    A[1, 2] = 0.0  # a closed block at k = 1, the first failing block at k = 14
    cert = assert_bit_identical(A)
    assert cert.classification == "fail"
    assert (cert.witness.i, cert.witness.j, cert.witness.p, cert.witness.q) == (0, 3, 0, 3)


def test_fail_delta_suprema_come_from_every_chunk(monkeypatch):
    monkeypatch.setattr(certify, "CHUNK_BLOCKS", 7)
    A = np.ones((4, 4))
    A[1, 1] = -1.0  # block k = 0 fails; every block of the first chunk has d4 = 0
    A[3, 3] = 5.0  # d4 = log 5 first at block k = 14, in the third chunk
    cert = assert_bit_identical(A)
    assert cert.classification == "fail"
    assert (cert.witness.i, cert.witness.j, cert.witness.p, cert.witness.q) == (0, 1, 0, 1)
    assert cert.delta_sup.d4 == math.log(5.0)


def test_sampled_mode_memory_stays_small():
    # 2016 x 2016 = 4M blocks at n = 64; the sample must not enumerate them
    rng = np.random.default_rng(0)
    A = rng.uniform(0.5, 2.0, (64, 64)) * (1.0 + 0.05j * rng.uniform(-1.0, 1.0, (64, 64)))
    tracemalloc.start()
    try:
        cert = certify_matrix(A, sample=20000, rng=np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not cert.exhaustive
    assert peak < 32 * 2**20


def test_zero_error_perturbed_matches_reference(chunk):
    rng = np.random.default_rng(77)
    for A in random_matrices(rng, 24):
        got = certify_perturbed(A, np.zeros(A.shape))
        want = reference_certify(A)
        assert got == want
        assert repr(got) == repr(want)


def test_perturbed_certificate_covers_every_perturbation(chunk):
    # every X within err of A is strict with theta, deltas and rates at most the padded ones
    rng = np.random.default_rng(78)
    strict_seen = nonstrict_seen = 0
    for A in random_matrices(rng, 24):
        if not certify_matrix(A).strict:
            continue
        for rel in (1e-12, 1e-6, 1e-3, 3e-2, 0.3):
            err = rel * np.abs(A)
            padded = certify_perturbed(A, err)
            if not padded.strict:
                nonstrict_seen += 1
                continue
            strict_seen += 1
            for k in range(20):
                radius = 1.0 if k < 10 else rng.uniform(size=A.shape)  # corners first
                X = A + err * radius * np.exp(2j * np.pi * rng.uniform(size=A.shape))
                cert = certify_matrix(X)
                assert cert.strict
                assert cert.theta <= padded.theta
                assert cert.eta_refined <= padded.eta_refined
                for d, d_pad in zip(cert.delta_sup.as_tuple(), padded.delta_sup.as_tuple()):
                    assert d <= d_pad
    assert strict_seen and nonstrict_seen


def test_perturbed_rejects_bad_error_bounds():
    A = np.ones((3, 3))
    for err in (np.ones((3, 2)), -np.ones((3, 3)), np.full((3, 3), np.nan), np.full((3, 3), np.inf)):
        with pytest.raises(ValueError):
            certify_perturbed(A, err)


def test_perturbed_2x2_bounds_hold_at_searched_worst_cases():
    # For a 2x2 matrix the one block is (a, b, c, d) = (A00, A10, A01, A11).
    # Each entry moves by its full error at one of 8 phases, 8^4 matrices per
    # case, so the search nearly attains the worst move of every block quantity.
    rng = np.random.default_rng(79)
    unit = np.exp(2j * np.pi * np.arange(8) / 8)
    moves = np.array(list(itertools.product(unit, repeat=4)))  # columns a, b, c, d
    strict_seen = nonstrict_seen = 0
    while strict_seen < 60:
        T = rng.uniform(0.5, 2.0, 4) * np.exp(1j * rng.uniform(-0.7, 0.7, 4))
        A = np.array([[T[0], T[2]], [T[1], T[3]]])
        if not certify_matrix(A).strict:
            continue
        for rel in np.geomspace(1e-3, 0.3, 10):
            err = rel * np.abs(T)
            padded = certify_perturbed(A, np.array([[err[0], err[2]], [err[1], err[3]]]))
            if not padded.strict:
                nonstrict_seen += 1
                break
            strict_seen += 1
            X = (T + err * moves).ravel()
            entries = tuple(np.arange(k, X.size, 4) for k in range(4))
            is_open, _, theta, _, *log_args, ratio_lo, ratio_hi = certify._block_tests(
                X.real, X.imag, np.abs(X) ** 2, entries, DEFAULT_TOL)
            assert is_open.all()
            assert theta.max() <= padded.theta
            bound = padded.delta_sup
            for arg, d in zip(log_args, (bound.d1, bound.d2, bound.d3)):
                assert np.log(arg.max()) <= d
            assert np.abs(np.log(ratio_hi)).max() <= bound.d4
    assert nonstrict_seen


# -- exactly symmetric inputs: each mirror pair of blocks is swept once --------


def symmetric(B):
    """The exactly symmetric matrix with the upper triangle of B."""
    return np.triu(B) + np.triu(B, 1).T


def count_blocks(monkeypatch):
    """Record how many blocks each _block_tests call evaluates."""
    counts = []
    real = certify._block_tests

    def counting(re, im, sq, entries, *args, **kwargs):
        counts.append(entries[0].size)
        return real(re, im, sq, entries, *args, **kwargs)

    monkeypatch.setattr(certify, "_block_tests", counting)
    return counts


def test_symmetric_matrices_match_reference(chunk):
    # n = 2..12, each with a strict, a closed and a failing kind; the strict
    # and the failing kinds are complex symmetric, not Hermitian
    rng = np.random.default_rng(13)
    classes = set()
    for k in range(33):
        n, kind = 2 + k % 11, k % 3
        if kind == 0:
            B = rng.uniform(0.5, 2.0, (n, n)) * (1.0 + 0.05j * rng.uniform(-1.0, 1.0, (n, n)))
        elif kind == 1:
            B = rng.uniform(0.5, 2.0, (n, n)) * (rng.uniform(size=(n, n)) > 0.3)
        else:
            B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        A = symmetric(B)
        assert np.array_equal(A, A.T)
        classes.add(assert_bit_identical(A).classification)
    assert classes == {"strict", "closed", "fail"}


def test_symmetric_kernel_presets_are_swept_by_half(tmp_path, capsys, monkeypatch, chunk):
    counts = count_blocks(monkeypatch)
    for name in ("constant", "affine", "gaussian"):
        values = _preset_grid(tmp_path, name).values
        assert np.array_equal(values, values.T)
        counts.clear()
        assert_bit_identical(values)
        assert sum(counts) == 36 * 37 // 2  # 36 pairs of the 9 nodes
    capsys.readouterr()


def test_symmetric_zeros_and_undefined_theta_match_reference(chunk):
    A = np.ones((6, 6), dtype=complex) + 0.2 * np.eye(6)
    A[3] = A[:, 3] = 0.0  # rank-degenerate blocks: theta 0
    cert = assert_bit_identical(A)
    assert cert.classification == "closed" and cert.theta is not None
    A[1, 4] = A[4, 1] = -1.0  # nonzero determinants over nonpositive denominators
    assert assert_bit_identical(A).theta is None
    # == holds for 0.0 and -0.0, so this matrix is swept by half too
    A[0, 5], A[5, 0] = 0.0, -0.0
    assert_bit_identical(A)
    assert_bit_identical(np.zeros((5, 5)))
    assert_bit_identical(np.eye(6))


def _corner_blocks(M):
    """The block (0, 2; 1, 2) of a 3x3 symmetric M and its mirror (1, 2; 0, 2)."""
    block = Complex2x2(M[0, 1], M[2, 1], M[0, 2], M[2, 2])
    mirror = Complex2x2(M[1, 0], M[2, 0], M[1, 2], M[2, 2])
    assert (mirror.a, mirror.b, mirror.c, mirror.d) == (block.a, block.c, block.b, block.d)
    return block, mirror


def _corner(a, b, c, diagonal):
    """3x3 symmetric family whose block (0, 2; 1, 2) is (a, b, c, t)."""
    return lambda t: np.array([[diagonal[0], a, c], [a, diagonal[1], b], [c, b, t]])


# The margin tol * frob2 of a block (a, b, c, d) sums the squares as
# (a + d) + (b + c), the same floats for its mirror (a, c, b, d) since
# addition commutes. Each family below walks the quantity that the margin
# decides across it, at t near the flip; under the former order
# ((a + b) + c) + d the block and its mirror rounded apart there: (family,
# predicate, bracket, tol, witness (i, j, p, q) where the predicate fails).
def _open_at(tol):
    return lambda T: in_gamma_open(T, tol)


def _closed_at(tol):
    return lambda T: in_gamma_closed(T, tol)


def _defined_at(tol):
    return lambda T: theta2(T) is not None or abs(T.det) <= tol * T.frob2()


A1, B1, C1 = 1.6284737507154365, 0.8947242026384399, 1.1205097860825588
A2, B2, C2 = 0.37211168264273503, 1.0166764271937312, 0.9405289515067233
A3, B3, X3 = 0.9248566552999128, 1.0341248829387262, 0.314718951157425
MIRROR_BOUNDARIES = [
    # Re(b conj d) against the margin: the half block (0, 2; 1, 2), block 5,
    # is the first non-open block, ahead of its mirror (1, 2; 0, 2), block 7
    (_corner(A1, B1, C1, (C1 / 2, B1 / 2)), _open_at(DEFAULT_TOL), 0.0, 1e-6, DEFAULT_TOL, (0, 2, 1, 2)),
    # Re(b conj d) against minus the margin: the half block is the first failing block
    (lambda t, f=_corner(A2, B2, C2, (C2 / 2, B2 / 2)): f(-t), _closed_at(DEFAULT_TOL), 0.0, 1e-6,
     DEFAULT_TOL, (0, 2, 1, 2)),
    # |det| against the margin over a negative denominator: the block and its
    # mirror leave theta undefined together
    (_corner(A3, -X3, B3, (1.0, 1.0)), _defined_at(0.25), 0.1, X3 * B3 / A3, 0.25, None),
]


@pytest.mark.parametrize("scale", [1.0, AWKWARD_SCALE])
@pytest.mark.parametrize("case", range(len(MIRROR_BOUNDARIES)))
def test_mirror_margins_decide_near_boundary_blocks(case, scale, chunk):
    family, pred, lo, hi, tol, witness = MIRROR_BOUNDARIES[case]
    t0 = _flip_point(lambda t: _corner_blocks(family(t))[0], pred, lo, hi)
    seen = set()
    for t in _ulps_around(t0, 6):
        M = scale * family(t)
        block, mirror = _corner_blocks(M)
        cert = assert_bit_identical(M, tol=tol)
        assert pred(block) == pred(mirror)
        seen.add(pred(block))
        if not pred(block):
            w = cert.witness
            assert ((w.i, w.j, w.p, w.q) if witness else cert.theta) == witness
    if scale == 1.0:  # the walk straddles the boundary
        assert seen == {True, False}


def test_symmetric_inputs_sweep_half_the_blocks(monkeypatch):
    counts = count_blocks(monkeypatch)
    rng = np.random.default_rng(14)
    A = symmetric(rng.uniform(0.5, 2.0, (7, 7)) * (1.0 + 0.05j * rng.uniform(-1.0, 1.0, (7, 7))))
    pairs = 7 * 6 // 2
    certify_matrix(A)
    assert sum(counts) == pairs * (pairs + 1) // 2
    counts.clear()
    B = A.copy()
    B[2, 5] = complex(math.nextafter(B[2, 5].real, math.inf), B[2, 5].imag)
    assert not np.array_equal(B, B.T)
    assert_bit_identical(B)
    assert sum(counts) == pairs * pairs
    counts.clear()
    certify_matrix(A, sample=pairs * pairs)  # a sample lists its blocks, every one
    assert sum(counts) == pairs * pairs


def test_perturbed_symmetric_input_keeps_the_full_sweep(monkeypatch, chunk):
    # the pads of a block and of its mirror sum in another order
    counts = count_blocks(monkeypatch)
    rng = np.random.default_rng(15)
    A = symmetric(rng.uniform(0.5, 2.0, (6, 6)) * (1.0 + 0.05j * rng.uniform(-1.0, 1.0, (6, 6))))
    got = certify_perturbed(A, np.zeros(A.shape))
    want = reference_certify(A)
    assert got == want and repr(got) == repr(want)
    assert sum(counts) == 15 * 15
    counts.clear()
    E = symmetric(1e-9 * rng.uniform(size=A.shape))
    padded = certify_perturbed(A, E)
    assert sum(counts) == 15 * 15
    assert padded.strict and padded.theta >= want.theta


def test_symmetric_sweep_memory_stays_small():
    # 2016 x 2017 / 2 half blocks at n = 64; they are made chunk by chunk
    rng = np.random.default_rng(0)
    A = symmetric(rng.uniform(0.5, 2.0, (64, 64)) * (1.0 + 0.05j * rng.uniform(-1.0, 1.0, (64, 64))))
    tracemalloc.start()
    try:
        cert = certify_matrix(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.strict and cert.exhaustive
    assert peak < 32 * 2**20


def test_witnesses_are_the_least_numbers_over_chunks():
    # chunks come in increasing block number, so the first witness found stays
    yes, no = np.ones(2, dtype=bool), np.zeros(2, dtype=bool)
    found = certify._Witnesses()
    found.add(np.array([0, 1]), yes, yes, np.array([0.5, 0.5]), yes)  # undefined: skipped
    assert found.top == (0.0, None) and not found.all_defined
    found.add(np.array([2, 3]), yes, yes, np.array([0.5, 0.25]), no)
    assert (found.not_open, found.not_closed) == (None, None)
    assert found.top == (0.5, 2)
    found.add(np.array([5, 6]), np.array([True, False]), yes, np.array([0.25, 0.5]), no)
    assert (found.not_open, found.not_closed) == (6, None)
    assert found.top == (0.5, 2)  # a later equal theta does not replace it
    found.add(np.array([8, 9]), no, np.array([True, False]), np.array([0.25, 0.75]), no)
    assert (found.not_open, found.not_closed) == (6, 9)
    assert found.top == (0.75, 9)  # a strictly larger one does
    found.add(np.array([10, 11]), no, no, np.array([0.875, 0.875]), np.array([True, False]))
    assert (found.not_open, found.not_closed) == (6, 9)
    assert found.top == (0.875, 11)  # the defined one of the chunk

    first_nan = certify._Witnesses()
    first_nan.add(np.array([4, 7]), yes, yes, np.array([math.nan, 0.5]), no)
    first_nan.add(np.array([9]), yes[:1], yes[:1], np.array([2.0]), no[:1])
    theta, k = first_nan.top
    assert math.isnan(theta) and k == 4 and first_nan.all_defined  # NaN first: it stays
