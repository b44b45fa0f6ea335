"""The array block sweep against the scalar reference, bit for bit."""

import math
import tracemalloc

import numpy as np
import pytest

from conegap import certify
from conegap.certify import certify_matrix
from conegap.cli import GRID_PRESETS, main
from conegap.core2x2 import DEFAULT_TOL, Complex2x2, in_gamma_closed, in_gamma_open, theta2
from conegap.fileio import parse_kernel
from conegap.kernel import nystrom_matrix
from tests.reference_certify import reference_certify


@pytest.fixture(params=[certify.CHUNK_BLOCKS, 7], ids=["chunk-default", "chunk-7"])
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


# libm's pow(x, 2.0), which abs(z) ** 2 calls, is not x * x for this x
AWKWARD_SCALE = 8.237813583927716


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
