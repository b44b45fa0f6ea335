import math

import numpy as np
import pytest

from conegap.certify import certify_matrix
from conegap.cone import alpha, beta, random_member
from conegap.core2x2 import DEFAULT_TOL, Complex2x2, Phi, phi
from conegap.spectral import dense_spectrum_oracle, power_eigen
from conegap.variational import (
    basis_lower_bound,
    bounds_at,
    ones_lower_bound,
    refine_bounds,
)
from tests.conftest import random_certified_matrix

SYM = np.array([[2.0, 1.0], [1.0, 2.0]])
HERM = np.array([[2, 1 + 1j], [1 - 1j, 2]])


def test_bounds_at_examples():
    b = bounds_at(SYM, [1, 1])
    assert b.lower == pytest.approx(3.0, abs=1e-12)
    assert b.upper == pytest.approx(3.0, abs=1e-12)

    e1 = bounds_at(SYM, [1, 0])
    assert e1.lower == pytest.approx(2.0, abs=1e-12)
    assert math.isinf(e1.upper)

    z = bounds_at(np.zeros((2, 2)), [1, 1])
    assert z.lower == 0.0 and z.upper == 0.0
    assert z.argmin == (0, 0) and z.argmax is None


def test_bounds_at_records_extremal_pairs():
    A = np.diag([1.0, 2.0])
    b = bounds_at(A, [1, 1])
    assert b.lower == pytest.approx(1.0) and b.argmin == (0, 0)
    assert b.upper == pytest.approx(2.0)
    # recorded pair must reproduce the reported extremes
    y = A @ np.array([1.0, 1.0])
    p, q = b.argmax
    assert Phi(Complex2x2(y[p], y[q], 1, 1)) == pytest.approx(b.upper)
    p, q = b.argmin
    assert phi(Complex2x2(y[p], y[q], 1, 1)) == pytest.approx(b.lower)


def reference_bounds(A, x, tol=DEFAULT_TOL):
    """Running extrema of phi and Phi pair by pair, keeping the first extremal pair."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(A, dtype=complex) @ x
    lower, upper, argmin, argmax = math.inf, 0.0, None, None
    for p in range(x.size):
        for q in range(p, x.size):
            pair = Complex2x2(y[p], y[q], x[p], x[q])
            lo, hi = phi(pair, tol), Phi(pair, tol)
            if lo < lower:
                lower, argmin = lo, (p, q)
            if hi > upper:
                upper, argmax = hi, (p, q)
    if math.isinf(lower):
        lower, argmin = 0.0, None
    return repr(lower), repr(upper), argmin, argmax


def test_bounds_at_matches_pair_loop(rng):
    # ties (equal rows, identity), zero images and boundary vectors included
    cases = [(np.ones((4, 4)), np.ones(4)), (np.eye(3), np.ones(3)), (np.diag([2.0, 1.0, 2.0]), np.ones(3)),
             (np.zeros((3, 3)), np.ones(3)), (SYM, [1, 0]), (HERM, [1, 1j])]
    for _ in range(40):
        A, _ = random_certified_matrix(rng, 5)
        x = random_member(rng, 5)
        x[rng.random(5) < 0.3] = 0.0
        if np.any(x != 0):
            cases.append((A, x))
    for A, x in cases:
        b = bounds_at(A, x)
        assert (repr(b.lower), repr(b.upper), b.argmin, b.argmax) == reference_bounds(A, x)


def test_bounds_sandwich_oracle(rng):
    for _ in range(5):
        A, _ = random_certified_matrix(rng, 5)
        lam1 = abs(dense_spectrum_oracle(A)[0])
        for _ in range(20):
            x = random_member(rng, 5)
            b = bounds_at(A, x)
            assert b.lower <= lam1 + 1e-9 * lam1
            assert lam1 <= b.upper + 1e-9 * lam1


def test_bounds_match_projective_aperture(rng):
    A, _ = random_certified_matrix(rng, 4)
    for _ in range(10):
        x = random_member(rng, 4)
        b = bounds_at(A, x)
        y = A @ x
        assert b.lower == alpha(y, x)
        assert b.upper == beta(y, x)


def test_bounds_tight_at_eigenvector(rng):
    A, cert = random_certified_matrix(rng, 4)
    t = power_eigen(A, cert, tol=1e-9)
    b = bounds_at(A, t.h)
    assert b.upper - b.lower <= 1e-6 * abs(t.lam)
    assert b.lower <= abs(t.lam) <= b.upper


def test_bounds_one_sided_on_closed_class():
    # diag(2, 1) only certifies the closed class; the test vector bounds
    # still hold even though no convergence rate exists
    A = np.diag([2.0, 1.0])
    assert certify_matrix(A).classification == "closed"
    assert ones_lower_bound(A) == pytest.approx(1.0, abs=1e-14)
    b = bounds_at(A, [1, 1])
    assert b.lower <= 2.0 <= b.upper


def test_use_transpose_bounds_left_eigenvalue():
    # the left eigenvalue is sandwiched by bounds on the transpose
    A = np.array([[2.0, 1.0], [0.5, 2.0]])
    lam1 = abs(dense_spectrum_oracle(A)[0])
    b = bounds_at(A.T, [1, 1])
    assert b.lower <= lam1 <= b.upper
    assert b.lower == ones_lower_bound(A.T)


def test_basis_lower_bound_examples():
    assert basis_lower_bound(SYM) == pytest.approx(2.0, abs=1e-14)
    assert basis_lower_bound(np.diag([1.0, 3.0])) == pytest.approx(3.0, abs=1e-14)
    assert basis_lower_bound(np.ones((2, 2))) == pytest.approx(1.0, abs=1e-14)


def test_basis_lower_bound_equals_best_basis_vector(rng):
    A, _ = random_certified_matrix(rng, 5)
    best = max(bounds_at(A, np.eye(5)[i]).lower for i in range(5))
    assert basis_lower_bound(A) == pytest.approx(best, rel=1e-12)


def scalar_basis_lower_bound(A):
    """The closed form column by column with Python complex arithmetic."""
    n = A.shape[0]
    best = 0.0
    for i in range(n):
        col_min = math.inf
        for j in range(n):
            aji = complex(A[j, i])
            if aji != 0:
                col_min = min(col_min, (aji * complex(A[i, i]).conjugate()).real / abs(aji))
        if not math.isinf(col_min) and col_min > best:
            best = col_min
    return best


def test_basis_lower_bound_matches_scalar_loop(rng):
    for k in range(60):
        n = int(rng.integers(1, 7))
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        if k % 3 == 1:  # zero entries, a zero diagonal entry, a zero column
            A[rng.random((n, n)) < 0.4] = 0.0
            A[0, 0] = 0.0
            A[:, n - 1] = 0.0
        elif k % 3 == 2:  # nonnegative real: all terms of one sign
            A = np.abs(A.real) * (rng.random((n, n)) < 0.7)
        assert repr(basis_lower_bound(A)) == repr(scalar_basis_lower_bound(A))
    huge = np.array([[1.5e308 + 1.5e308j, 1.0], [1.0, 1.0]])  # finite parts, modulus overflows
    for f in (basis_lower_bound, scalar_basis_lower_bound):
        with pytest.raises(OverflowError):
            f(huge)


def test_ones_lower_bound_examples():
    assert ones_lower_bound(SYM) == pytest.approx(3.0, abs=1e-12)
    assert ones_lower_bound(np.ones((2, 2))) == pytest.approx(2.0, abs=1e-12)
    assert ones_lower_bound(np.diag([1.0, 2.0])) == pytest.approx(1.0, abs=1e-12)


def test_refine_examples():
    cert = certify_matrix(SYM)
    hist = refine_bounds(SYM, cert, 0)
    assert len(hist) == 1
    assert hist[0].lower == pytest.approx(3.0, abs=1e-12)
    assert hist[0].upper == pytest.approx(3.0, abs=1e-12)

    R1 = np.ones((2, 2))
    hist = refine_bounds(R1, certify_matrix(R1), 1)
    assert hist[1].lower == pytest.approx(2.0, abs=1e-12)
    assert hist[1].upper == pytest.approx(2.0, abs=1e-12)


def test_refine_brackets_oracle_with_shrinking_gap():
    cert = certify_matrix(HERM)
    lam1 = abs(dense_spectrum_oracle(HERM)[0])
    hist = refine_bounds(HERM, cert, 16)
    widths = []
    for b in hist:
        assert b.lower <= lam1 + 1e-12
        assert lam1 <= b.upper + 1e-12
        widths.append(b.upper - b.lower)
    assert widths[-1] <= 1e-10
    for a, b in zip(widths, widths[1:]):
        if a > 1e-13:
            assert b <= a * (cert.eta_refined + 1e-9)


def test_refine_early_stop(rng):
    A, cert = random_certified_matrix(rng, 4)
    hist = refine_bounds(A, cert, 200, gap_rtol=1e-6)
    assert len(hist) < 201
    last = hist[-1]
    assert last.upper - last.lower <= 1e-6 * last.lower


def test_refine_gap_reaches_relative_tolerance(rng):
    for _ in range(5):
        A, cert = random_certified_matrix(rng)
        lam1 = abs(dense_spectrum_oracle(A)[0])
        hist = refine_bounds(A, cert, 200, gap_rtol=1e-6)
        last = hist[-1]
        assert last.upper - last.lower <= 1e-6 * lam1 * (1 + 1e-9)


def test_input_validation():
    cert_sym = certify_matrix(SYM)
    with pytest.raises(ValueError):
        bounds_at(SYM, [1, -1])  # not a cone member
    with pytest.raises(ValueError):
        bounds_at(SYM, [0, 0])
    with pytest.raises(ValueError):
        bounds_at(SYM, [1, 1, 1])
    with pytest.raises(ValueError):
        bounds_at(np.ones((2, 3)), [1, 1, 1])
    with pytest.raises(ValueError):
        refine_bounds(np.eye(2), certify_matrix(np.eye(2)), 3)
    with pytest.raises(ValueError):
        refine_bounds(SYM, cert_sym, -1)


@pytest.mark.parametrize("A, x, message", [
    (np.eye(2), [0, 0], "test vector must be nonzero"),
    (np.eye(2), [1, -1], "test vector is not a member of the closed cone"),
    (np.diag([1.0, -1.0]), [1, 1], "matrix does not map the test vector into the cone"),
])
def test_bounds_at_messages(A, x, message):
    with pytest.raises(ValueError) as info:
        bounds_at(A, x)
    assert str(info.value) == message
