import math

import numpy as np
import pytest

from conegap.certify import (
    ContractionCertificate,
    certify_matrix,
    certify_perturbed,
    product_gap_bound,
)
from conegap.cone import distance, random_member
from conegap.core2x2 import Complex2x2, DeltaQuadruple, theta2
from conegap.kernel import KernelGrid, kernel_theta
from tests.conftest import random_certified_matrix
from tests.reference_certify import reference_certify, submatrix_T

LOG4 = math.log(4.0)
SYM = [[2, 1], [1, 2]]


def test_submatrix_orientation():
    assert submatrix_T(SYM, 0, 1, 0, 1) == Complex2x2(2, 1, 1, 2)
    # rows indexed by source column, columns by target row
    assert submatrix_T([[1, 2], [3, 4]], 0, 1, 0, 1) == Complex2x2(1, 3, 2, 4)


def test_submatrix_index_validation():
    with pytest.raises(ValueError):
        submatrix_T(SYM, 1, 0, 0, 1)  # needs i < j
    with pytest.raises(ValueError):
        submatrix_T(SYM, 0, 1, 0, 2)
    with pytest.raises(ValueError):
        submatrix_T([[5]], 0, 1, 0, 1)


def test_certify_worked_example():
    cert = certify_matrix(SYM)
    assert cert.classification == "strict" and cert.strict
    assert cert.theta == 0.6
    assert cert.delta_sup.as_tuple() == pytest.approx((LOG4,) * 4, abs=1e-14)
    assert cert.eta_simple == pytest.approx(511 / 513, abs=1e-15)
    assert cert.eta_refined == pytest.approx(511 / 513, abs=1e-15)
    assert cert.diam_bound == pytest.approx(9 * LOG4, abs=1e-12)
    assert cert.exhaustive
    w = cert.witness
    assert (w.i, w.j, w.p, w.q) == (0, 1, 0, 1)


def test_certify_identity_closed():
    cert = certify_matrix(np.eye(2))
    assert cert.classification == "closed" and not cert.strict
    assert cert.theta == 1.0
    assert cert.eta_simple is None and cert.eta_refined is None and cert.diam_bound is None
    assert cert.witness.block == Complex2x2(1, 0, 0, 1)


def test_certify_rank_one_strict():
    cert = certify_matrix(np.ones((2, 2)))
    assert cert.strict
    assert cert.theta == 0.0
    assert cert.eta_simple == 0.0 and cert.eta_refined == 0.0


def test_certify_fail_with_witness():
    cert = certify_matrix([[1, -1], [1, 1]])
    assert cert.classification == "fail"
    assert cert.eta_simple is None
    w = cert.witness
    assert w is not None
    # the witness block really violates the open-class conditions
    assert (w.block.a * w.block.b.conjugate()).real < 0 or theta2(w.block) is None


def test_certify_rectangular():
    A = np.array([[1.0, 2.0], [2.0, 1.0], [1.0, 1.0]])
    cert = certify_matrix(A)
    assert cert.strict
    assert certify_matrix(A.T).theta == cert.theta


def test_certify_dimension_and_value_errors():
    with pytest.raises(ValueError):
        certify_matrix([[1]])
    with pytest.raises(ValueError):
        certify_matrix([[1, 2]])  # 1 row
    with pytest.raises(ValueError):
        certify_matrix([[1, float("nan")], [1, 1]])


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, -5e-324])
def test_invalid_margin_is_rejected(tol):
    # a NaN margin used to give class fail, an infinite one closed, and a
    # negative one strict, past the exact class boundary
    grid = KernelGrid([0.0, 1.0], [0.5, 0.5], SYM)
    for certify in (lambda: certify_matrix(SYM, tol), lambda: certify_matrix(SYM, tol, sample=1),
                    lambda: certify_perturbed(SYM, np.zeros((2, 2)), tol), lambda: kernel_theta(grid, tol)):
        with pytest.raises(ValueError, match="margin tol"):
            certify()


def test_zero_margins_keep_the_certificate():
    rng = np.random.default_rng(5)
    A = rng.uniform(0.5, 2.0, (4, 5)) * (1.0 + 0.1j * rng.uniform(-1.0, 1.0, (4, 5)))
    for M in (SYM, A):
        want = repr(reference_certify(M, 0.0))
        for tol in (0.0, -0.0):
            assert repr(certify_matrix(M, tol)) == want
            assert repr(certify_perturbed(M, np.zeros(np.shape(M)), tol)) == want


def test_theta_dominates_every_block():
    rng = np.random.default_rng(7)
    A, cert = random_certified_matrix(rng, 5)
    n = A.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            for p in range(n):
                for q in range(p + 1, n):
                    t = theta2(submatrix_T(A, i, j, p, q))
                    assert t is not None and t <= cert.theta + 1e-15


def test_certificate_soundness(rng):
    # closed-or-better certificates map cone members to cone members, and the
    # transpose maps dual members likewise
    from conegap.cone import member_closed

    for _ in range(3):
        A, _ = random_certified_matrix(rng)
        n = A.shape[0]
        for _ in range(170):
            x = random_member(rng, n)
            assert member_closed(A @ x, tol=1e-9)
            mu = random_member(rng, n)
            assert member_closed(A.T @ mu, tol=1e-9)


def test_lipschitz_contraction(rng):
    for _ in range(5):
        A, cert = random_certified_matrix(rng)
        n = A.shape[0]
        for _ in range(40):
            x, y = random_member(rng, n), random_member(rng, n)
            d = distance(x, y).distance
            if not math.isfinite(d):
                continue
            assert distance(A @ x, A @ y).distance <= cert.eta_refined * d + 1e-9


def test_preorder_preserved(rng):
    from conegap.cone import beta, preorder_geq

    for _ in range(5):
        A, _ = random_certified_matrix(rng, 4)
        for _ in range(40):
            x, y = random_member(rng, 4), random_member(rng, 4)
            b = beta(y, x)
            if not math.isfinite(b) or b == 0:
                continue
            y = y / (b * (1 + 1e-9))
            assert preorder_geq(x, y)
            assert preorder_geq(A @ x, A @ y, tol=1e-9)


def test_diagonal_scaling_invariance(rng):
    for _ in range(20):
        A, cert = random_certified_matrix(rng)
        n = A.shape[0]
        D1 = np.diag(rng.uniform(0.1, 10.0, n))
        D2 = np.diag(rng.uniform(0.1, 10.0, n))
        scaled = certify_matrix(D1 @ A @ D2)
        assert scaled.classification == "strict"
        assert scaled.theta == pytest.approx(cert.theta, abs=1e-12)


def test_transpose_invariance(rng):
    for _ in range(20):
        A, cert = random_certified_matrix(rng)
        t = certify_matrix(A.T)
        assert t.classification == cert.classification
        assert t.theta == cert.theta
        assert t.delta_sup.d1 == cert.delta_sup.d1
        assert t.delta_sup.d4 == cert.delta_sup.d4
        # the 2nd and 3rd contraction numbers swap under transposition
        assert t.delta_sup.d2 == cert.delta_sup.d3
        assert t.delta_sup.d3 == cert.delta_sup.d2


def test_sampled_mode_is_flagged_and_consistent(rng):
    A, cert = random_certified_matrix(rng, 7)
    s1 = certify_matrix(A, sample=12, rng=np.random.default_rng(3))
    s2 = certify_matrix(A, sample=12, rng=np.random.default_rng(3))
    assert not s1.exhaustive
    assert s1.theta == s2.theta  # same rng, same blocks
    assert s1.theta <= cert.theta + 1e-15
    big = certify_matrix(A, sample=10**6, rng=np.random.default_rng(3))
    assert big.exhaustive  # sample covers everything, so it is a real certificate
    assert big.theta == cert.theta


def test_fail_class_keeps_diagnostics():
    cert = certify_matrix([[1, 1, 1], [1, -1, 1], [1, 1, 1]])
    assert cert.classification == "fail"
    assert cert.witness is not None
    assert cert.delta_sup.d1 == math.inf  # sups still reported


def test_product_gap_bound():
    c = certify_matrix(SYM)
    assert product_gap_bound([c]) == c.eta_refined
    assert product_gap_bound([c, c]) == pytest.approx((511 / 513) ** 2, abs=1e-15)
    half = ContractionCertificate(
        classification="strict",
        theta=0.1,
        delta_sup=DeltaQuadruple(0.0, 0.0, 0.0, 0.0),
        eta_simple=0.5,
        eta_refined=0.5,
        diam_bound=1.0,
        witness=None,
    )
    assert product_gap_bound([half, half]) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        product_gap_bound([c, certify_matrix(np.eye(2))])
    with pytest.raises(ValueError):
        product_gap_bound([])

