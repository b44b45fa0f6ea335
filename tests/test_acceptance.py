"""Acceptance gate: one test per stated criterion, each at its stated tolerance."""

import math

import numpy as np
import pytest

from conegap.certify import certify_matrix, product_gap_bound
from conegap.cone import (
    distance,
    hilbert_distance,
    preorder_geq,
    preorder_sample_check,
    random_member,
)
from conegap.core2x2 import eta1
from conegap.kernel import KernelGrid, kernel_certify, kernel_theta, nystrom_matrix
from conegap.spectral import deflated_radius, dense_spectrum_oracle, power_eigen
from conegap.variational import basis_lower_bound, bounds_at, ones_lower_bound, refine_bounds
from tests.conftest import random_certified_matrix

SYM = np.array([[2.0, 1.0], [1.0, 2.0]])


def test_criterion_01_closed_form_rates():
    for k in range(10):
        t = k / 10.0
        via_tanh = math.tanh(2.25 * math.log((1 + t) / (1 - t))) if t else 0.0
        hi, lo = (1 + t) ** 4.5, (1 - t) ** 4.5
        closed = (hi - lo) / (hi + lo)
        assert abs(eta1(t) - via_tanh) <= 1e-14
        assert abs(eta1(t) - closed) <= 1e-14
    assert eta1(0.0) == 0.0


def test_criterion_02_worked_matrix():
    cert = certify_matrix(SYM)
    assert cert.strict
    assert abs(cert.theta - 0.6) <= 1e-12
    log4 = math.log(4.0)
    for d in cert.delta_sup.as_tuple():
        assert abs(d - log4) <= 1e-12
    assert abs(cert.eta_simple - 511 / 513) <= 1e-12
    assert abs(cert.eta_refined - 511 / 513) <= 1e-12
    triple = power_eigen(SYM, cert)
    assert abs(triple.lam - 3.0) <= 1e-12
    eta_sp = deflated_radius(SYM, triple) / abs(triple.lam)
    assert abs(eta_sp - 1 / 3) <= 1e-12
    assert eta_sp <= 511 / 513


def test_criterion_03_spectral_gap_soundness(certified_pool):
    assert len(certified_pool) == 50
    violations = 0
    for A, cert in certified_pool:
        ev = dense_spectrum_oracle(A)
        ratio = abs(ev[1]) / abs(ev[0])
        if not (ratio <= cert.eta_refined <= cert.eta_simple):
            violations += 1
    assert violations == 0


def test_criterion_04_lipschitz_contraction(certified_pool):
    rng = np.random.default_rng(41)
    violations = 0
    for A, cert in certified_pool:
        n = A.shape[0]
        for _ in range(200):
            x = random_member(rng, n)
            y = random_member(rng, n)
            dxy = distance(x, y).distance
            dAxy = distance(A @ x, A @ y).distance
            if not dAxy <= cert.eta_refined * dxy + 1e-9:
                violations += 1
    assert violations == 0


def test_criterion_05_hilbert_metric_oracle():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        x = rng.uniform(0.1, 10.0, n)
        y = rng.uniform(0.1, 10.0, n)
        classical = hilbert_distance(x, y)
        assert abs(distance(x, y).distance - classical) <= 1e-10


def test_criterion_06_variational_sandwich(certified_pool):
    rng = np.random.default_rng(6)
    for A, cert in certified_pool:
        n = A.shape[0]
        lam1 = abs(dense_spectrum_oracle(A)[0])
        for _ in range(20):
            x = random_member(rng, n)
            b = bounds_at(A, x)
            assert b.lower <= lam1 * (1 + 1e-12)
            assert lam1 <= b.upper * (1 + 1e-12)
        seq = refine_bounds(A, cert, 200, gap_rtol=1e-6)
        last = seq[-1]
        assert len(seq) - 1 <= 200
        assert last.upper - last.lower <= 1e-6 * lam1 * (1 + 1e-9)
    assert basis_lower_bound(SYM) == 2.0
    assert ones_lower_bound(SYM) == 3.0


def test_criterion_07_preorder_equivalence():
    rng = np.random.default_rng(7)
    disagreements = 0
    geq_seen = 0
    for k in range(200):
        n = int(rng.integers(2, 6))
        if k % 3 == 0:
            x = random_member(rng, n)
            y = random_member(rng, n)
        elif k % 3 == 1:
            # real pairs with componentwise domination, so geq holds
            y = rng.uniform(0.5, 2.0, n).astype(complex)
            x = y + rng.uniform(0.0, 2.0, n)
        else:
            # phase-scaled multiple: domination with modulus margin
            x = random_member(rng, n)
            y = rng.uniform(0.2, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)) * x
        g = preorder_geq(x, y)
        geq_seen += g
        if g and not preorder_sample_check(x, y, n_alpha=720, radius=0.999):
            disagreements += 1
    assert geq_seen > 0  # both branches exercised
    assert disagreements == 0


def test_criterion_08_kernel_pipeline():
    points5 = np.linspace(0.0, 1.0, 5)
    const = KernelGrid(points5, np.full(5, 0.2), np.ones((5, 5)))
    res_c = kernel_certify(const)
    cert_c, triple_c = res_c.certificate, res_c.triple
    assert cert_c.theta == 0.0
    r = deflated_radius(nystrom_matrix(const), triple_c)
    assert r / abs(triple_c.lam) == 0.0

    points8 = np.linspace(0.0, 1.0, 8)
    vals = np.exp(-((points8[:, None] - points8[None, :]) ** 2))
    gauss = KernelGrid(points8, np.full(8, 1 / 8), vals)
    cert_g = kernel_theta(gauss)
    assert cert_g.strict
    ev = dense_spectrum_oracle(nystrom_matrix(gauss))
    assert abs(ev[1]) / abs(ev[0]) <= eta1(cert_g.theta)

    rng = np.random.default_rng(8)
    for _ in range(5):
        rew = KernelGrid(points8, rng.uniform(0.05, 4.0, 8), vals)
        assert abs(kernel_theta(rew).theta - cert_g.theta) <= 1e-12


def test_criterion_09_product_corollary():
    rng = np.random.default_rng(9)
    violations = 0
    for _ in range(20):
        n = int(rng.integers(3, 7))
        A1, c1 = random_certified_matrix(rng, n)
        A2, c2 = random_certified_matrix(rng, n)
        ev = dense_spectrum_oracle(A1 @ A2)
        eta_sp = abs(ev[1]) / abs(ev[0])
        if not eta_sp <= product_gap_bound([c1, c2]):
            violations += 1
    assert violations == 0


def test_criterion_10_invariance_suite():
    rng = np.random.default_rng(10)
    for _ in range(10):
        A, cert = random_certified_matrix(rng)
        assert certify_matrix(A.T).theta == cert.theta
        n = A.shape[0]
        dl = rng.uniform(0.1, 10.0, n)
        dr = rng.uniform(0.1, 10.0, n)
        scaled_theta = certify_matrix(np.diag(dl) @ A @ np.diag(dr)).theta
        assert abs(scaled_theta - cert.theta) <= 1e-12 * max(1.0, cert.theta)

    # |a conj(d) + b conj(c)|^2 - |ad - bc|^2 = 4 Re(a conj(b)) Re(c conj(d))
    m = 100_000
    a, b, c, d = (rng.standard_normal(m) + 1j * rng.standard_normal(m) for _ in range(4))
    lhs = np.abs(a * np.conj(d) + b * np.conj(c)) ** 2 - np.abs(a * d - b * c) ** 2
    rhs = 4.0 * (a * np.conj(b)).real * (c * np.conj(d)).real
    # relative to the pre-cancellation product magnitude
    scale = (np.abs(a) * np.abs(d) + np.abs(b) * np.abs(c)) ** 2
    scale[scale == 0.0] = 1.0
    assert np.max(np.abs(lhs - rhs) / scale) <= 1e-12
