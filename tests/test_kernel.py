import itertools
import math

import numpy as np
import pytest

from conegap.certify import certify_matrix
from conegap.cone import distance
from conegap.core2x2 import Complex2x2, eta1, in_gamma_open, theta2
from conegap.cli import main
from conegap.fileio import parse_kernel
from conegap.kernel import KernelGrid, kernel_certify, kernel_theta, nystrom_matrix
from conegap.spectral import deflated_radius, dense_spectrum_oracle, gap_pipeline, power_eigen
from tests.conftest import assert_same_triple


def gauss_grid(n, kernel, lo=-1.0, hi=1.0):
    """Gauss-Legendre discretization of k on [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(n)
    x = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
    w = 0.5 * (hi - lo) * w
    vals = kernel(x[:, None], x[None, :])
    return KernelGrid(x, w, vals)


def gaussian(x, y):
    return np.exp(-((x - y) ** 2))


def complex_kernel(x, y):
    return np.exp(-((x - y) ** 2)) * (1 + 0.1j * x * y)


def test_grid_validation():
    ok = KernelGrid([0.0, 1.0], [1.0, 1.0], [[1, 1], [1, 1]])
    assert ok.n == 2
    with pytest.raises(ValueError):
        KernelGrid([1.0, 0.0], [1.0, 1.0], [[1, 1], [1, 1]])  # decreasing
    with pytest.raises(ValueError):
        KernelGrid([0.0, 0.0], [1.0, 1.0], [[1, 1], [1, 1]])  # repeated
    with pytest.raises(ValueError):
        KernelGrid([0.0, 1.0], [1.0, 0.0], [[1, 1], [1, 1]])  # weight <= 0
    with pytest.raises(ValueError):
        KernelGrid([0.0, 1.0], [1.0], [[1, 1], [1, 1]])
    with pytest.raises(ValueError):
        KernelGrid([0.0, 1.0], [1.0, 1.0], [[1, 1, 1], [1, 1, 1]])
    with pytest.raises(ValueError):
        KernelGrid([0.0], [1.0], [[1.0]])


def test_constant_kernel_theta_zero():
    grid = KernelGrid(np.linspace(0, 1, 5), np.full(5, 0.2), np.ones((5, 5)))
    cert = kernel_theta(grid)
    assert cert.strict
    assert cert.theta == 0.0


def test_gaussian_kernel_matches_exhaustive_enumeration():
    grid = gauss_grid(5, gaussian)
    cert = kernel_theta(grid)
    assert cert.strict
    # independent enumeration of every node quadruple
    worst = 0.0
    n = grid.n
    for i, j in itertools.combinations(range(n), 2):
        for p, q in itertools.combinations(range(n), 2):
            blk = Complex2x2(
                grid.values[i, p], grid.values[i, q],
                grid.values[j, p], grid.values[j, q],
            )
            assert in_gamma_open(blk)
            worst = max(worst, theta2(blk))
    assert cert.theta == pytest.approx(worst, abs=0.0)


def test_single_negative_value_fails_with_witness():
    vals = np.ones((4, 4))
    vals[2, 1] = -1.0
    grid = KernelGrid(np.arange(4.0), np.ones(4), vals)
    cert = kernel_theta(grid)
    assert cert.classification == "fail"
    w = cert.witness
    assert w is not None
    got = np.array([[w.block.a, w.block.b], [w.block.c, w.block.d]])
    assert -1.0 in got  # witness quadruple contains the bad sample


def test_all_negative_kernel_is_a_phase_rotation():
    # k = -1 everywhere is (-1) times the constant kernel; the cone is
    # invariant under global phase, so this still certifies strictly
    grid = KernelGrid(np.arange(3.0), np.ones(3), -np.ones((3, 3)))
    cert = kernel_theta(grid)
    assert cert.strict and cert.theta == 0.0


def test_nystrom_entries_and_rank_one_spectrum():
    n = 4
    grid = KernelGrid(np.linspace(0, 1, n), np.full(n, 1.0 / n), np.ones((n, n)))
    L = nystrom_matrix(grid)
    np.testing.assert_allclose(L, np.full((n, n), 1.0 / n), atol=0)
    t = power_eigen(L, certify_matrix(L))
    assert t.lam == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(t.h, np.ones(n), atol=1e-12)


def test_nystrom_two_point_example():
    grid = KernelGrid([0.0, 1.0], [1.0, 1.0], [[2, 1], [1, 2]])
    np.testing.assert_allclose(nystrom_matrix(grid), [[2, 1], [1, 2]], atol=0)


def test_nystrom_eigenvalue_against_dense_oracle():
    grid = gauss_grid(8, gaussian)
    L = nystrom_matrix(grid)
    cert = certify_matrix(L)
    t = power_eigen(L, cert, tol=1e-11)
    ev = dense_spectrum_oracle(L)
    assert abs(t.lam - ev[0]) <= 1e-10 * abs(ev[0])


def test_pipeline_constant_kernel_gap_zero():
    grid = KernelGrid(np.linspace(0, 1, 5), np.full(5, 0.2), np.ones((5, 5)))
    res = kernel_certify(grid)
    cert, triple = res.certificate, res.triple
    assert cert.theta == 0.0
    assert res.r_deflated / abs(triple.lam) == pytest.approx(0.0, abs=1e-12)


def test_pipeline_gaussian_eight_nodes():
    grid = gauss_grid(8, gaussian)
    res = kernel_certify(grid)
    cert, triple = res.certificate, res.triple
    assert cert.strict
    # theta is so close to 1 here that A's own threshold tol * (1 - eta_refined)
    # sits below the floating-point floor of the step; the stop is reached
    # under a certified power of A instead, well before max_iter, and the
    # triple is at machine precision
    assert triple.residual <= 1e-14
    assert triple.converged
    assert triple.metric_error <= 1e-12
    assert triple.iterations < 1000
    L = nystrom_matrix(grid)
    eta_obs = res.r_deflated / abs(triple.lam)
    assert eta_obs <= eta1(cert.theta) + 1e-9
    ev = dense_spectrum_oracle(L)
    assert abs(ev[1]) / abs(ev[0]) <= eta1(cert.theta)
    # a threshold above the noise floor is attainable
    t2 = kernel_certify(grid, power_tol=0.05).triple
    assert t2.converged and t2.metric_error <= 0.05


def test_gaussian_eight_nodes_both_orbits_stop_early():
    grid = gauss_grid(8, gaussian)
    # converged needs the right and the left orbit to stop within max_iter
    triple = kernel_certify(grid, max_iter=100).triple
    assert triple.converged and triple.metric_error <= 1e-12
    L = nystrom_matrix(grid)
    ev, vecs = np.linalg.eig(L)
    k = int(np.argmax(np.abs(ev)))
    assert distance(triple.h, vecs[:, k] / vecs[0, k]).distance <= triple.metric_error


def test_pipeline_complex_kernel():
    grid = gauss_grid(6, complex_kernel)
    res = kernel_certify(grid)
    cert, triple = res.certificate, res.triple
    assert cert.strict
    ev = dense_spectrum_oracle(nystrom_matrix(grid))
    assert abs(triple.lam - ev[0]) <= 1e-9 * abs(ev[0])
    assert abs(ev[1]) / abs(ev[0]) <= eta1(cert.theta)


def test_pipeline_rejects_non_strict_kernel():
    vals = np.ones((3, 3))
    vals[0, 2] = -1.0
    grid = KernelGrid(np.arange(3.0), np.ones(3), vals)
    res = kernel_certify(grid)
    assert res.certificate.classification == "fail"
    assert res.triple is None and res.r_deflated is None


def skew_kernel(x, y):
    return np.exp(-((x - 0.5 * y) ** 2)) * (1 + 0.1j * x * y * y)


def test_theta_is_weight_free():
    grid1 = gauss_grid(6, gaussian)
    rng = np.random.default_rng(7)
    w2 = rng.uniform(0.1, 3.0, grid1.n)
    grid2 = KernelGrid(grid1.points, w2, grid1.values)
    c1, c2 = kernel_theta(grid1), kernel_theta(grid2)
    assert c1.theta == c2.theta  # bitwise: the test never reads the weights
    assert c1.eta_refined == c2.eta_refined

    # kernel_certify never sweeps L = V^T diag(w): the block test is invariant
    # under transposition and positive diagonal scaling, so the certificate of
    # V is that of L. Transposition swaps the 2nd and 3rd contraction numbers.
    for kernel in (gaussian, complex_kernel, skew_kernel):
        grid = gauss_grid(6, kernel)
        c = kernel_theta(grid)
        assert c.strict
        pow2 = 2.0 ** rng.integers(-4, 4, grid.n)  # scaling by these is exact
        cl = certify_matrix(nystrom_matrix(KernelGrid(grid.points, pow2, grid.values)))
        assert cl.classification == c.classification
        assert cl.theta == c.theta
        d, dl = c.delta_sup, cl.delta_sup
        assert (dl.d1, dl.d2, dl.d3, dl.d4) == (d.d1, d.d3, d.d2, d.d4)
        assert cl.eta_simple == c.eta_simple
        assert cl.eta_refined == c.eta_refined
        assert cl.diam_bound == c.diam_bound
        for _ in range(5):
            w = rng.uniform(0.05, 4.0, grid.n)  # one rounding per entry of L
            cl = certify_matrix(nystrom_matrix(KernelGrid(grid.points, w, grid.values)))
            assert cl.classification == c.classification
            assert abs(cl.eta_refined - c.eta_refined) <= 1e-12


def test_kernel_certify_sweeps_once(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return certify_matrix(*args, **kwargs)

    monkeypatch.setattr("conegap.kernel.certify_matrix", counting)
    grid = gauss_grid(6, complex_kernel)
    res = kernel_certify(grid)
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0][0], grid.values)
    assert res.r_deflated is not None
    # the eigen-triple is that of L under the weight-free certificate, bit for bit
    t = power_eigen(nystrom_matrix(grid), res.certificate)
    assert res.triple.lam == t.lam
    np.testing.assert_array_equal(res.triple.h, t.h)
    np.testing.assert_array_equal(res.triple.nu, t.nu)
    assert (res.triple.iterations, res.triple.residual, res.triple.metric_error, res.triple.converged) == (
        t.iterations, t.residual, t.metric_error, t.converged)


@pytest.mark.parametrize("preset", ["gaussian", "affine", "gaussian-twist"])
def test_kernel_certify_is_gap_pipeline_on_the_nystrom_matrix(preset, tmp_path, capsys):
    path = tmp_path / "grid.json"
    assert main(["--report", str(path), "grid", "--preset", preset, "--n", "12"]) == 0
    capsys.readouterr()
    grid = parse_kernel(str(path))
    res = kernel_certify(grid)
    want = gap_pipeline(nystrom_matrix(grid), kernel_theta(grid))
    assert res.certificate == want.certificate
    assert res.r_deflated is not None and res.r_deflated == want.r_deflated
    assert_same_triple(res.triple, want.triple)


def test_non_converged_orbit_skips_deflation():
    # L = [[1, .001], [.002, 1]] certifies strict, but every certified rate
    # rounds to 1, so the orbit cannot stop
    grid = KernelGrid([0.0, 1.0], [1.0, 1.0], [[1.0, 0.002], [0.001, 1.0]])
    res = kernel_certify(grid, max_iter=50)
    assert res.certificate.strict
    assert res.triple is not None and not res.triple.converged
    assert res.r_deflated is None


def test_reweighting_preserves_eigenvalue_structure():
    # Nystrom matrices for different weights are diagonal rescalings of the
    # same kernel, so the leading eigenvalue ratio matches the weight ratio
    # only through the spectrum; the certificate bound holds for both
    grid1 = gauss_grid(6, gaussian)
    grid2 = KernelGrid(grid1.points, 2.0 * grid1.weights, grid1.values)
    ev1 = dense_spectrum_oracle(nystrom_matrix(grid1))
    ev2 = dense_spectrum_oracle(nystrom_matrix(grid2))
    assert abs(ev2[0]) == pytest.approx(2.0 * abs(ev1[0]), rel=1e-12)
    assert abs(ev2[1]) / abs(ev2[0]) == pytest.approx(abs(ev1[1]) / abs(ev1[0]), rel=1e-9, abs=1e-12)


def test_subgrid_theta_monotone():
    grid = gauss_grid(8, gaussian)
    full = kernel_theta(grid).theta
    idx = [0, 2, 4, 6]
    sub = KernelGrid(grid.points[idx], grid.weights[idx], grid.values[np.ix_(idx, idx)])
    assert kernel_theta(sub).theta <= full + 1e-15


def test_discretization_consistency():
    # refining the quadrature changes lambda only at the quadrature error scale
    lo, hi = -1.0, 1.0
    lam = {}
    for n in (12, 16):
        grid = gauss_grid(n, gaussian, lo, hi)
        lam[n] = kernel_certify(grid, power_tol=1e-11).triple.lam
    assert abs(lam[12] - lam[16]) <= 1e-12 * abs(lam[16])
