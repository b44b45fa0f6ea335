import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conegap import spectral
from conegap.certify import certify_matrix, certify_perturbed
from conegap.cli import GRID_PRESETS, main
from conegap.cone import distance, member_closed, random_member
from conegap.fileio import parse_kernel
from conegap.kernel import nystrom_matrix
from conegap.spectral import EigenTriple, deflated_radius, dense_spectrum_oracle, gap_pipeline, power_eigen
from tests.conftest import assert_same_triple, random_certified_matrix
from tests.reference_spectral import reference_deflated_radius

SYM = np.array([[2.0, 1.0], [1.0, 2.0]])
RANK1 = np.ones((2, 2))
HERM = np.array([[2, 1 + 1j], [1 - 1j, 2]])


def test_power_eigen_worked_example():
    t = power_eigen(SYM, certify_matrix(SYM))
    assert t.converged
    assert t.lam == pytest.approx(3.0, abs=1e-12)
    np.testing.assert_allclose(t.h, [1, 1], atol=1e-12)
    np.testing.assert_allclose(t.nu, [0.5, 0.5], atol=1e-12)
    assert t.residual <= 1e-12
    assert t.metric_error <= 1e-12


def test_power_eigen_rank_one_single_step():
    t = power_eigen(RANK1, certify_matrix(RANK1))
    assert t.converged and t.iterations == 1
    assert t.lam == pytest.approx(2.0)
    np.testing.assert_allclose(t.h, [1, 1], atol=1e-14)


def test_power_eigen_matches_oracle_on_complex_matrix():
    cert = certify_matrix(HERM)
    t = power_eigen(HERM, cert)
    ev = dense_spectrum_oracle(HERM)
    assert abs(t.lam - ev[0]) <= 1e-10
    # eigenvector residual at the oracle eigenvalue
    assert np.linalg.norm(HERM @ t.h - ev[0] * t.h) <= 1e-10 * np.linalg.norm(t.h)


def test_power_eigen_normalizations():
    rng = np.random.default_rng(0)
    A, cert = random_certified_matrix(rng, 5)
    t = power_eigen(A, cert, tol=1e-9)
    assert t.h[0] == pytest.approx(1.0, abs=1e-14)  # first coordinate pinned
    assert np.dot(t.nu, t.h) == pytest.approx(1.0, abs=1e-12)  # bilinear pairing
    assert member_closed(t.h, tol=1e-9)
    assert member_closed(t.nu, tol=1e-9)


def test_power_eigen_requires_strict_and_square():
    with pytest.raises(ValueError):
        power_eigen(np.eye(2), certify_matrix(np.eye(2)))
    rect = np.array([[1.0, 2.0], [2.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        power_eigen(rect, certify_matrix(rect))


def test_power_eigen_rejects_bad_stop_arguments():
    cert = certify_matrix(SYM)
    for tol in (-1.0, -1e-300, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="tolerance"):
            power_eigen(SYM, cert, tol=tol)
    for max_iter in (0, -5):
        with pytest.raises(ValueError, match="max_iter"):
            power_eigen(SYM, cert, max_iter=max_iter)
    # tol = 0 asks for an exact fixed point, which the all-ones start is here
    assert power_eigen(SYM, cert, tol=0.0).converged


def test_power_eigen_flags_non_convergence():
    # theta of this matrix is so close to 1 that the requested accuracy is
    # unreachable; the partial result must be flagged, not silently wrong
    A = np.array([[1.0, 0.001], [0.002, 1.0]])
    cert = certify_matrix(A)
    t = power_eigen(A, cert, tol=1e-12, max_iter=50)
    assert not t.converged
    assert t.iterations == 50
    # eta_refined rounds to 1.0 here, so no a-posteriori bound survives
    assert math.isinf(t.metric_error)
    ev = dense_spectrum_oracle(A)
    assert abs(t.lam - ev[0]) <= 1e-3  # partial result is still in the ballpark


def test_own_rate_runs_no_power_sweep(monkeypatch, rng):
    def refuse(*args, **kwargs):
        raise AssertionError("a power of A was certified")

    monkeypatch.setattr(spectral, "certify_perturbed", refuse)
    t = power_eigen(SYM, certify_matrix(SYM))
    assert t.converged and t.metric_error <= 1e-12
    A, cert = random_certified_matrix(rng, 6)
    assert power_eigen(A, cert, tol=1e-9).converged


def test_triple_reports_the_power_its_rate_and_the_left_steps():
    cert = certify_matrix(SYM)
    t = power_eigen(SYM, cert)
    assert (t.power, t.power_rate) == (1, cert.eta_refined)
    assert t.left_iterations == t.iterations  # SYM is its own transpose
    x, w = np.polynomial.legendre.leggauss(8)
    gauss8 = np.exp(-((x[:, None] - x[None, :]) ** 2)) * w  # own rate below the floor
    t = power_eigen(gauss8, certify_matrix(gauss8))
    assert t.converged and t.power == 4
    assert 1e-12 * (1.0 - t.power_rate) >= spectral.STEP_FLOOR
    # the left orbit is the orbit of the transpose under the same p and rate
    left = spectral._power_orbit(gauss8.T, 1e-12, 1000, t.power_rate, t.power)
    assert left[3] and t.left_iterations == left[1]


def _complex_symmetric(rng, n):
    """A strict complex symmetric matrix, A == A^T, that is not Hermitian."""
    while True:
        B = rng.uniform(0.5, 2.0, (n, n)) * (1.0 + 0.05j * rng.uniform(-1.0, 1.0, (n, n)))
        A = np.triu(B) + np.triu(B, 1).T
        cert = certify_matrix(A)
        if cert.strict:
            assert np.array_equal(A, A.T) and not np.array_equal(A, A.conj().T)
            return A, cert


def _count_orbits(monkeypatch):
    calls = []
    real = spectral._power_orbit

    def counting(M, *args):
        calls.append(M)
        return real(M, *args)

    monkeypatch.setattr(spectral, "_power_orbit", counting)
    return calls


def test_symmetric_nu_comes_from_the_right_orbit(monkeypatch, rng):
    A, cert = _complex_symmetric(rng, 7)
    calls = _count_orbits(monkeypatch)
    t = power_eigen(A, cert)
    assert len(calls) == 1 and t.converged
    assert t.left_iterations == t.iterations
    scale = abs(t.lam) * np.linalg.norm(t.nu)
    assert np.linalg.norm(t.nu @ A - t.lam * t.nu) <= 1e-12 * scale
    assert abs(complex(np.dot(t.nu, t.h)) - 1.0) <= 1e-15
    # the left orbit that the symmetric path skips gives the same nu to rounding
    w = spectral._power_orbit(A.T, 1e-12, 1000, t.power_rate, t.power)[0]
    nu = w / complex(np.dot(w, t.h))
    assert np.linalg.norm(t.nu - nu) <= 1e-15 * np.linalg.norm(nu)


def test_an_ulp_from_symmetric_runs_both_orbits(monkeypatch, rng):
    A, cert = _complex_symmetric(rng, 6)
    A[1, 4] = complex(A[1, 4].real, math.nextafter(A[1, 4].imag, math.inf))
    calls = _count_orbits(monkeypatch)
    t = power_eigen(A, certify_matrix(A))
    assert len(calls) == 2 and np.array_equal(calls[1], calls[0].T)
    assert t.converged and abs(complex(np.dot(t.nu, t.h)) - 1.0) <= 1e-14


def _exact_square(X):
    # X[i][j] = (re, im) as Fractions
    n = len(X)
    return [[(sum((X[i][k][0] * X[k][j][0] - X[i][k][1] * X[k][j][1] for k in range(n)), Fraction(0)),
              sum((X[i][k][0] * X[k][j][1] + X[i][k][1] * X[k][j][0] for k in range(n)), Fraction(0)))
             for j in range(n)] for i in range(n)]


def test_power_products_bound_their_rounding(rng):
    # exact powers in rational arithmetic; P is fl(c A^p) for a power of two c
    A, _ = random_certified_matrix(rng, 5)
    n = A.shape[0]
    X = [[(Fraction(A[i, j].real), Fraction(A[i, j].imag)) for j in range(n)] for i in range(n)]
    for _, P, E in spectral._power_products(A):
        X = _exact_square(X)
        c = 2.0 ** round(math.log2(abs(P[0, 0]) / abs(complex(float(X[0][0][0]), float(X[0][0][1])))))
        assert np.all(E > 0.0)
        for i in range(n):
            for j in range(n):
                re, im = X[i][j]
                dre = Fraction(P[i, j].real) - Fraction(c) * re
                dim = Fraction(P[i, j].imag) - Fraction(c) * im
                assert dre * dre + dim * dim <= Fraction(E[i, j]) ** 2  # |P - c A^p| <= E, exactly


def _power_inputs(rng):
    x, w = np.polynomial.legendre.leggauss(8)
    gauss8 = np.exp(-((x[:, None] - x[None, :]) ** 2)) * w  # gaussian Nystrom matrix, n = 8
    return [gauss8, np.array([[1.0, 0.001], [0.002, 1.0]])] + [
        random_certified_matrix(rng, n)[0] for n in (3, 5, 7)]


def test_padded_power_rates_never_below_unpadded(rng):
    strict_seen = 0
    for A in _power_inputs(rng):
        for _, P, E in spectral._power_products(A):
            padded, plain = certify_perturbed(P, E), certify_matrix(P)
            if padded.strict:
                strict_seen += 1
                assert plain.strict
                assert padded.theta >= plain.theta
                assert padded.eta_simple >= plain.eta_simple
                assert padded.eta_refined >= plain.eta_refined
                assert padded.diam_bound >= plain.diam_bound
                for d_pad, d_plain in zip(padded.delta_sup.as_tuple(), plain.delta_sup.as_tuple()):
                    assert d_pad >= d_plain
    assert strict_seen >= 10


def test_dual_iteration_residual(rng):
    A, cert = random_certified_matrix(rng, 6)
    t = power_eigen(A, cert, tol=1e-9)
    scale = np.linalg.norm(A)
    assert np.linalg.norm(A @ t.h - t.lam * t.h) <= 1e-8 * scale * np.linalg.norm(t.h)
    assert np.linalg.norm(A.T @ t.nu - t.lam * t.nu) <= 1e-8 * scale * np.linalg.norm(t.nu)


def test_metric_error_bounds_true_distance(rng):
    for _ in range(5):
        A, cert = random_certified_matrix(rng, 4)
        t = power_eigen(A, cert, tol=1e-9)
        ev, vecs = np.linalg.eig(A)
        k = int(np.argmax(np.abs(ev)))
        h_true = vecs[:, k] / vecs[0, k]
        assert distance(t.h, h_true).distance <= t.metric_error + 1e-8


def test_nu_does_not_vanish_on_cone(rng):
    A, cert = random_certified_matrix(rng, 5)
    t = power_eigen(A, cert, tol=1e-9)
    for _ in range(100):
        x = random_member(rng, 5)
        assert abs(np.dot(t.nu, x)) > 1e-12 * np.linalg.norm(x)


def test_orbit_contracts_at_certified_rate(rng):
    A, cert = random_certified_matrix(rng, 5)
    x = np.ones(5, dtype=complex)
    gaps = []
    for _ in range(30):
        y = A @ x
        y = y / y[0]
        gaps.append(distance(x, y).distance)
        x = y
    for a, b in zip(gaps[2:], gaps[3:]):
        if a > 1e-13:  # above the noise floor
            assert b <= (cert.eta_refined + 1e-6) * a


def test_deflated_radius_worked_example():
    t = power_eigen(SYM, certify_matrix(SYM))
    r = deflated_radius(SYM, t)
    assert r == pytest.approx(1.0, abs=1e-12)
    assert r / abs(t.lam) == pytest.approx(1 / 3, abs=1e-12)


def test_deflated_radius_rank_one_is_zero():
    t = power_eigen(RANK1, certify_matrix(RANK1))
    assert deflated_radius(RANK1, t) == pytest.approx(0.0, abs=1e-12)


def test_deflated_radius_matches_oracle(rng):
    for _ in range(5):
        A, cert = random_certified_matrix(rng, 5)
        t = power_eigen(A, cert, tol=1e-9)
        r = deflated_radius(A, t)
        ev = dense_spectrum_oracle(A)
        # finite-iteration growth estimate, so only a loose match to |lambda_2|
        assert r == pytest.approx(abs(ev[1]), rel=2e-2, abs=1e-9)
        assert r / abs(t.lam) <= cert.eta_refined + 1e-9


def test_deflated_radius_is_seeded():
    t = power_eigen(SYM, certify_matrix(SYM))
    assert deflated_radius(SYM, t, seed=5) == deflated_radius(SYM, t, seed=5)
    with pytest.raises(ValueError):
        deflated_radius(SYM, t, iters=0)


def _outcome(f, *args, **kwargs):
    try:
        return f(*args, **kwargs)
    except (ValueError, TypeError) as e:
        return type(e)


# the block product and column norms round differently from the start-by-start
# vector products and norms, by a few units of the double epsilon per step
REL = 1e-12


def assert_matches_reference(A, triple, **kwargs):
    got = _outcome(deflated_radius, A, triple, **kwargs)
    want = _outcome(reference_deflated_radius, A, triple, **kwargs)
    if isinstance(want, float):
        assert isinstance(got, float)
        assert got == pytest.approx(want, rel=REL)
    else:
        assert got is want
    return got


DEFLATION_ARGS = [dict(iters=i, starts=s, seed=seed)
                  for i in (1, 2, 3, 200) for s in (1, 8, 13) for seed in (0, 7, 2024)]


def test_deflated_radius_matches_reference_on_random_matrices():
    rng = np.random.default_rng(606)
    for n in range(2, 13):
        A, cert = random_certified_matrix(rng, n)
        t = power_eigen(A, cert, tol=1e-9)
        for kwargs in DEFLATION_ARGS:
            assert 0.0 < assert_matches_reference(A, t, **kwargs) < math.inf


def test_deflated_radius_matches_reference_on_kernel_presets(tmp_path, capsys):
    for name, n in itertools.product(sorted(GRID_PRESETS), ("8", "16")):
        path = tmp_path / f"{name}{n}.json"
        assert main(["--report", str(path), "grid", "--preset", name, "--n", n]) == 0
        L = nystrom_matrix(parse_kernel(str(path)))
        t = power_eigen(L, certify_matrix(L))
        for kwargs in DEFLATION_ARGS:
            if name == "constant":  # rank one: both sit at the rounding level of B
                assert deflated_radius(L, t, **kwargs) <= 1e-12
                assert reference_deflated_radius(L, t, **kwargs) <= 1e-12
            else:
                assert assert_matches_reference(L, t, **kwargs) > 0.0
    capsys.readouterr()


def test_deflated_radius_rank_one_matches_reference():
    t = power_eigen(RANK1, certify_matrix(RANK1))
    for kwargs in DEFLATION_ARGS:
        assert deflated_radius(RANK1, t, **kwargs) <= 1e-12
        assert reference_deflated_radius(RANK1, t, **kwargs) <= 1e-12


def _plain(A):
    # lam = 0 makes B = A exactly
    n = np.asarray(A).shape[0]
    return EigenTriple(0j, np.ones(n, dtype=complex), np.ones(n, dtype=complex), 0, 0.0, 0.0, True)


def test_annihilated_starts_are_skipped():
    # B = [[0, 1], [0, 0]]: B z = (z_1, 0) and B^2 z = 0, so every start is
    # annihilated at step 2 and the estimate is 0; one step leaves all alive.
    # Skipping a start is not a floating-point fault, so nothing warns.
    N = np.array([[0.0, 1.0], [0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kwargs in DEFLATION_ARGS:
            r = assert_matches_reference(N, _plain(N), **kwargs)
            assert (r > 0.0) if kwargs["iters"] == 1 else (r == 0.0)


def test_nan_rates_are_skipped():
    # B = A - lam h nu^T overflows to +inf in every entry, so after the first
    # step every norm is NaN; no rate survives and the estimate is 0
    A = np.full((2, 2), 1e308)
    triple = EigenTriple(-1e308 + 0j, np.ones(2, dtype=complex), np.ones(2, dtype=complex), 0, 0.0, 0.0, True)
    with np.errstate(all="ignore"):
        for kwargs in DEFLATION_ARGS:
            if kwargs["iters"] > 1:
                assert assert_matches_reference(A, triple, **kwargs) == 0.0


def test_overflowed_start_is_skipped_and_the_others_kept():
    # B = [[1, s], [0, 1]]: the first step's norm is about s |z_1|, which
    # overflows in the squared sum for some starts and not for others. An
    # overflowed start is divided by +inf to the zero vector and its next norm
    # is exactly 0, so it is skipped; the others grow by factors near 1.
    n, starts, seed = 2, 13, 3
    rng = np.random.default_rng(seed)
    second = []
    for _ in range(starts):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        second.append(abs(z[1]) / np.linalg.norm(z))
    cut = sorted(second)[starts // 2]
    assert min(abs(f - cut) for f in second if f != cut) > 0.01 * cut
    s = math.sqrt(np.finfo(float).max) / cut  # |s z_1|^2 overflows for the larger half
    J = np.array([[1.0, s], [0.0, 1.0]])
    with np.errstate(over="ignore"):
        assert math.isinf(assert_matches_reference(J, _plain(J), iters=1, starts=starts, seed=seed))
        for iters in (2, 3, 200):
            r = assert_matches_reference(J, _plain(J), iters=iters, starts=starts, seed=seed)
            assert 1.0 <= r <= 3.0


def test_deflated_radius_rejects_what_the_reference_rejects():
    t = power_eigen(SYM, certify_matrix(SYM))
    bad = [
        (SYM, dict(iters=0), ValueError), (SYM, dict(iters=-1), ValueError),
        (SYM, dict(starts=0), ValueError), (SYM, dict(starts=-3), ValueError),
        (SYM, dict(starts=2.5), TypeError), (np.array([[1.0, np.nan], [1.0, 1.0]]), {}, ValueError),
        (np.ones((3, 3)), {}, ValueError), (np.ones(2), {}, ValueError),
    ]
    for A, kwargs, error in bad:
        assert assert_matches_reference(A, t, **kwargs) is error


def test_oracle_examples():
    np.testing.assert_allclose(dense_spectrum_oracle(SYM), [3, 1], atol=1e-12)
    np.testing.assert_allclose(dense_spectrum_oracle(np.eye(3)), [1, 1, 1], atol=1e-14)
    np.testing.assert_allclose(dense_spectrum_oracle(RANK1), [2, 0], atol=1e-12)


def test_oracle_sorted_by_modulus(rng):
    A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    ev = dense_spectrum_oracle(A)
    mags = np.abs(ev)
    assert all(mags[k] >= mags[k + 1] - 1e-12 for k in range(5))


def test_oracle_size_guard():
    with pytest.raises(ValueError):
        dense_spectrum_oracle(np.eye(17))
    with pytest.raises(ValueError):
        dense_spectrum_oracle(np.ones((2, 3)))


def test_gap_bound_against_oracle(rng):
    # |lambda_2| / |lambda_1| <= eta_refined <= eta_simple on random matrices
    for _ in range(10):
        A, cert = random_certified_matrix(rng)
        ev = dense_spectrum_oracle(A)
        assert abs(ev[1]) / abs(ev[0]) <= cert.eta_refined <= cert.eta_simple


# strict, but every certified rate rounds to 1, so neither orbit can stop
HARD = np.array([[1.0, 0.001], [0.002, 1.0]])


def test_gap_pipeline_stops_at_each_stage(monkeypatch):
    calls = []
    monkeypatch.setattr(spectral, "deflated_radius", lambda *args, **kwargs: calls.append(args))
    cert = certify_matrix(np.eye(2))
    res = gap_pipeline(np.eye(2), cert)
    assert res.certificate is cert and not cert.strict
    assert res.triple is None and res.r_deflated is None

    cert = certify_matrix(HARD)
    res = gap_pipeline(HARD, cert)
    assert cert.strict and res.certificate is cert
    assert not res.triple.converged and res.triple.iterations == 1000
    assert res.r_deflated is None
    assert calls == []


def test_gap_pipeline_is_power_eigen_then_deflated_radius(rng):
    for _ in range(4):
        A, cert = random_certified_matrix(rng)
        for args in ((), (1e-9, 500, 7)):
            res = gap_pipeline(A, cert, *args)
            tol, max_iter, seed = args or (1e-12, 1000, 0)
            t = power_eigen(A, cert, tol, max_iter)
            assert t.converged
            assert_same_triple(res.triple, t)
            # the deflation always runs its 200 steps from 8 starts
            assert res.r_deflated == deflated_radius(A, t, 200, 8, seed)
            assert res.certificate is cert


def test_gap_pipeline_refutes_a_gap_above_eta1(monkeypatch):
    # a deflated radius of 10 |lam| is an observed gap of 10, far above eta1(theta) < 1
    monkeypatch.setattr(spectral, "deflated_radius", lambda A, t, **kwargs: 10.0 * abs(t.lam))
    with pytest.raises(RuntimeError, match="observed gap .* exceeds the certified bound"):
        gap_pipeline(SYM, certify_matrix(SYM))
