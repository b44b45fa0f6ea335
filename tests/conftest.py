import dataclasses

import numpy as np
import pytest

from conegap import EigenTriple, certify_matrix


def random_certified_matrix(rng, n=None):
    """Positive real base times a bounded relative imaginary perturbation,
    retried until the certificate is strict."""
    while True:
        size = int(rng.integers(3, 9)) if n is None else n
        base = rng.uniform(0.5, 2.0, (size, size))
        eps = rng.uniform(0.0, 0.08)
        A = base * (1.0 + 1j * eps * rng.uniform(-1.0, 1.0, (size, size)))
        cert = certify_matrix(A)
        if cert.strict:
            return A, cert


def assert_same_triple(s, t):
    """Every field of two eigen-triples equal, bit for bit."""
    for f in dataclasses.fields(EigenTriple):
        np.testing.assert_array_equal(getattr(s, f.name), getattr(t, f.name), err_msg=f.name)


@pytest.fixture(scope="session")
def certified_pool():
    # shared across the acceptance criteria so the 50-matrix sample is fixed
    rng = np.random.default_rng(20240817)
    return [random_certified_matrix(rng) for _ in range(50)]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
