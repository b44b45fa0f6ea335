"""Certify a sampled Gaussian kernel and its quadrature discretization."""

import numpy as np

from conegap import (
    KernelGrid,
    dense_spectrum_oracle,
    eta1,
    kernel_certify,
    kernel_theta,
    nystrom_matrix,
)


def main() -> None:
    x = np.linspace(0.0, 1.0, 8)
    values = np.exp(-((x[:, None] - x[None, :]) ** 2))
    grid = KernelGrid(x, np.full(8, 1 / 8), values)

    # one sweep of the value table certifies the kernel and its Nystrom matrix
    res = kernel_certify(grid)
    cert = res.certificate
    print(f"kernel certificate: {cert.classification}, theta {cert.theta:.12f}")
    print(f"gap bound eta1(theta) {eta1(cert.theta):.12f}")
    print(f"lambda_1 of the discretized operator {res.triple.lam:.12f}")
    print(f"observed gap r_deflated/|lambda_1| {res.r_deflated / abs(res.triple.lam):.12f}")

    spectrum = dense_spectrum_oracle(nystrom_matrix(grid))
    ratio = abs(spectrum[1]) / abs(spectrum[0])
    print(f"oracle |lambda_2/lambda_1| {ratio:.12f} <= {eta1(cert.theta):.12f}")

    # the certificate never reads the weights, so reweighting cannot move theta
    rng = np.random.default_rng(0)
    rew = KernelGrid(x, rng.uniform(0.1, 3.0, 8), values)
    print(f"theta after random reweighting {kernel_theta(rew).theta:.12f}")


if __name__ == "__main__":
    main()
