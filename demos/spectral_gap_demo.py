"""Certified power iteration and the observed spectral gap on a random matrix."""

import numpy as np

from conegap import certify_matrix, dense_spectrum_oracle, gap_pipeline


def main() -> None:
    rng = np.random.default_rng(42)
    base = rng.uniform(0.5, 2.0, (6, 6))
    A = base * (1.0 + 0.05j * rng.uniform(-1.0, 1.0, (6, 6)))

    cert = certify_matrix(A)
    print(f"classification {cert.classification}, theta {cert.theta:.6f}")
    print(f"certified rate eta_refined {cert.eta_refined:.6f}")

    res = gap_pipeline(A, cert, tol=1e-10)
    triple = res.triple
    print(f"lambda_1 {triple.lam:.12f}")
    print(f"iterations {triple.iterations}, residual {triple.residual:.3e}")
    print(f"a-posteriori metric error {triple.metric_error:.3e}")

    eta_sp = res.r_deflated / abs(triple.lam)
    print(f"observed eta_sp {eta_sp:.6f} <= certified {cert.eta_refined:.6f}")

    spectrum = dense_spectrum_oracle(A)
    print(f"oracle |lambda_2/lambda_1| {abs(spectrum[1]) / abs(spectrum[0]):.6f}")


if __name__ == "__main__":
    main()
