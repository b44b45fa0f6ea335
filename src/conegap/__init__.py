"""Contraction certificates and spectral-gap bounds on the complexified positive cone.

The library decides whether a complex matrix (or a sampled integral kernel)
uniformly contracts the cone of vectors with pairwise nonnegative Re(x_i
conj(x_j)), turns the contraction parameter into quantitative convergence
rates, and certifies the leading eigen-triple with a-posteriori error bounds.
"""

from .certify import (
    BlockWitness,
    ContractionCertificate,
    certify_matrix,
    product_gap_bound,
)
from .cone import (
    DistanceResult,
    alpha,
    beta,
    distance,
    hilbert_distance,
    member_closed,
    preorder_geq,
    preorder_sample_check,
    random_member,
)
from .core2x2 import (
    DEFAULT_TOL,
    Complex2x2,
    DeltaQuadruple,
    Phi,
    delta1,
    deltas,
    diameter_bound,
    eta1,
    in_gamma_closed,
    in_gamma_open,
    phi,
    rank_of,
    refined_rate,
    theta2,
)
from .fileio import (
    ParseError,
    canonical_json,
    parse_kernel,
    parse_matrix,
    parse_vectors,
    serialize_kernel,
    serialize_matrix,
    serialize_vectors,
)
from .kernel import KernelGrid, kernel_certify, kernel_theta, nystrom_matrix
from .spectral import EigenTriple, GapResult, deflated_radius, dense_spectrum_oracle, gap_pipeline, power_eigen
from .variational import (
    VariationalBounds,
    basis_lower_bound,
    bounds_at,
    ones_lower_bound,
    refine_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DEFAULT_TOL",
    "Complex2x2",
    "DeltaQuadruple",
    "in_gamma_open",
    "in_gamma_closed",
    "theta2",
    "deltas",
    "rank_of",
    "phi",
    "Phi",
    "delta1",
    "eta1",
    "refined_rate",
    "diameter_bound",
    "member_closed",
    "alpha",
    "beta",
    "DistanceResult",
    "distance",
    "preorder_geq",
    "preorder_sample_check",
    "hilbert_distance",
    "random_member",
    "BlockWitness",
    "ContractionCertificate",
    "certify_matrix",
    "product_gap_bound",
    "EigenTriple",
    "power_eigen",
    "deflated_radius",
    "GapResult",
    "gap_pipeline",
    "dense_spectrum_oracle",
    "VariationalBounds",
    "bounds_at",
    "basis_lower_bound",
    "ones_lower_bound",
    "refine_bounds",
    "KernelGrid",
    "kernel_theta",
    "nystrom_matrix",
    "kernel_certify",
    "ParseError",
    "parse_matrix",
    "parse_vectors",
    "parse_kernel",
    "serialize_matrix",
    "serialize_vectors",
    "serialize_kernel",
    "canonical_json",
]
