"""Command-line front end.

Commands:
  certify <matrix>                    classify and rate a matrix
  gap <matrix> [--verify]             certificate + eigen-triple + deflated gap
  bounds <matrix> [--vector F | --basis] [--refine K]
  metric <vectors> <i> <j>            projective distance between stored vectors
  kernel <grid> [--sample N]          kernel certificate + discretized pipeline
  product <matrix>...                 per-factor certificates + product gap bound
  grid --preset NAME [--n N] [--lo A] [--hi B] [--param C]
                                      emit a sampled kernel grid file

Exit codes: 0 certified/computed, 1 certification failed (witness in the
report), 2 input or format error, 3 numerical non-convergence or a refuted
gap. gap and kernel only serialize the result of spectral.gap_pipeline.

The report is canonical JSON on stdout; --report writes the same bytes to a
file. Identical inputs and flags reproduce the report byte for byte, except
under --timings, which adds wall-clock measurements.
"""

import argparse
import hashlib
import sys
import time

import numpy as np

from .certify import ContractionCertificate, certify_matrix, product_gap_bound
from .cone import distance
from .fileio import (
    canonical_json,
    complex_pair,
    kernel_document,
    parse_kernel,
    parse_matrix,
    parse_vectors,
)
from .kernel import KernelGrid, kernel_certify, kernel_theta
from .spectral import ORACLE_MAX_N, GapResult, dense_spectrum_oracle, gap_pipeline
from .variational import VariationalBounds, basis_lower_bound, bounds_at, refine_bounds

__all__ = ["main", "entry"]


def _sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _input_entry(path: str) -> dict:
    return {"path": path, "sha256": _sha256(path)}


def _cert_payload(cert: ContractionCertificate) -> dict:
    w = cert.witness
    witness = None
    if w is not None:
        witness = {
            "i": w.i,
            "j": w.j,
            "p": w.p,
            "q": w.q,
            "block": [
                [complex_pair(w.block.a), complex_pair(w.block.b)],
                [complex_pair(w.block.c), complex_pair(w.block.d)],
            ],
        }
    d = cert.delta_sup
    return {
        "classification": cert.classification,
        "exhaustive": cert.exhaustive,
        "theta": cert.theta,
        "delta_sup": {"d1": d.d1, "d2": d.d2, "d3": d.d3, "d4": d.d4, "max": max(d.as_tuple())},
        "eta_simple": cert.eta_simple,
        "eta_refined": cert.eta_refined,
        "diam_bound": cert.diam_bound,
        "witness": witness,
    }


def _matrix_report(command: str, path: str, M) -> tuple[ContractionCertificate, dict]:
    """Certify the matrix M parsed from path; start the report that certify, gap and bounds share."""
    cert = certify_matrix(M)
    return cert, {"command": command, "input": _input_entry(path), "certificate": _cert_payload(cert)}


def _add_gap_sections(report: dict, res: GapResult, bound_key: str, bound: float) -> int:
    """Add the eigen and deflation sections of a gap_pipeline result; return the exit code."""
    t = res.triple
    if t is None:
        return 1
    report["eigen"] = {
        "lam": complex_pair(t.lam),
        "h": [complex_pair(z) for z in t.h],
        "nu": [complex_pair(z) for z in t.nu],
        "iterations": t.iterations,
        "residual": t.residual,
        "metric_error": t.metric_error,
        "converged": t.converged,
    }
    if res.r_deflated is None:
        print("power iteration did not converge", file=sys.stderr)
        return 3
    report["deflation"] = {
        "r_deflated": res.r_deflated,
        "eta_sp_observed": res.r_deflated / abs(t.lam),
        bound_key: bound,
    }
    return 0


def _bounds_payload(b: VariationalBounds, mode: str) -> dict:
    return {
        "mode": mode,
        "lower": b.lower,
        "upper": b.upper,
        "argmin": list(b.argmin) if b.argmin is not None else None,
        "argmax": list(b.argmax) if b.argmax is not None else None,
    }


def _cmd_certify(args) -> tuple[int, dict]:
    cert, report = _matrix_report("certify", args.matrix, parse_matrix(args.matrix))
    return (0 if cert.strict else 1), report


def _cmd_gap(args) -> tuple[int, dict]:
    M = parse_matrix(args.matrix)
    # the oracle's size cap fails fast, before the sweep and both orbits
    spectrum = dense_spectrum_oracle(M) if args.verify else None
    cert, report = _matrix_report("gap", args.matrix, M)
    res = gap_pipeline(M, cert, args.tol, args.max_iter, args.seed)
    code = _add_gap_sections(report, res, "eta_refined_bound", cert.eta_refined)
    if code == 0 and spectrum is not None:
        second = abs(spectrum[1]) / abs(spectrum[0]) if spectrum.size > 1 else None
        report["oracle"] = {
            "eigenvalues": [complex_pair(z) for z in spectrum],
            "lambda_abs_error": float(abs(spectrum[0] - res.triple.lam)),
            "second_ratio": second,
        }
    return code, report


def _cmd_bounds(args) -> tuple[int, dict]:
    M = parse_matrix(args.matrix)
    # checked before the certificate decides whether refinement runs at all
    if args.refine is not None and args.refine < 0:
        raise ValueError("iteration count must be nonnegative")
    cert, report = _matrix_report("bounds", args.matrix, M)
    if args.basis:
        report["bounds"] = {"mode": "basis", "lower": basis_lower_bound(M)}
    elif args.vector is not None:
        vecs = parse_vectors(args.vector)
        if len(vecs) != 1:
            raise ValueError(f"{args.vector}: bounds needs exactly one test vector, got {len(vecs)}")
        report["bounds"] = _bounds_payload(bounds_at(M, vecs[0]), "vector")
    else:
        report["bounds"] = _bounds_payload(bounds_at(M, np.ones(M.shape[0], dtype=complex)), "ones")
    if args.refine is not None:
        if not cert.strict:
            return 1, report
        seq = refine_bounds(M, cert, args.refine)
        report["refine"] = {
            "iterations": len(seq) - 1,
            "lower": seq[-1].lower,
            "upper": seq[-1].upper,
            "history": [{"lower": b.lower, "upper": b.upper} for b in seq],
        }
    return (1 if cert.classification == "fail" else 0), report


def _cmd_metric(args) -> tuple[int, dict]:
    vecs = parse_vectors(args.vectors)
    for name, k in (("i", args.i), ("j", args.j)):
        if not 0 <= k < len(vecs):
            raise ValueError(f"index {name}={k} out of range for {len(vecs)} vectors (0-based)")
    res = distance(vecs[args.i], vecs[args.j])
    report = {
        "command": "metric",
        "input": _input_entry(args.vectors),
        "metric": {
            "i": args.i,
            "j": args.j,
            "beta_xy": res.beta_xy,
            "beta_yx": res.beta_yx,
            "distance": res.distance,
        },
    }
    return 0, report


def _cmd_kernel(args) -> tuple[int, dict]:
    grid = parse_kernel(args.grid)
    report = {"command": "kernel", "input": _input_entry(args.grid)}
    if args.sample is not None:
        rng = np.random.default_rng(args.seed)
        cert = kernel_theta(grid, sample=args.sample, rng=rng)
        report["certificate"] = _cert_payload(cert)
        return (0 if cert.classification == "strict" else 1), report
    res = kernel_certify(grid, seed=args.seed)
    report["certificate"] = _cert_payload(res.certificate)
    return _add_gap_sections(report, res, "eta1_bound", res.certificate.eta_simple), report


def _cmd_product(args) -> tuple[int, dict]:
    mats = [parse_matrix(p) for p in args.matrices]
    for k in range(len(mats) - 1):
        if mats[k].shape[1] != mats[k + 1].shape[0]:
            raise ValueError(
                f"factor {k} has {mats[k].shape[1]} columns but factor {k + 1} has "
                f"{mats[k + 1].shape[0]} rows; the product is undefined"
            )
    certs = [certify_matrix(M) for M in mats]
    report = {
        "command": "product",
        "inputs": [_input_entry(p) for p in args.matrices],
        "factors": [_cert_payload(c) for c in certs],
    }
    if all(c.strict for c in certs):
        report["product_bound"] = product_gap_bound(certs)
        return 0, report
    report["product_bound"] = None
    return 1, report


GRID_PRESETS = {
    # name: (default parameter, meaning)
    "constant": 1.0,  # k = c
    "affine": 0.1,  # k = 1 + c (x + y)
    "gaussian": 1.0,  # k = exp(-((x - y) / c)^2)
    "gaussian-twist": 0.1,  # k = exp(-(x - y)^2) (1 + i c x y)
}


def _cmd_grid(args) -> tuple[int, dict]:
    if args.n < 2:
        raise ValueError("need at least two grid points")
    if not args.hi > args.lo:
        raise ValueError("grid interval is empty")
    c = GRID_PRESETS[args.preset] if args.param is None else args.param
    x = np.linspace(args.lo, args.hi, args.n)
    X, Y = x[:, None], x[None, :]
    if args.preset == "constant":
        vals = np.full((args.n, args.n), complex(c))
    elif args.preset == "affine":
        vals = (1.0 + c * (X + Y)).astype(complex)
    elif args.preset == "gaussian":
        if c <= 0.0:
            raise ValueError("gaussian width must be positive")
        vals = np.exp(-(((X - Y) / c) ** 2)).astype(complex)
    else:
        vals = np.exp(-((X - Y) ** 2)) * (1 + 1j * c * X * Y)
    return 0, kernel_document(KernelGrid(x, np.full(args.n, (args.hi - args.lo) / args.n), vals))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conegap",
        description="Contraction certificates and spectral-gap bounds for complex matrices and kernels.",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized subroutines (default 0)")
    parser.add_argument("--report", metavar="PATH", help="also write the report bytes to PATH")
    parser.add_argument("--timings", action="store_true", help="add wall-clock timings to the report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="classify a matrix and compute its contraction rates")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("gap", help="certificate plus eigen-triple and deflated spectral gap")
    p.add_argument("matrix")
    p.add_argument("--verify", action="store_true",
                   help=f"compare against a dense eigensolve (n <= {ORACLE_MAX_N})")
    p.add_argument("--tol", type=float, default=1e-12, help="power iteration stop tolerance")
    p.add_argument("--max-iter", type=int, default=1000, help="power iteration cap")
    p.set_defaults(func=_cmd_gap)

    p = sub.add_parser("bounds", help="variational eigenvalue bounds")
    p.add_argument("matrix")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--vector", metavar="FILE", help="bounds at the single vector stored in FILE")
    g.add_argument("--basis", action="store_true", help="basis-vector lower bound")
    p.add_argument("--refine", type=int, metavar="K", help="power-orbit refinement for K steps")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("metric", help="projective distance between two stored vectors")
    p.add_argument("vectors")
    p.add_argument("i", type=int, help="0-based index of the first vector")
    p.add_argument("j", type=int, help="0-based index of the second vector")
    p.set_defaults(func=_cmd_metric)

    p = sub.add_parser("kernel", help="certify a sampled kernel and its discretized operator")
    p.add_argument("grid")
    p.add_argument(
        "--sample",
        type=int,
        metavar="N",
        help="test N random quadruples instead of all (triage evidence, not a certificate)",
    )
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("grid", help="emit a sampled kernel grid for a numeric preset")
    p.add_argument("--preset", choices=sorted(GRID_PRESETS), required=True)
    p.add_argument("--n", type=int, default=8, help="number of uniform nodes (default 8)")
    p.add_argument("--lo", type=float, default=0.0, help="left endpoint (default 0)")
    p.add_argument("--hi", type=float, default=1.0, help="right endpoint (default 1)")
    p.add_argument("--param", type=float, default=None, help="preset coefficient")
    p.set_defaults(func=_cmd_grid, raw=True)

    p = sub.add_parser("product", help="per-factor certificates and the product gap bound")
    p.add_argument("matrices", nargs="+")
    p.set_defaults(func=_cmd_product)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        code, report = args.func(args)
    except ValueError as e:  # ParseError included
        print(f"conegap: {e}", file=sys.stderr)
        return 2
    except OverflowError:
        print("conegap: overflow: input entries too large for double precision", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as e:
        print(f"conegap: linear algebra failure: {e}", file=sys.stderr)
        return 3
    except RuntimeError as e:
        print(f"conegap: {e}", file=sys.stderr)
        return 3
    if not getattr(args, "raw", False):  # raw outputs are themselves input files
        report["seed"] = args.seed
        if args.timings:
            report["timings"] = {"seconds_total": time.perf_counter() - start}
    blob = canonical_json(report) + "\n"
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8", newline="") as f:
                f.write(blob)
        except OSError as e:
            print(f"conegap: cannot write report: {e}", file=sys.stderr)
            return 2
    sys.stdout.write(blob)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
