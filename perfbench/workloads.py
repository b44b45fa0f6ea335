"""The three seeded workloads and their tasks.

Every workload is a closed loop with one client: a fixed cycle of task specs
is repeated, and the next task starts when the previous one ends. Inputs are
drawn from numpy generators keyed by (workload, seed, cycle, slot), so the
same seed gives the same inputs, and the program only ever sees the arrays or
grid files built here.

A task is timed around the library calls (or the child process) alone; the
correctness checks run after the clock stops.

Why these workloads:
  sweep       certify_matrix alone, n in {16, 24, 32}; a third of the inputs
              are closed or fail so the witness and delta paths stay timed.
              The block sweep is nearly all the work; the gauges do none.
  orbit       certify, power_eigen, deflated_radius and refine_bounds(K=20)
              at n <= 10, where the sweep is cheap and the pair gauges of
              distance() and bounds_at() dominate, most of all on inputs whose
              orbits spin at the floating-point floor.
  kernel-cli  one `conegap kernel <grid>` per task through cli.main: parse,
              both certificates, both orbits, deflation and canonical JSON,
              the only path that crosses every layer; process start and
              import are timed by setup_s.
"""

import contextlib
import io
import json
import math
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

import checks
from stats import failure_reason

STRICT_EXITS = frozenset({0})
TRIAGE_SAMPLE = 20000
TRIAGE_N = 64
REFINE_STEPS = 20
CHECK_SAMPLES = 64
CHILD_TIMEOUT_S = 150

# Salt that keeps the streams of the three workloads apart.
_STREAM = {"sweep": 1, "orbit": 2, "kernel-cli": 3}
# Stream of the two fixed random positive orbit inputs (see Orbit).
_SHARED_SEED = 20101126


@dataclass
class Spec:
    """One task: its input and the descriptor that names it."""

    desc: dict
    data: object = None


@dataclass
class Outcome:
    """What one task did, as recorded per task and summarized per run."""

    desc: dict
    seconds: float
    reason: str | None = None
    problems: list = field(default_factory=list)
    eta: float | None = None  # eta_refined of an exhaustive strict certificate
    timings: dict = field(default_factory=dict)  # extra timings of a traced task
    reference_s: float | None = None  # mean speed-probe time while it ran


def _rng(workload: str, seed: int, cycle: int, slot: int) -> np.random.Generator:
    return np.random.default_rng([_STREAM[workload], seed, cycle, slot])


def _cert_desc(cert) -> dict:
    return {"class": cert.classification, "theta": cert.theta, "eta_refined": cert.eta_refined}


def _witness(cert):
    w = cert.witness
    if w is None:
        return None
    return (w.i, w.j, w.p, w.q, (w.block.a, w.block.b, w.block.c, w.block.d))


class Context:
    """The imported program and where the benchmark may write."""

    def __init__(self, conegap, modules: dict, root: str, child_env: dict):
        self.cg = conegap
        self.modules = modules
        self.core = modules["core2x2"]
        self.root = root
        self.child_env = child_env


# -- sweep -----------------------------------------------------------------------


def sweep_matrix(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """A complex n x n matrix whose certificate class is `kind` by construction.

    strict: moduli in [1, 2] with phases within +-0.1, so every block is open.
    closed: a real positive matrix with zeros, times one global phase; the
      zeros put blocks on the boundary (theta 1) and make some blocks rank
      degenerate (theta 0 rule), while no block leaves the closed class.
    fail: a strict matrix with one entry turned by more than a right angle.
    """
    R = rng.uniform(1.0, 2.0, (n, n))
    if kind == "closed":
        A = R.astype(complex)
        r = rng.integers(n)
        A[r, rng.choice(n, size=2, replace=False)] = 0.0
        i, j = rng.choice(n, size=2, replace=False)
        p, q = rng.choice(n, size=2, replace=False)
        A[i, p] = A[j, q] = 0.0
        return A * np.exp(1j * rng.uniform(-math.pi, math.pi))
    A = R * np.exp(1j * rng.uniform(-0.1, 0.1, (n, n)))
    if kind == "fail":
        i, p = rng.integers(n, size=2)
        A[i, p] *= np.exp(1j * rng.uniform(2.0, 2.8))
    return A


class Sweep:
    name = "sweep"
    # Short n=16 tasks are two thirds of the cycle, so the median task is
    # always one of them, whatever the number of cycles in a run.
    CYCLE = (("strict", 16), ("closed", 16), ("strict", 16), ("fail", 16), ("strict", 16),
             ("strict", 16), ("strict", 24), ("closed", 24), ("strict", 32))

    def prologue(self, seed: int) -> list[Spec]:
        rng = _rng(self.name, seed, 0, len(self.CYCLE))  # a slot no cycle uses
        A = sweep_matrix("strict", TRIAGE_N, rng)
        return [Spec({"workload": self.name, "n": TRIAGE_N, "kind": "strict", "sample": TRIAGE_SAMPLE},
                     (A, seed))]

    def cycle(self, seed: int, c: int) -> list[Spec]:
        return [Spec({"workload": self.name, "cycle": c, "n": n, "kind": kind},
                     (sweep_matrix(kind, n, _rng(self.name, seed, c, k)), None))
                for k, (kind, n) in enumerate(self.CYCLE)]

    def call(self, ctx: Context, spec: Spec):
        A, sample_seed = spec.data
        if sample_seed is None:
            return ctx.cg.certify_matrix(A)
        return ctx.cg.certify_matrix(A, sample=TRIAGE_SAMPLE, rng=np.random.default_rng(sample_seed))

    def inspect(self, ctx: Context, spec: Spec, cert, check_rng) -> Outcome:
        A, _ = spec.data
        desc = dict(spec.desc, **_cert_desc(cert), exhaustive=cert.exhaustive)
        problems = checks.check_certificate(
            ctx.core, A, cert.classification, cert.theta, cert.eta_simple, cert.eta_refined,
            _witness(cert), check_rng, exhaustive=cert.exhaustive, samples=CHECK_SAMPLES)
        if cert.classification != spec.desc["kind"]:
            problems.append(f"built {spec.desc['kind']}, certified {cert.classification}")
        if cert.exhaustive != ("sample" not in spec.desc):
            problems.append(f"exhaustive flag {cert.exhaustive} does not match the request")
        eta = cert.eta_refined if cert.strict and cert.exhaustive else None
        return Outcome(desc, 0.0, None, problems, eta)


# -- orbit -----------------------------------------------------------------------


def near_rank_one(n: int, noise: float, rng: np.random.Generator) -> np.ndarray:
    """u v^T times (1 + noise U[0,1]) entrywise, with u, v of phases within +-0.1.

    Every block is open with theta <= 0.65 at noise 1; theta shrinks with the
    noise, to about 0.01 at noise 0.01.
    """
    u = rng.uniform(0.5, 1.5, n) * np.exp(1j * rng.uniform(-0.1, 0.1, n))
    v = rng.uniform(0.5, 1.5, n) * np.exp(1j * rng.uniform(-0.1, 0.1, n))
    return np.outer(u, v) * (1.0 + noise * rng.uniform(0.0, 1.0, (n, n)))


def random_positive(n: int, rng: np.random.Generator) -> np.ndarray:
    """Moduli in [0.1, 1] with phases within +-0.05: strict, theta about 0.85-0.98."""
    return rng.uniform(0.1, 1.0, (n, n)) * np.exp(1j * rng.uniform(-0.05, 0.05, (n, n)))


class Orbit:
    """Library gap pipeline on small matrices.

    The random positive inputs have eta_refined within 1e-4 of 1, so the stop
    threshold 1e-12 (1 - eta) lies below the floating-point floor of the step
    and an orbit spins to max_iter, unless it happens to land on an exact
    fixed point first (about one input in seven). That coin flip decides
    whether a task takes 0.05 s or 2 s, so these two inputs are fixed: the
    same in every cycle and for every seed. Drawn from the seed or the cycle,
    the number of spins, which sets most of the run time, would vary from run
    to run. The near-rank-one inputs, whose orbits converge in a few steps,
    come from the seed.
    """

    name = "orbit"
    # (n, noise); noise None marks a random positive input.
    CYCLE = ((6, 0.01), (6, 0.2), (6, 1.0), (6, 1.0), (8, 0.01), (8, 0.2), (8, 1.0), (8, None),
             (10, 1.0), (10, None))

    def prologue(self, seed: int) -> list[Spec]:
        return []

    def cycle(self, seed: int, c: int) -> list[Spec]:
        specs = []
        for k, (n, noise) in enumerate(self.CYCLE):
            if noise is None:
                A = random_positive(n, np.random.default_rng([_SHARED_SEED, k]))
                kind = "random-positive"
            else:
                A = near_rank_one(n, noise, _rng(self.name, seed, c, k))
                kind = f"rank-one-noise-{noise}"
            specs.append(Spec({"workload": self.name, "cycle": c, "n": n, "kind": kind}, A))
        return specs

    def call(self, ctx: Context, spec: Spec):
        cg = ctx.cg
        A = spec.data
        cert = cg.certify_matrix(A)
        triple = cg.power_eigen(A, cert)
        r = cg.deflated_radius(A, triple)
        seq = cg.refine_bounds(A, cert, REFINE_STEPS)
        return cert, triple, r, seq

    def inspect(self, ctx: Context, spec: Spec, result, check_rng) -> Outcome:
        A = spec.data
        cert, triple, r, seq = result
        desc = dict(spec.desc, **_cert_desc(cert), steps=triple.iterations, converged=triple.converged)
        problems = checks.check_certificate(
            ctx.core, A, cert.classification, cert.theta, cert.eta_simple, cert.eta_refined,
            _witness(cert), check_rng, samples=CHECK_SAMPLES)
        problems += checks.check_triple(A, cert.eta_refined, triple.lam, triple.h, triple.nu)
        problems += checks.check_bounds(A, [(b.lower, b.upper) for b in seq])
        if len(seq) != REFINE_STEPS + 1:
            problems.append(f"refine_bounds returned {len(seq)} steps, not {REFINE_STEPS + 1}")
        if not (math.isfinite(r) and r >= 0.0):
            problems.append(f"deflated radius {r!r} is not a finite nonnegative number")
        reason = failure_reason(False, None, STRICT_EXITS, triple.converged)
        return Outcome(desc, 0.0, reason, problems, cert.eta_refined)


# -- kernel-cli ------------------------------------------------------------------


def kernel_values(preset: str, x: np.ndarray, c: float) -> np.ndarray:
    """The kernel presets of `conegap grid`, written out independently."""
    X, Y = x[:, None], x[None, :]
    if preset == "affine":
        return (1.0 + c * (X + Y)).astype(complex)
    if preset == "gaussian":
        return np.exp(-(((X - Y) / c) ** 2)).astype(complex)
    if preset == "gaussian-twist":
        return np.exp(-((X - Y) ** 2)) * (1 + 1j * c * X * Y)
    raise ValueError(f"unknown preset {preset!r}")


def grid_doc(x: np.ndarray, w: np.ndarray, V: np.ndarray) -> dict:
    return {
        "points": [float(p) for p in x],
        "weights": [float(v) for v in w],
        "values": [[[float(z.real), float(z.imag)] for z in row] for row in V],
    }


def _pairs(rows) -> np.ndarray:
    return np.array([complex(re, im) for re, im in rows])


class KernelCli:
    """One `conegap kernel <grid>` run per task, through cli.main(argv).

    The timed run calls cli.main in the harness process, so the speed probe
    sees the task's CPU; process start and import are timed by setup_s, and
    the traced run also runs each grid as a fresh `python -m conegap.cli`
    process and reports the difference as cli.process_overhead_s.

    Six of the nine slots are n=16, so the median task is one of them. The
    parameter ranges are narrow and keep each slot's certified rate apart from
    the others; the median rate always comes from the affine n=16 slot at
    parameter 1. The twisted gaussian at 0.6 has eta_refined 0.99999, below
    the floating-point floor of the stop rule, and exits 3; it is one fixed
    grid so every seed runs the same spin.
    """

    name = "kernel-cli"
    # (preset, n, parameter range); eta_refined in the comments
    CYCLE = (("affine", 12, 0.1, 0.3),  # 0.02-0.12
             ("gaussian", 16, 4.0, 6.0),  # 0.12-0.27
             ("affine", 16, 0.7, 0.8),  # 0.40-0.46
             ("gaussian", 16, 2.9, 3.1),  # 0.44-0.49
             ("affine", 16, 0.99, 1.01),  # 0.56-0.57: the median slot
             ("gaussian", 16, 1.9, 2.1),  # 0.77-0.85
             ("affine", 16, 3.8, 4.2),  # 0.98
             ("gaussian", 20, 1.4, 1.6),  # 0.94-0.98
             ("gaussian-twist", 12, 0.6, 0.6))  # 0.99999, spins

    def __init__(self, workdir: str):
        self.workdir = workdir

    def prologue(self, seed: int) -> list[Spec]:
        return []

    def cycle(self, seed: int, c: int) -> list[Spec]:
        specs = []
        for k, (preset, n, lo, hi) in enumerate(self.CYCLE):
            param = float(_rng(self.name, seed, c, k).uniform(lo, hi)) if hi > lo else lo
            x = np.linspace(0.0, 1.0, n)
            w = np.full(n, 1.0 / n)
            V = kernel_values(preset, x, param)
            path = f"{self.workdir}/grid-{seed}-{c}-{k}.json"
            with open(path, "w", encoding="utf-8") as f:
                json.dump(grid_doc(x, w, V), f)
            desc = {"workload": self.name, "cycle": c, "n": n, "preset": preset, "param": param, "grid": path}
            specs.append(Spec(desc, (path, V, w)))
        return specs

    def argv(self, spec: Spec) -> list[str]:
        return ["kernel", spec.data[0]]

    def call(self, ctx: Context, spec: Spec):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ctx.modules["cli"].main(self.argv(spec))
        return code, out.getvalue(), err.getvalue()

    def call_process(self, ctx: Context, spec: Spec):
        proc = subprocess.run([sys.executable, "-m", "conegap.cli", *self.argv(spec)],
                              cwd=ctx.root, env=ctx.child_env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    def inspect(self, ctx: Context, spec: Spec, result, check_rng) -> Outcome:
        code, stdout, stderr = result
        path, V, w = spec.data
        desc = dict(spec.desc, exit=code)
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            desc["stderr"] = stderr.strip()[-500:]
            return Outcome(desc, 0.0, failure_reason(True, code, STRICT_EXITS, None), [], None)
        problems = []
        cert = report.get("certificate") or {}
        eig = report.get("eigen")
        converged = eig.get("converged") if eig else None
        desc.update({"class": cert.get("classification"), "theta": cert.get("theta"),
                     "eta_refined": cert.get("eta_refined"),
                     "steps": eig.get("iterations") if eig else None, "converged": converged})
        if cert.get("classification") != "strict":
            problems.append(f"grid built strict, certified {cert.get('classification')!r}")
        wit = cert.get("witness")
        witness = None
        if wit is not None:
            (a, b), (c, d) = wit["block"]
            witness = (wit["i"], wit["j"], wit["p"], wit["q"], tuple(_pairs([a, b, c, d])))
        problems += checks.check_certificate(
            ctx.core, V, cert.get("classification"), cert.get("theta"), cert.get("eta_simple"),
            cert.get("eta_refined"), witness, check_rng, exhaustive=cert.get("exhaustive", False),
            samples=CHECK_SAMPLES)
        if eig is None:
            if code in (0, 3):
                problems.append(f"exit {code} without an eigen section")
        else:
            L = V.T * w  # Nystrom matrix L[j][i] = k(x_i, x_j) w_i
            lam = complex(*eig["lam"])
            problems += checks.check_triple(L, cert["eta_refined"], lam, _pairs(eig["h"]), _pairs(eig["nu"]))
            if (code == 0) != bool(converged):
                problems.append(f"exit {code} with converged={converged}")
        if code == 0:
            defl = report.get("deflation") or {}
            bound = ctx.core.eta1(cert["theta"])
            if defl.get("eta1_bound") != bound:
                problems.append(f"eta1_bound {defl.get('eta1_bound')!r} != eta1(theta) {bound!r}")
            if not defl.get("eta_sp_observed", math.inf) <= bound + 1e-9:
                problems.append(f"observed gap {defl.get('eta_sp_observed')!r} above eta1 {bound!r}")
        reason = failure_reason(False, code, STRICT_EXITS, converged)
        eta = cert.get("eta_refined") if cert.get("classification") == "strict" else None
        return Outcome(desc, 0.0, reason, problems, eta)


def make(name: str, workdir: str):
    if name == "sweep":
        return Sweep()
    if name == "orbit":
        return Orbit()
    if name == "kernel-cli":
        return KernelCli(workdir)
    raise ValueError(f"unknown workload {name!r}")
