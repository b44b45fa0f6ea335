"""conegap benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload {sweep,orbit,kernel-cli} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from ./src
and nothing needs installing. With --trace 0 the run is timed untraced and
the last stdout line carries the end-to-end metrics; with --trace 1 every task
runs once untraced and once under the span tracer, and the last line carries
the per-layer metrics. Lines before it print every metric by name and unit.
Per-task records, the machine description and the spans go to .perfbench/.
The exit code is 1 when any output fails the correctness gate, 2 when the
sources are missing.
"""

import argparse
import importlib
import itertools
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import tracer as spans
from stats import failed_ratio, median, tail

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("sweep", "orbit", "kernel-cli")
# One BLAS thread: with the harness and at most one child process alive at a
# time, the process and thread count stays within two, the core count of the
# machine the bounds were set on.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# A first call belongs to set-up: lazy initialisation moved into it would show.
SETUP_SNIPPET = "import conegap; conegap.certify_matrix([[2.0, 1.0], [1.0, 2.0]])"
MAX_PROBLEMS_SHOWN = 20

END_TO_END_UNITS = {
    "setup_s": "s",
    "task_ref_p50": "ref",
    "tasks_per_mref": "1/Mref",
    "peak_rss_mb": "MB",
    "eta_bound_p50": "ratio",
}
# Printed with the gated metrics but not gated: raw wall-clock figures, which
# carry the machine's drift, the tail, which moves with the task count, and
# the failed ratio, which reads 0 on sweep (see NOTES.md).
SHOWN_UNITS = {
    "task_s_p50": "s",
    "tasks_per_s": "1/s",
    "reference_s": "s",
    "task_s_tail": "s",
    "failed_ratio": "ratio",
}
PER_LAYER_UNITS = {
    "certify.self_s": "s",
    "certify.blocks": "count",
    "certify.ns_per_block": "ns",
    "certify.calls_per_task": "count",
    "core2x2.calls_per_block": "count",
    "cone.distance.calls": "count",
    "cone.distance.self_s": "s",
    "cone.us_per_pair": "us",
    "spectral.power_eigen.self_s": "s",
    "spectral.deflated_radius.self_s": "s",
    "spectral.orbit_steps_per_task": "count",
    "spectral.converged_ratio": "ratio",
    "variational.bounds_at.calls": "count",
    "variational.bounds_at.self_s": "s",
    "variational.us_per_pair": "us",
    "kernel.self_s": "s",
    "fileio.parse_s": "s",
    "fileio.emit_s": "s",
    "fileio.bytes_out": "B",
    "cli.main.self_s": "s",
    "cli.process_overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def child_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_once(env: dict) -> float:
    """Wall time for a fresh interpreter to start, import conegap and make a first call."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT, env=env, check=True, timeout=60)
    return time.perf_counter() - t0


def machine_info(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.25 has no dict mode
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "platform": platform.platform(),
        "clients": 1,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def end_to_end(outcomes, setup_samples, probe_samples, rss_mb: float) -> tuple[dict, dict]:
    """Gated metrics, and the raw figures printed beside them.

    The gated task times are in units of the speed probe ("ref"), which
    cancels most of the machine's changes of speed: each task's seconds over
    the probe's mean while it ran for the median, all task seconds over the
    probe's mean over the run for the rate. A task too short to be probed
    takes the run's mean.
    """
    times = [o.seconds for o in outcomes]
    etas = [o.eta for o in outcomes if o.eta is not None]
    reasons = [o.reason for o in outcomes]
    ref = sum(probe_samples) / len(probe_samples)
    gated = {
        "setup_s": median(setup_samples),
        "task_ref_p50": median([o.seconds / (o.reference_s or ref) for o in outcomes]),
        "tasks_per_mref": 1e6 * len(times) * ref / sum(times),
        "peak_rss_mb": rss_mb,
        "eta_bound_p50": median(etas),
    }
    t = tail(times)
    failed = sum(r is not None for r in reasons)
    shown = {  # name -> (value, note)
        "task_s_p50": (median(times), ""),
        "tasks_per_s": (len(times) / sum(times), ""),
        "reference_s": (ref, f"mean of {len(probe_samples)} speed probes"),
        "task_s_tail": ((t.value, f"p{t.percentile:.1f} of {t.samples} tasks, {t.beyond} beyond") if t
                        else (None, f"no percentile has 10 tasks beyond it in {len(times)} tasks")),
        "failed_ratio": (failed_ratio(reasons), f"{failed} of {len(reasons)} tasks failed"),
    }
    return gated, shown


def per_layer(outcomes, tracer) -> dict:
    metrics = spans.summarize(tracer, len(outcomes))
    timed = [o for o in outcomes if o.timings]
    child = [o.timings["child_s"] - o.timings["untraced_s"] for o in timed if "child_s" in o.timings]
    metrics["cli.process_overhead_s"] = median(child) if child else 0.0
    metrics["trace.overhead_ratio"] = (median([o.timings["traced_s"] for o in timed])
                                       / median([o.timings["untraced_s"] for o in timed]))
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "conegap" / "__init__.py").is_file():
        print(f"perfbench: no conegap sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)  # before numpy loads its BLAS
    sys.path.insert(0, str(SRC))
    import numpy as np

    import conegap
    import loop
    import workloads

    if Path(conegap.__file__).resolve().parent != (SRC / "conegap").resolve():
        print(f"perfbench: conegap imported from {conegap.__file__}, not {SRC}", file=sys.stderr)
        return 2
    modules = {layer: importlib.import_module(f"conegap.{layer}") for layer in spans.LAYERS}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = child_env()
    ctx = workloads.Context(conegap, modules, str(ROOT), env)
    wl = workloads.make(args.workload, str(workdir))
    machine = machine_info(np)
    conegap.certify_matrix([[2.0, 1.0], [1.0, 2.0]])  # the set-up probe's first call, untimed here

    check_rng = np.random.default_rng([7, args.seed])
    setup = loop.SetupProbe(lambda: setup_once(env))
    if args.trace:
        tracer = spans.Tracer()
        task_ids = itertools.count()

        def run_task(spec):
            return loop.execute_traced(wl, ctx, spec, check_rng, tracer, next(task_ids))
    else:
        probe = loop.SpeedProbe()

        def run_task(spec):
            return loop.execute(wl, ctx, spec, check_rng, probe)
    outcomes, cycles, elapsed = loop.run_loop(wl, args.seed, args.seconds, run_task, setup)

    if args.trace:
        metrics, units, shown = per_layer(outcomes, tracer), PER_LAYER_UNITS, {}
        tracer.dump(str(OUT / f"spans-{tag}.json"))
    else:
        metrics, shown = end_to_end(outcomes, setup.samples, probe.samples, peak_rss_mb())
        units = END_TO_END_UNITS
    reasons = [o.reason for o in outcomes]
    problems = [(o.desc, p) for o in outcomes for p in o.problems]

    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} cycles={cycles} tasks={len(outcomes)} elapsed_s={elapsed:.2f}")
    print("machine: " + json.dumps(machine, sort_keys=True))
    for name, unit in units.items():
        print(f"{name} = {metrics[name]!r} {unit}")
    for name, (value, note) in shown.items():
        print(f"{name} = {value!r} {SHOWN_UNITS[name]}" + (f" ({note})" if note else ""))
    for desc, p in problems[:MAX_PROBLEMS_SHOWN]:
        print(f"perfbench: INCORRECT {p} -- input {json.dumps(desc, default=str)}", file=sys.stderr)
    for o in outcomes:
        if o.reason is not None:
            print(f"perfbench: failed ({o.reason}) {json.dumps(o.desc, default=str)}", file=sys.stderr)

    result = {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": sum(r is not None for r in reasons),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = dict(result, args=vars(args), machine=machine, shown=shown, cycles=cycles,
                  elapsed_s=elapsed, setup_samples=setup.samples,
                  tasks=[dict(o.desc, seconds=o.seconds, reference_s=o.reference_s, failed=o.reason,
                              problems=o.problems, **o.timings) for o in outcomes])
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, default=str)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
