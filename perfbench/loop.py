"""The closed loop: run tasks, time them, check them, and sample set-up time.

The machine the bounds were set on runs the same code at two speeds about
twofold apart, switching within milliseconds, and the mix drifts over
minutes. A speed probe timed inside each task, on the task's own CPU,
measures the speed the task ran at, so the gated task times can be given in
units of it (see run.py).
"""

import signal
import time
import traceback
from contextlib import contextmanager

import numpy as np

from stats import FAIL_RAISED
from workloads import Outcome

SETUP_EVERY_S = 5.0
SETUP_FIRST = 3
PROBE_INTERVAL_S = 0.02


def reference_kernel() -> float:
    """About 0.1 ms of complex arithmetic and small loops, the kind of work
    the program does. It never calls the program, so the program cannot
    change it."""
    z = 0.75 + 0.5j
    acc = 0.0
    for i in range(1, 150):
        w = z * complex(i, 1.0)
        acc += abs(w) + (w * z.conjugate()).real / i
    return acc


class SpeedProbe:
    """Times reference_kernel() every PROBE_INTERVAL_S of wall time while a task runs.

    A SIGALRM handler runs it in the task's own thread, between bytecodes of
    the program, so it sees the CPU and the moment the task sees. Its own time
    is kept in `total` and taken off the task's seconds.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.total = 0.0

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        reference_kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.total += dt

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)


class SetupProbe:
    """Set-up times taken between tasks, never inside a timed one.

    SETUP_FIRST before the loop, then at most one every SETUP_EVERY_S, so the
    median spans the whole run rather than one moment of the machine.
    """

    def __init__(self, setup_once):
        self._setup_once = setup_once
        self.samples: list[float] = []
        self._next = -float("inf")

    def sample(self) -> None:
        self.samples.append(self._setup_once())
        self._next = time.perf_counter() + SETUP_EVERY_S

    def warm_up(self) -> None:
        for _ in range(SETUP_FIRST):
            self.sample()

    def after_task(self) -> None:
        if time.perf_counter() >= self._next:
            self.sample()


def _raised(spec, seconds):
    return Outcome(dict(spec.desc, error=traceback.format_exc(limit=4)), seconds, FAIL_RAISED)


def execute(wl, ctx, spec, check_rng, probe: SpeedProbe):
    """Run one task untraced; the clock covers the program call only."""
    probe_before, first = probe.total, len(probe.samples)
    t0 = time.perf_counter()
    try:
        with probe.running():
            result = wl.call(ctx, spec)
    except Exception:  # a raising task is a failed task, recorded with its input
        return _raised(spec, time.perf_counter() - t0 - (probe.total - probe_before))
    seconds = time.perf_counter() - t0 - (probe.total - probe_before)
    out = wl.inspect(ctx, spec, result, check_rng)
    out.seconds = seconds
    during = probe.samples[first:]
    if during:
        out.reference_s = sum(during) / len(during)
    return out


def execute_traced(wl, ctx, spec, check_rng, tracer, task_id):
    """Run one task untraced, then under the tracer, on the same input.

    On kernel-cli the task also runs as a child process first; the three
    reports must be byte-identical.
    """
    as_process = hasattr(wl, "call_process")
    timings = {}
    results = []
    t0 = time.perf_counter()
    try:
        if as_process:
            results.append(wl.call_process(ctx, spec))
            timings["child_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        results.append(wl.call(ctx, spec))
        timings["untraced_s"] = time.perf_counter() - t0
        with tracer.installed(ctx.cg, ctx.modules, task_id):
            t0 = time.perf_counter()
            results.append(wl.call(ctx, spec))
            timings["traced_s"] = time.perf_counter() - t0
    except Exception:  # as in execute()
        return _raised(spec, time.perf_counter() - t0)
    out = wl.inspect(ctx, spec, results[-1], check_rng)
    out.seconds = timings["traced_s"]
    out.timings = timings
    for other in results[:-1]:
        out.problems += wl.inspect(ctx, spec, other, check_rng).problems
    if as_process and len({(code, stdout) for code, stdout, _ in results}) != 1:
        out.problems.append("process, untraced and traced runs gave different exit codes or reports")
    return out


def run_loop(wl, seed: int, seconds: int, run_task, setup: SetupProbe):
    """Repeat whole cycles while the next one is expected to end by the deadline.

    Every run holds whole cycles, so the mix of inputs behind each median is
    the same from run to run; at least one cycle always runs.
    """
    setup.warm_up()
    outcomes = []
    start = time.perf_counter()
    for spec in wl.prologue(seed):
        outcomes.append(run_task(spec))
        setup.after_task()
    cycle_s = []
    c = 0
    while True:
        t0 = time.perf_counter()
        for spec in wl.cycle(seed, c):
            outcomes.append(run_task(spec))
            setup.after_task()
        cycle_s.append(time.perf_counter() - t0)
        c += 1
        if time.perf_counter() - start + float(np.median(cycle_s)) > seconds:
            return outcomes, c, time.perf_counter() - start
