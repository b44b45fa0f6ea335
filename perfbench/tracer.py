"""Span tracer that measures conegap's layers from outside.

install() rebinds every attribute of a conegap module that refers to a public
function of a layer (a name in that layer module's __all__) to a wrapper, and
uninstall() puts the originals back. Because the rebinding covers the
importing modules too, cross-module calls such as spectral -> cone.distance
or cli -> certify.certify_matrix pass through a wrapper.

A call into a span layer opens a span (name, start, end, parent, task).
core2x2 is counted only: its functions run several times per block, so a span
each would swamp the sweep; a core2x2 call is counted once at the layer
boundary, keyed by the layer of the innermost open span, and calls core2x2
makes into itself are not counted again.

Spans are held in flat arrays in memory and written out by dump().
"""

import json
import math
import time
import types
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("core2x2", "cone", "certify", "spectral", "variational", "kernel", "fileio", "cli")
COUNT_ONLY = frozenset({"core2x2"})


def _blocks(args, kwargs) -> int:
    """Blocks certify_matrix visits: C(n,2) C(m,2), or the sample size when sampling."""
    shape = getattr(args[0], "shape", None)
    n, m = shape if shape is not None else (len(args[0]), len(args[0][0]))
    total = (n * (n - 1) // 2) * (m * (m - 1) // 2)
    sample = kwargs.get("sample", args[2] if len(args) > 2 else None)
    return total if sample is None else min(int(sample), total)


def _gauge_pairs(args, kwargs) -> int:
    """Coordinate pairs p <= q that the two gauges of distance() evaluate."""
    n = len(args[0])
    return n * (n + 1)


def _bounds_pairs(args, kwargs) -> int:
    n = len(args[1])
    return n * (n + 1) // 2


# Work units recorded per call, for the per-layer rates (ns/block, us/pair).
WORK = {
    "certify.certify_matrix": _blocks,
    "cone.distance": _gauge_pairs,
    "variational.bounds_at": _bounds_pairs,
}


class Tracer:
    """Collects spans and call counts while installed; inert otherwise."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_task = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.task = -1
        self.calls = Counter()  # every wrapped call, by qualified name
        self.edges = Counter()  # (callee, innermost open span name) for span-layer calls
        self.scalar_calls = Counter()  # core2x2 boundary calls, by the calling layer
        self.work = Counter()  # WORK units, by qualified name
        self.converged = Counter()  # power_eigen outcomes: True / False
        self.bytes_out = 0
        self._scalar_depth = 0
        self._saved: list[tuple[types.ModuleType, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _span_wrapper(self, qual: str, fn):
        name_id = self._name_id(qual)
        work = WORK.get(qual)
        is_power = qual == "spectral.power_eigen"
        is_emit = qual == "fileio.canonical_json"
        perf = time.perf_counter

        def traced(*args, **kwargs):
            stack = self.stack
            parent = stack[-1] if stack else -1
            self.calls[qual] += 1
            self.edges[(qual, self.names[self.span_name[parent]] if parent >= 0 else None)] += 1
            if work is not None:
                self.work[qual] += work(args, kwargs)
            idx = len(self.span_name)
            self.span_name.append(name_id)
            self.span_parent.append(parent)
            self.span_task.append(self.task)
            self.span_end.append(math.nan)
            stack.append(idx)
            self.span_start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[idx] = perf()
                stack.pop()
            if is_power:
                self.converged[bool(result.converged)] += 1
            elif is_emit:
                self.bytes_out += len(result)
            return result

        return traced

    def _count_wrapper(self, qual: str, fn):
        def counted(*args, **kwargs):
            if self._scalar_depth:
                return fn(*args, **kwargs)
            self.calls[qual] += 1
            stack = self.stack
            caller = self.names[self.span_name[stack[-1]]].split(".", 1)[0] if stack else None
            self.scalar_calls[caller] += 1
            self._scalar_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._scalar_depth -= 1

        return counted

    # -- installation ------------------------------------------------------

    def install(self, package: types.ModuleType, modules: dict[str, types.ModuleType]) -> None:
        """Rebind public layer functions in every module of the package, and the package itself."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        public = {}  # function object -> (layer, qualified name)
        for layer, mod in modules.items():
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    public[obj] = (layer, f"{layer}.{attr}")
        wrappers = {}
        for fn, (layer, qual) in public.items():
            if layer in COUNT_ONLY:
                wrappers[fn] = self._count_wrapper(qual, fn)
            else:
                wrappers[fn] = self._span_wrapper(qual, fn)
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    @contextmanager
    def installed(self, package, modules, task: int):
        self.task = task
        self.install(package, modules)
        try:
            yield self
        finally:
            self.uninstall()
            self.task = -1

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the spans as columns; times in ns from the first span's start."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        doc = {
            "names": self.names,
            "name": list(self.span_name),
            "parent": list(self.span_parent),
            "task": list(self.span_task),
            "start_ns": [round((s - t0) * 1e9) for s in self.span_start],
            "end_ns": [round((e - t0) * 1e9) for e in self.span_end],
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, separators=(",", ":"))


# -- self time -----------------------------------------------------------------


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append((start[i], end[i]))
    out = [end[i] - start[i] for i in range(len(parent))]
    for p, kids in children.items():
        out[p] -= covered_length(kids, start[p], end[p])
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_under(names, parent, selfs, root: str) -> float:
    """Self time of root's layer spent on behalf of root.

    Sums the self time of every span named root and of every span of the same
    layer reached from it through same-layer spans only, so a gauge helper
    that distance() calls counts toward distance, while the core2x2 or cone
    work that a spectral span calls out to does not count toward spectral.
    """
    layer = layer_of(root)
    mark = [False] * len(parent)
    total = 0.0
    for i, p in enumerate(parent):  # parents are recorded before their children
        nm = names[i]
        if layer_of(nm) != layer:
            continue
        if nm == root or (p >= 0 and mark[p]):
            mark[i] = True
            total += selfs[i]
    return total


def layer_self(names, selfs, layer: str) -> float:
    return sum(s for nm, s in zip(names, selfs) if layer_of(nm) == layer)


def summarize(tracer: Tracer, tasks: int) -> dict[str, float]:
    """Per-layer figures per traced task; rates are 0 where the layer did no work."""
    if tasks < 1:
        raise ValueError("no traced task")
    names = [tracer.names[i] for i in tracer.span_name]
    selfs = self_times(tracer.span_parent, tracer.span_start, tracer.span_end)

    def under(root):
        return self_under(names, tracer.span_parent, selfs, root)

    def rate(num, den, scale):
        return num / den * scale if den else 0.0

    certify_self = layer_self(names, selfs, "certify")
    blocks = tracer.work["certify.certify_matrix"]
    distance_self = under("cone.distance")
    bounds_self = under("variational.bounds_at")
    power_calls = tracer.converged[True] + tracer.converged[False]
    return {
        "certify.self_s": certify_self / tasks,
        "certify.blocks": blocks / tasks,
        "certify.ns_per_block": rate(certify_self, blocks, 1e9),
        "certify.calls_per_task": tracer.calls["certify.certify_matrix"] / tasks,
        "core2x2.calls_per_block": rate(tracer.scalar_calls["certify"], blocks, 1.0),
        "cone.distance.calls": tracer.calls["cone.distance"] / tasks,
        "cone.distance.self_s": distance_self / tasks,
        "cone.us_per_pair": rate(distance_self, tracer.work["cone.distance"], 1e6),
        "spectral.power_eigen.self_s": under("spectral.power_eigen") / tasks,
        "spectral.deflated_radius.self_s": under("spectral.deflated_radius") / tasks,
        "spectral.orbit_steps_per_task": tracer.edges[("cone.distance", "spectral.power_eigen")] / tasks,
        "spectral.converged_ratio": rate(tracer.converged[True], power_calls, 1.0),
        "variational.bounds_at.calls": tracer.calls["variational.bounds_at"] / tasks,
        "variational.bounds_at.self_s": bounds_self / tasks,
        "variational.us_per_pair": rate(bounds_self, tracer.work["variational.bounds_at"], 1e6),
        "kernel.self_s": layer_self(names, selfs, "kernel") / tasks,
        "fileio.parse_s": under("fileio.parse_kernel") / tasks,
        "fileio.emit_s": under("fileio.canonical_json") / tasks,
        "fileio.bytes_out": tracer.bytes_out / tasks,
        "cli.main.self_s": under("cli.main") / tasks,
    }
