"""Self-tests for the benchmark's own arithmetic: self time, tail percentile, failures.

    python3 -m pytest perfbench/test_harness.py
"""

import math
import types

import pytest

import stats
import tracer


def test_self_time_subtracts_the_union_of_direct_children():
    # 0: root [0, 10]; 1: [1, 4] and 2: [3, 6] overlap; 3: [2, 3] nested in 1;
    # 4: [9, 12] runs past its parent and is clipped to it.
    parent = [-1, 0, 0, 1, 0]
    start = [0.0, 1.0, 3.0, 2.0, 9.0]
    end = [10.0, 4.0, 6.0, 3.0, 12.0]
    selfs = tracer.self_times(parent, start, end)
    assert selfs == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 3])


def test_covered_length_merges_and_clips():
    assert tracer.covered_length([], 0, 1) == 0.0
    assert tracer.covered_length([(0, 2), (1, 3), (5, 6)], 0, 10) == pytest.approx(4)
    assert tracer.covered_length([(-5, 1), (4, 20)], 0, 5) == pytest.approx(2)


def test_self_under_follows_same_layer_descendants_only():
    names = ["spectral.power_eigen", "cone.distance", "cone.beta", "cone.beta", "certify.certify_matrix"]
    parent = [-1, 0, 1, 1, -1]
    selfs = [1.0, 0.5, 2.0, 3.0, 7.0]
    assert tracer.self_under(names, parent, selfs, "cone.distance") == pytest.approx(5.5)
    assert tracer.self_under(names, parent, selfs, "spectral.power_eigen") == pytest.approx(1.0)
    assert tracer.layer_self(names, selfs, "cone") == pytest.approx(5.5)
    assert tracer.self_under(names, parent, selfs, "variational.bounds_at") == 0.0


def _module(name, source, public):
    mod = types.ModuleType(name)
    exec(source, mod.__dict__)
    mod.__all__ = public
    return mod


def _fake_program():
    core = _module("pkg.core2x2", "def unit(x):\n    return helper(x)\n"
                   "def helper(x):\n    return float(len(x))\n", ["unit", "helper"])
    cone = _module("pkg.cone", "def gauge(x):\n    return unit(x) + unit(x)\n"
                   "def distance(x):\n    return gauge(x) + gauge(x)\n", ["gauge", "distance"])
    cone.unit = core.unit
    spectral = _module("pkg.spectral", "import types\n"
                       "def power_eigen(x):\n"
                       "    return types.SimpleNamespace(steps=[distance(x) for _ in range(3)], converged=True)\n",
                       ["power_eigen"])
    spectral.distance = cone.distance
    package = types.ModuleType("pkg")
    package.power_eigen = spectral.power_eigen
    return package, {"core2x2": core, "cone": cone, "spectral": spectral}


def test_tracer_records_spans_and_counts_and_restores_the_program():
    package, modules = _fake_program()
    original = package.power_eigen
    t = tracer.Tracer()
    with t.installed(package, modules, task=4):
        assert package.power_eigen([0.5, 0.5]).steps == [8.0, 8.0, 8.0]
    assert package.power_eigen is original
    assert modules["spectral"].distance is modules["cone"].distance
    names = [t.names[i] for i in t.span_name]
    assert names.count("spectral.power_eigen") == 1
    assert names.count("cone.distance") == 3
    assert names.count("cone.gauge") == 6
    assert set(t.span_task) == {4}
    assert all(not math.isnan(e) and e >= s for s, e in zip(t.span_start, t.span_end))
    assert t.edges[("cone.distance", "spectral.power_eigen")] == 3
    assert t.work["cone.distance"] == 3 * (2 * 3)  # two gauges over the pairs p <= q of n = 2
    assert t.converged == {True: 1}
    # core2x2 is counted at the boundary only: unit -> helper is one call
    assert t.calls["core2x2.unit"] == 12 and t.calls["core2x2.helper"] == 0
    assert t.scalar_calls["cone"] == 12
    d = tracer.self_under(names, t.span_parent,
                          tracer.self_times(t.span_parent, t.span_start, t.span_end), "cone.distance")
    assert d > 0.0


def test_tracer_refuses_to_install_twice():
    package, modules = _fake_program()
    t = tracer.Tracer()
    with t.installed(package, modules, task=0):
        with pytest.raises(RuntimeError):
            t.install(package, modules)
    assert package.power_eigen([1.0]).steps == [4.0, 4.0, 4.0]


def test_tail_takes_the_highest_percentile_with_ten_samples_beyond():
    assert stats.tail(range(10)) is None
    t = stats.tail(range(11))
    assert (t.value, t.samples, t.beyond) == (0, 11, 10)
    assert t.percentile == pytest.approx(100 / 11)
    t = stats.tail([float(x) for x in range(100, 0, -1)])
    assert (t.value, t.percentile, t.beyond) == (90.0, 90.0, 10)
    t = stats.tail(range(1000))
    assert (t.value, t.percentile) == (989, 99.0)


def test_failure_counting():
    ok = frozenset({0})
    assert stats.failure_reason(False, 0, ok, True) is None
    assert stats.failure_reason(False, None, ok, True) is None
    assert stats.failure_reason(True, None, ok, None) == stats.FAIL_RAISED
    assert stats.failure_reason(True, 3, ok, None) == stats.FAIL_RAISED
    assert stats.failure_reason(False, 3, ok, False) == stats.FAIL_NONCONVERGED
    assert stats.failure_reason(False, None, ok, False) == stats.FAIL_NONCONVERGED
    assert stats.failure_reason(False, 2, ok, None) == stats.FAIL_UNEXPECTED_EXIT
    assert stats.failure_reason(False, 1, ok, True) == stats.FAIL_UNEXPECTED_EXIT
    reasons = [None, stats.FAIL_RAISED, None, stats.FAIL_NONCONVERGED]
    assert stats.failed_ratio(reasons) == 0.5
    assert stats.failed_ratio([None]) == 0.0
    with pytest.raises(ValueError):
        stats.failed_ratio([])
