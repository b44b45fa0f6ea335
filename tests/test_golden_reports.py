"""Canonical report bytes of the demo inputs, pinned.

The expected files in tests/golden/ are the stdout of each command, run from
the repository root, and each command's exit code is pinned beside it. These reports depend only on the block sweep and the
pair gauges phi/Phi behind the metric and the variational bounds (no BLAS
call), so a change to either must leave them byte for byte the same.
"""

from pathlib import Path

import pytest

from conegap.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"

# name: (argv, exit code); a report that is not strict exits 1
COMMANDS = {
    "certify_identity": (["certify", "demos/data/identity.json"], 1),
    "certify_sym": (["certify", "demos/data/sym.json"], 0),
    "certify_sym8": (["certify", "demos/data/sym8.json"], 0),
    # complex, not symmetric: these take the full sweep
    "certify_sweep6_strict": (["certify", "demos/data/sweep6_strict.json"], 0),
    "certify_sweep6_closed": (["certify", "demos/data/sweep6_closed.json"], 1),
    "certify_sweep6_fail": (["certify", "demos/data/sweep6_fail.json"], 1),
    "product_sym_sym": (["product", "demos/data/sym.json", "demos/data/sym.json"], 0),
    "kernel_sample5_gaussian8": (["kernel", "--sample", "5", "demos/data/gaussian8.json"], 0),
    "metric_vectors_0_1": (["metric", "demos/data/vectors.json", "0", "1"], 0),
    "metric_vectors_0_2": (["metric", "demos/data/vectors.json", "0", "2"], 0),
    "metric_vectors_1_2": (["metric", "demos/data/vectors.json", "1", "2"], 0),
    "bounds_refine10_sym": (["bounds", "demos/data/sym.json", "--refine", "10"], 0),
    "bounds_refine10_identity": (["bounds", "demos/data/identity.json", "--refine", "10"], 1),
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_bytes_are_pinned(name, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)  # reports name their inputs by the path given
    argv, code = COMMANDS[name]
    assert main(argv) == code
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / f"{name}.json").read_bytes()
