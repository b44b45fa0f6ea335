"""Canonical report bytes of the demo inputs, pinned.

The expected files in tests/golden/ are the stdout of each command, run from
the repository root. These reports depend only on the block sweep and the
pair gauges phi/Phi behind the metric and the variational bounds (no BLAS
call), so a change to either must leave them byte for byte the same.
"""

from pathlib import Path

import pytest

from conegap.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"

COMMANDS = {
    "certify_identity": ["certify", "demos/data/identity.json"],
    "certify_sym": ["certify", "demos/data/sym.json"],
    "certify_sym8": ["certify", "demos/data/sym8.json"],
    "product_sym_sym": ["product", "demos/data/sym.json", "demos/data/sym.json"],
    "kernel_sample5_gaussian8": ["kernel", "--sample", "5", "demos/data/gaussian8.json"],
    "metric_vectors_0_1": ["metric", "demos/data/vectors.json", "0", "1"],
    "metric_vectors_0_2": ["metric", "demos/data/vectors.json", "0", "2"],
    "metric_vectors_1_2": ["metric", "demos/data/vectors.json", "1", "2"],
    "bounds_refine10_sym": ["bounds", "demos/data/sym.json", "--refine", "10"],
    "bounds_refine10_identity": ["bounds", "demos/data/identity.json", "--refine", "10"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_bytes_are_pinned(name, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)  # reports name their inputs by the path given
    main(COMMANDS[name])
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / f"{name}.json").read_bytes()
