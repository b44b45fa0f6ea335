"""Canonical report bytes of the demo inputs, pinned.

The expected files in tests/golden/ are the stdout of each command, run from
the repository root. These reports depend only on the block sweep (no BLAS
call), so a change to the sweep must leave them byte for byte the same.
"""

from pathlib import Path

import pytest

from conegap.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"

COMMANDS = {
    "certify_identity": ["certify", "demos/data/identity.json"],
    "certify_sym": ["certify", "demos/data/sym.json"],
    "product_sym_sym": ["product", "demos/data/sym.json", "demos/data/sym.json"],
    "kernel_sample5_gaussian8": ["kernel", "--sample", "5", "demos/data/gaussian8.json"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_bytes_are_pinned(name, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)  # reports name their inputs by the path given
    main(COMMANDS[name])
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / f"{name}.json").read_bytes()
