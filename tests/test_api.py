import importlib

import pytest

LAYERS = ("core2x2", "cone", "certify", "spectral", "variational", "kernel", "fileio", "cli")


@pytest.mark.parametrize("module", ["conegap", *(f"conegap.{layer}" for layer in LAYERS)])
def test_all_names_resolve_once(module):
    # perfbench's tracer wraps every __all__ entry by getattr, so a stale or
    # repeated name breaks the traced benchmark
    mod = importlib.import_module(module)
    assert len(mod.__all__) == len(set(mod.__all__))
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
