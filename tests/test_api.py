import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import conegap

LAYERS = ("core2x2", "cone", "certify", "spectral", "variational", "kernel", "fileio", "cli")


@pytest.mark.parametrize("module", ["conegap", *(f"conegap.{layer}" for layer in LAYERS)])
def test_all_names_resolve_once(module):
    # perfbench's tracer wraps every __all__ entry by getattr, so a stale or
    # repeated name breaks the traced benchmark
    mod = importlib.import_module(module)
    assert len(mod.__all__) == len(set(mod.__all__))
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_exports_exactly_the_layers_public_names():
    # each name is declared once, in its layer's __all__; the package adds only __version__
    want = ["__version__"]
    for layer in LAYERS[:-1]:
        want += importlib.import_module(f"conegap.{layer}").__all__
    assert len(want) == len(set(want))
    assert conegap.__all__ == want


def test_package_import_leaves_cli_unimported():
    # the benchmark's set-up probe times `import conegap` and a first
    # certify_matrix call, so argparse, the CLI module and numpy.random (about
    # 18 ms of import) must stay out of them
    env = dict(os.environ)
    src = str(Path(conegap.__file__).resolve().parent.parent)  # the same conegap as this test's
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, conegap; conegap.certify_matrix([[2.0, 1.0], [1.0, 2.0]]); "
            "print('conegap.cli' in sys.modules, 'numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out == "False False\n"
