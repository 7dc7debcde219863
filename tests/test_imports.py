"""Start-up cost: the CLI loads no scipy optimizer or constants table."""

import os
import subprocess
import sys
from pathlib import Path

import scipy.constants

import routercell
from routercell import model

HEAVY = ("scipy.optimize", "scipy.constants")


def test_cli_import_loads_neither_scipy_optimize_nor_constants():
    # a fresh interpreter: this one has loaded scipy for the tests already
    src = str(Path(routercell.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = (f"import sys, routercell.cli; "
            f"print(','.join(m for m in {HEAVY!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == ""


def test_si_constants_equal_scipy_values_exactly():
    assert model.hbar == scipy.constants.hbar
    assert model.k_B == scipy.constants.k
