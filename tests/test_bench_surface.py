"""The benchmark's in-process workloads still run on the library as it is.

``bench/workloads.py`` calls library names (``synth.gen_lines``,
``LineModel.at``, ``LineModel.matrices``, ``compose_exact``,
``compose_neumann``, ``cell_smatrix``, ``fit_four_channel`` and more).
One op and its check on the first pool instance of ``campaign`` and of
``deembed`` fail here when one of those names breaks; nothing in ``bench/``
is changed.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))


@pytest.mark.parametrize("name", ["Campaign", "Deembed"])
def test_workload_op_passes_its_check(workloads, name, tmp_path):
    workload = getattr(workloads, name)(tmp_path)
    check = workload.check(0, workload.op(0))
    assert check.ok, check.reason


def test_traced_methods_exist(workloads):
    tracing = importlib.import_module("tracing")
    for module, cls, method in tracing.METHODS:
        owner = getattr(importlib.import_module(f"routercell.{module}"), cls)
        assert callable(getattr(owner, method))
