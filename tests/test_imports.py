"""Start-up cost: the package root loads nothing, presets load no config parser or hash,
the CLI loads no numpy, scipy optimizer or constants table, each CLI step loads only the
layers it uses, fits load no scipy, no package module imports a name it never uses, and code
outside the tests uses every exported name and sets every keyword option of an exported function."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import scipy.constants

import routercell
from routercell import model

HEAVY = ("scipy.optimize", "scipy.constants")


def run_fresh(code: str, cwd=None) -> str:
    """Last line of stdout of ``code`` run in a fresh interpreter.

    This interpreter has loaded scipy for the tests already.
    """
    src = str(Path(routercell.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, cwd=cwd)
    return out.stdout.splitlines()[-1]


def test_package_root_loads_neither_numpy_nor_a_submodule():
    code = ("import sys, routercell; print('loaded:' + ','.join(sorted(m for m in sys.modules "
            "if m == 'numpy' or m.startswith('routercell.'))))")
    assert run_fresh(code) == "loaded:"


def test_model_import_loads_no_later_stage():
    later = tuple(f"routercell.{m}" for m in ("estimation", "synth", "io", "calibration"))
    code = (f"import sys, routercell.model; "
            f"print('loaded:' + ','.join(m for m in {later!r} if m in sys.modules))")
    assert run_fresh(code) == "loaded:"


def test_presets_import_loads_neither_configparser_nor_hashlib():
    # the benchmark's set-up imports presets, which reads runs.CONFIG_SCHEMA
    code = ("import sys, routercell.presets; print('loaded:' + ','.join(m for m in "
            "('configparser', 'hashlib') if m in sys.modules))")
    assert run_fresh(code) == "loaded:"


def test_cli_import_loads_neither_scipy_optimize_nor_constants():
    code = (f"import sys, routercell.cli; "
            f"print('loaded:' + ','.join(m for m in {HEAVY!r} if m in sys.modules))")
    assert run_fresh(code) == "loaded:"


def test_fit_and_sweep_temp_load_no_scipy(tmp_path):
    code = "\n".join([
        "import sys",
        "from routercell import cli",
        "for argv in (['synth'], ['calibrate', 'runs/synth/meas.csv', 'runs/synth/hd.csv'],",
        "             ['fit', 'runs/calibrate/calibrated.csv'], ['sweep-temp']):",
        "    assert cli.main(['--out', '.', '--run-id', argv[0], *argv]) == 0",
        "print('scipy:' + ','.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))",
    ])
    assert run_fresh(code, cwd=tmp_path) == "scipy:"
    assert (tmp_path / "runs" / "fit" / "fit.json").is_file()


def test_cli_import_loads_no_numpy():
    code = ("import sys, routercell.cli; print('loaded:' + ','.join(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'numpy')))")
    assert run_fresh(code) == "loaded:"


def test_report_loads_no_numpy(tmp_path):
    params = {"gamma_a": 1.1e7, "gamma_b": 1.4e7, "omega_ge": 3.9e10, "phi_a": 0.1, "phi_b": -0.1}
    (tmp_path / "fit.json").write_text(json.dumps({
        "params": params, "sigma": dict.fromkeys(params, 1e3), "converged": True,
        "n_iter": 5, "residual_norm": 1e-3, "flags": []}))
    code = "\n".join([
        "import sys",
        "from routercell import cli",
        "assert cli.main(['--out', '.', '--run-id', 'report', 'report', 'fit.json']) == 0",
        "print('loaded:' + ','.join(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')))",
    ])
    assert run_fresh(code, cwd=tmp_path) == "loaded:"
    assert (tmp_path / "runs" / "report" / "report.txt").is_file()


def test_synth_and_calibrate_load_no_estimation(tmp_path):
    code = "\n".join([
        "import sys",
        "from routercell import cli",
        "for argv in (['synth'], ['calibrate', 'runs/synth/meas.csv', 'runs/synth/hd.csv']):",
        "    assert cli.main(['--out', '.', '--run-id', argv[0], *argv]) == 0",
        "print('loaded:' + ','.join(m for m in ('routercell.estimation',) if m in sys.modules))",
    ])
    assert run_fresh(code, cwd=tmp_path) == "loaded:"
    assert (tmp_path / "runs" / "calibrate" / "calibrated.csv").is_file()


def test_si_constants_equal_scipy_values_exactly():
    assert model.hbar == scipy.constants.hbar
    assert model.k_B == scipy.constants.k


def unused_imports(source: str) -> list[str]:
    """Names an import binds and its scope never reads.

    The scope is the function the import sits in, or the whole module;
    a name listed in ``__all__`` counts as read.
    """
    tree = ast.parse(source)
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= {e.value for e in node.value.elts}

    def unused_in(scope) -> list[str]:
        read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)} | exported
        found, todo = [], list(scope.body)
        while todo:
            node = todo.pop(0)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += unused_in(node)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        found.append(f"{name} (line {node.lineno})")
            else:
                todo += ast.iter_child_nodes(node)
        return found

    return unused_in(tree)


def test_unused_import_check_sees_module_and_function_scopes():
    source = "\n".join([
        "from __future__ import annotations",
        "import math, os.path",
        "from .model import cell_response, efficiency_thermal, n_thermal",
        "__all__ = ['n_thermal']",
        "class C:",
        "    def f(self):",
        "        from . import io, synth",
        "        return io.x + math.pi",
        "def g():",
        "    try:",
        "        import numpy",
        "    except ImportError:",
        "        import scipy",
        "    return cell_response",
    ])
    assert set(unused_imports(source)) == {"os (line 2)", "efficiency_thermal (line 3)",
                                           "synth (line 7)", "numpy (line 11)", "scipy (line 13)"}


def test_no_package_module_imports_a_name_it_never_uses():
    package = Path(routercell.__file__).resolve().parent
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


#: Exported names that no package, benchmark or demo code uses yet, each with
#: the ROADMAP item that gives it a caller.
UNUSED_EXPORTS = {
    "estimation.efficiency_trace": "item 7: the dephasing and thermal chains from data",
    "io.read_line_model": "item 4: the fit through the known lines",
}


def unreferenced_exports(modules: dict[str, str], code: list[str]) -> set[str]:
    """``module.name`` for each ``__all__`` name that no source in ``code`` reads,
    and ``module.Class.name`` for each public method or property of an exported class.

    A name counts as read where it appears as a name, an attribute or an
    imported name; ``__all__`` itself and docstrings do not count.
    """
    read = set()
    for source in code:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name.split(".")[-1])
    found = set()
    for module, source in modules.items():
        body = ast.parse(source).body
        exported = set()
        for node in body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                exported = {e.value for e in node.value.elts}
        found |= {f"{module}.{name}" for name in exported if name not in read}
        for node in body:
            if isinstance(node, ast.ClassDef) and node.name in exported:
                found |= {f"{module}.{node.name}.{f.name}" for f in node.body
                          if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
                          and f.name not in read}
    return found


def test_unreferenced_export_check_sees_names_attributes_and_imports():
    module = "\n".join([
        '"""Uses used_doc."""',
        "__all__ = ['f', 'g', 'h', 'k', 'C']",
        "def f(): pass",
        "def g(): pass",
        "class C:",
        "    def __init__(self): pass",
        "    def _private(self): pass",
        "    def used(self): pass",
        "    @property",
        "    def shape(self): pass",
        "    def unused(self): pass",
        "class Hidden:",
        "    def unread(self): pass",
    ])
    code = [module, "from m import g\nimport m\nm.h()\nprint(k)\nm.C().used()\nprint(m.C().shape)\n"]
    assert unreferenced_exports({"m": module}, code) == {"m.f", "m.C.unused"}


def test_every_export_is_used_outside_the_tests():
    root = Path(__file__).resolve().parents[1]
    modules = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted((root / "src" / "routercell").glob("*.py"))}
    code = [p.read_text(encoding="utf-8") for folder in ("src", "bench", "demos")
            for p in sorted((root / folder).rglob("*.py")) if not p.name.startswith("test_")]
    assert unreferenced_exports(modules, code) == set(UNUSED_EXPORTS)


#: Keyword options of exported functions that no package, benchmark or demo
#: code sets, each with the reason it stays.
UNSET_OPTIONS = {
    "estimation.fit_T1(seed=)": "every fit takes the label that its FitReport records",
    "estimation.fit_rabi_decay(seed=)": "every fit takes the label that its FitReport records",
}


def unset_keyword_options(modules: dict[str, str], code: list[str]) -> set[str]:
    """``module.function(name=)`` for each parameter with a default of an ``__all__``
    function that no call in ``code`` sets.

    A call sets a parameter when it names the function (as a name or an
    attribute) and passes the parameter by keyword, reaches its position
    with positional arguments, or unpacks ``*args`` or ``**kwargs`` that
    might hold it.
    """
    options = {}
    for module, source in modules.items():
        body = ast.parse(source).body
        exported = set()
        for node in body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                exported = {e.value for e in node.value.elts}
        for node in body:
            if isinstance(node, ast.FunctionDef) and node.name in exported:
                args = node.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                for index, arg in enumerate(positional[first:], first):
                    options[f"{module}.{node.name}({arg.arg}=)"] = (node.name, arg.arg, index)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        options[f"{module}.{node.name}({arg.arg}=)"] = (node.name, arg.arg, None)
    calls = [node for source in code for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Call)]

    def sets(call, function, name, index) -> bool:
        called = call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", None)
        if called != function:
            return False
        if any(k.arg in (name, None) for k in call.keywords):
            return True
        return index is not None and (len(call.args) > index or any(
            isinstance(a, ast.Starred) for a in call.args))

    return {key for key, (function, name, index) in options.items()
            if not any(sets(call, function, name, index) for call in calls)}


def test_unset_option_check_sees_keywords_positions_and_unpacking():
    module = "\n".join([
        "__all__ = ['f', 'g', 'h']",
        "def f(a, b=1, c=2, *, d=3, e): pass",
        "def g(a, b=1): pass",
        "def h(a=1): pass",
        "def hidden(a=1): pass",
    ])
    code = [module, "f(0, 1, d=4, e=5)\nm.g(*args)\nh(**options)\n"]
    assert unset_keyword_options({"m": module}, code) == {"m.f(c=)"}


def test_every_keyword_option_is_set_outside_the_tests():
    root = Path(__file__).resolve().parents[1]
    modules = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted((root / "src" / "routercell").glob("*.py"))}
    code = [p.read_text(encoding="utf-8") for folder in ("src", "bench", "demos")
            for p in sorted((root / folder).rglob("*.py")) if not p.name.startswith("test_")]
    assert unset_keyword_options(modules, code) == set(UNSET_OPTIONS)
