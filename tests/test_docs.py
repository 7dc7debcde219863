"""Cross-references in the package docstrings and in README name attributes that exist."""

import importlib
import re
from pathlib import Path

import pytest

import routercell

PACKAGE = Path(routercell.__file__).parent
README = PACKAGE.parents[1] / "README.md"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("_"))

#: ``(module, target)`` of every Sphinx role in the package sources, ``~`` dropped.
DOC_REFS = [(path.stem, target) for path in sorted(PACKAGE.glob("*.py"))
            for target in re.findall(r":(?:func|class|data|mod|exc):`~?([\w.]+)`",
                                     path.read_text())]
#: Every backticked ``module.name`` or ``routercell.module.name`` in README.
README_REFS = re.findall(r"`((?:routercell\.)?(?:%s)\.[\w.]+)`" % "|".join(MODULES),
                         README.read_text())


def resolves(dotted: str) -> bool:
    """Whether the longest importable prefix of ``dotted`` has the rest as attributes."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        try:
            for name in parts[i:]:
                obj = getattr(obj, name)
        except AttributeError:
            return False
        return True
    return False


def test_references_are_found():
    assert len(DOC_REFS) >= 20 and README_REFS


@pytest.mark.parametrize("module, target", DOC_REFS, ids=[":".join(ref) for ref in DOC_REFS])
def test_docstring_reference_resolves(module, target):
    # a bare name is looked up in the module that mentions it
    assert resolves(f"routercell.{module}.{target}") or resolves(target)


@pytest.mark.parametrize("target", README_REFS)
def test_readme_reference_resolves(target):
    assert resolves(target if target.startswith("routercell.") else f"routercell.{target}")
