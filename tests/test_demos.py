"""Every demo script and the README quick start run against the current API."""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_quick_start_runs(capsys):
    section = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(snippet, "README.md", "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out
