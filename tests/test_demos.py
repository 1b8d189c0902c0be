"""Smoke test: the numbered demos run to completion as scripts.

Demos 01 and 03 are the remaining callers of the public ``tensor_ops``
algebra and ``hooi``; demo 05 runs benchmark grids and is left out.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos")
               .glob("0[1-4]_*.py"))


def test_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    assert "False" not in out  # every check a demo prints holds
