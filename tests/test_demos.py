"""Smoke test: every numbered demo (02-05) and README's quick start run
to completion as scripts.

Demo 03 calls ``hooi`` and ``project_core`` directly; demo 05 drives
both file loaders through ``run_experiment`` on its worker pool.
README's python block runs so that it cannot drift from the API.
"""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))
README = ROOT / "README.md"


def test_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("path", DEMOS + [README], ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    if path == README:
        blocks = re.findall(r"```python\n(.*?)```", path.read_text(), re.S)
        assert len(blocks) == 1
        exec(compile(blocks[0], str(path), "exec"), {"__name__": "__main__"})
    else:
        runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    assert "False" not in out  # every check a demo prints holds
