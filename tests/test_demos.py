"""Smoke test: the numbered demos and README's quick start run to
completion as scripts.

Demos 01 and 03 are the remaining callers of the public ``tensor_ops``
algebra and ``hooi``; demo 05 drives both file loaders through
``run_experiment`` on its worker pool.  README's python block runs so
that it cannot drift from the API.
"""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0[1-5]_*.py"))
README = ROOT / "README.md"


def test_demos_found():
    assert len(DEMOS) == 5


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
