"""Every demo script runs to completion in a fresh interpreter, in a
temporary directory, so what a demo writes stays out of the checkout, and
the README's library tour runs as written."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from corpus import child_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))

# lines a demo must print, by script name: demo 02 prints the nine border
# points of the figure and the cover verdict
STDOUT_HOLDS = {
    "02_covering_regions": [
        "[(0, 3), (0, 4), (1, 1), (1, 2), (1, 3), (2, 1), (3, 0), (3, 1), (4, 0)]",
        "contained in the union: True",
        "15 of 48",
    ],
}


def test_all_four_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(script, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for text in STDOUT_HOLDS.get(script.stem, ()):
        assert text in proc.stdout


def test_readme_python_blocks_run():
    """The README's `python` blocks, run in order in one namespace."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["escape_set"](namespace["seq"], namespace["fam"], 2).size == 12
