"""Every narrative script under demos/ runs to completion, and README lists
each one."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_demos_block_names_exactly_the_demo_scripts():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("\n## Demos\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^python3 demos/(\S+)", block, re.MULTILINE)
    assert sorted(listed) == [d.name for d in DEMOS]
