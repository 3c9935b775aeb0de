"""The demos and the README's library quick start run as documented, and the
README's entry-point table names only attributes that exist."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_readme_entry_points_exist():
    """Every backticked name in README's "Key entry points" table is an
    attribute of the module named in its row."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("Key entry points", 1)[1].split("\n\n", 2)[1]
    rows = [line for line in table.splitlines() if line.startswith("| `qcorr")]
    assert rows
    for row in rows:
        module_cell, contents = row.strip("|").split("|", 1)
        module = importlib.import_module(module_cell.strip().strip("`"))
        names = [re.sub(r"\(.*\)$", "", name) for name in re.findall(r"`([^`]+)`", contents)]
        assert names, row
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
