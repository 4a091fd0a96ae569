"""Each script under demos/ runs to the end on small arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMOS = {
    "demo_concentration.py": ["--trials", "2000"],
    "demo_k4_process.py": ["-n", "60"],
    "demo_pair_ledger.py": ["-n", "12"],
    "demo_ramsey_ratios.py": ["--n-list", "40,60", "--trials", "1"],
    "demo_trajectory_fit.py": ["-n", "200", "--witnesses", "30"],
    "demo_triangle_free_run.py": ["-n", "60"],
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMOS)


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_runs(name, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name), *DEMOS[name]],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
