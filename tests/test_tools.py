"""The scripts under tools/ run on small inputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_peak_rss_prints_one_json_line(tmp_path):
    cfg = tmp_path / "k3.cfg"
    cfg.write_text("process = K3\nn_list = 30\nbase_seed = 1\n")
    env = dict(os.environ, TMPDIR=str(tmp_path))
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "peak_rss.py"), str(cfg)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 1
    out = json.loads(lines[0])
    assert set(out) == {"config", "n_list", "peak_rss_mb", "wall_s"}
    assert out["config"] == str(cfg) and out["n_list"] == [30]
    assert out["peak_rss_mb"] > 0 and out["wall_s"] > 0
    assert [p.name for p in tmp_path.iterdir()] == ["k3.cfg"]  # its temp dir is gone


@pytest.mark.parametrize("layer", ["k3-snapshot", "k4-snapshot", "k3-advance", "k4-advance",
                                   "greedy-alpha", "exact-alpha"])
def test_layer_ab_prints_one_json_line(layer):
    src = str(ROOT / "src")
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "layer_ab.py"), "--src", src,
                           "--src", src, "--runs", "2", "--n", "12", layer],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 1
    out = json.loads(lines[0])
    assert out["layer"] == layer and out["runs"] == 2 and out["A"] == out["B"] == src
    assert out["unit"] == ("us/step" if layer.endswith("advance") else "ms/call")
    assert out["cases"] and all(case.startswith("n12-") for case in out["cases"])
    for case in out["cases"].values():
        for side in (case["A"], case["B"]):
            assert set(side) == {"median", "q1", "q3", "min", "max"}
            assert 0 <= side["min"] <= side["q1"] <= side["median"] <= side["q3"] <= side["max"]
