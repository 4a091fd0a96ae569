"""The benchmark under hfbench/ reaches into hfree by module and attribute
name; these tests fail when a rename or a signature change breaks it."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

from hfree import analysis
from hfree.analysis import graph_from_edges
from hfree.process import K3, K4, ProcessState

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "hfbench"


def _tracing():
    spec = importlib.util.spec_from_file_location("hfbench_tracing", BENCH / "tracing.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _resolve(module, path):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def test_timed_functions_resolve_and_tracer_round_trips():
    tracing = _tracing()
    targets = [_resolve(module, path) for _, module, path in tracing.TIMED]
    originals = [getattr(owner, attr) for owner, attr in targets]
    assert all(callable(fn) for fn in originals)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = [getattr(owner, attr) for owner, attr in targets]
        assert all(w is not fn and w.__wrapped__ is fn
                   for w, fn in zip(wrapped, originals))
        analysis.independence_greedy(graph_from_edges(3, [(0, 1)]),
                                     np.random.default_rng(0), 1)
        assert [s[tracing.NAME] for s in tracer.spans] == ["analysis.greedy"]
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is fn
               for (owner, attr), fn in zip(targets, originals))


def test_closed_count_is_drop_in_open_pairs():
    # the traced process.pairs_closed sums _closed_count over the steps
    tracing = _tracing()
    for rule, n in ((K3, 40), (K4, 30)):
        state = ProcessState(n, rule)
        rng = np.random.default_rng(n)
        while state.open_count:
            q_before = state.open_count
            closed = tracing._closed_count(state.step(rng))
            assert closed == q_before - state.open_count - 1


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, str(BENCH / "selftest.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
