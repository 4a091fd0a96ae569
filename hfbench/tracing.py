"""Spans around calls into hfree's public functions, and the per-layer
metrics derived from them.

`Tracer.install` replaces each function in `TIMED` by a wrapper that
records one span per call -- name, start, end, parent span and, for
`ProcessState.step`, the number of pairs the step closed -- and `uninstall`
puts the originals back.  The wrappers are set from here, so the program
itself is not changed.  A span's self time is its duration less that of its
child spans.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

# (span name, module, attribute path) for every timed function
TIMED = [
    ("process.init", "hfree.process", "ProcessState.__init__"),
    ("process.step", "hfree.process", "ProcessState.step"),
    ("process.status_matrix", "hfree.process", "ProcessState.status_matrix"),
    ("ledger.sampled_counts", "hfree.ledger", "sampled_counts"),
    ("ledger.apply_edge", "hfree.ledger", "PairLedger.apply_edge"),
    ("k4stats.witness", "hfree.k4stats", "k4_witness_counts"),
    ("k4stats.triple", "hfree.k4stats", "k4_triple_counts"),
    ("trajectory.bad_event", "hfree.trajectory", "k3_bad_event"),
    ("trajectory.bad_event", "hfree.trajectory", "k4_bad_event"),
    ("analysis.greedy", "hfree.analysis", "independence_greedy"),
    ("analysis.exact", "hfree.analysis", "independence_exact"),
    ("harness.run_trial", "hfree.harness", "run_trial"),
    ("harness.run_experiment", "hfree.harness", "run_experiment"),
    ("cli.main", "hfree.cli", "main"),
    ("cli.cmd_run", "hfree.cli", "cmd_run"),
    ("cli.cmd_verify", "hfree.cli", "cmd_verify"),
    ("graphio.graph6", "hfree.graphio", "write_graph6"),
    ("graphio.edge_log", "hfree.graphio", "write_edge_log"),
]
CALL_NAMES = sorted({name for name, _, _ in TIMED})

# span fields
NAME, START, END, PARENT, CLOSED = range(5)


def _closed_count(outcome):
    return len(outcome.closed_ids)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(idx)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[CLOSED] = count(result)
            return result

        return wrapper

    def install(self):
        for name, module, path in TIMED:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            count = _closed_count if name == "process.step" else None
            setattr(owner, attr, self._wrap(name, fn, count))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)


def layer_metrics(rounds, traced_walls, untraced_walls):
    """Per-layer metrics from the spans of the traced rounds in `rounds`.

    Totals (unit "s" and counts) are per round; "/call" and "/step" figures
    are per call over all rounds, 0 where the layer was not called.
    """
    spans, parents = [], []
    for r in rounds:
        base = len(spans)
        spans += r
        parents += [s[PARENT] + base if s[PARENT] >= 0 else -1 for s in r]
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    by_name, kids = {}, {}
    for k, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(k)
        if parents[k] >= 0:
            child[parents[k]] += dur[k]
            kids.setdefault(parents[k], []).append(k)

    def total(name, self_time=False):
        return sum(dur[k] - (child[k] if self_time else 0.0) for k in by_name.get(name, ()))

    def per_call(name, scale, self_time=False):
        calls = len(by_name.get(name, ()))
        return total(name, self_time) / calls * scale if calls else 0.0

    nr = len(rounds)
    trial_steps = [k for k in by_name.get("process.step", ())
                   if spans[parents[k]][NAME] == "harness.run_trial"]
    # cli.replay_s: time in `hfree run` after run_experiment returns, less
    # the graphio writes
    replay = 0.0
    for k in by_name.get("cli.cmd_run", ()):
        exp_end = max(spans[j][END] for j in kids[k]
                      if spans[j][NAME] == "harness.run_experiment")
        io = sum(dur[j] for j in kids[k] if spans[j][NAME].startswith("graphio."))
        replay += spans[k][END] - exp_end - io

    m = {
        "process.init_s": ("s", per_call("process.init", 1.0)),
        "process.step_us": ("us/step", (sum(dur[k] for k in trial_steps) / len(trial_steps)
                                        * 1e6 if trial_steps else 0.0)),
        "process.pairs_closed": ("count", sum(spans[k][CLOSED] for k in trial_steps) / nr),
        "process.status_matrix_ms": ("ms/call", per_call("process.status_matrix", 1e3)),
        "ledger.sampled_counts_ms": ("ms/call", per_call("ledger.sampled_counts", 1e3, True)),
        "ledger.apply_edge_us": ("us/call", per_call("ledger.apply_edge", 1e6)),
        "k4stats.witness_ms": ("ms/call", per_call("k4stats.witness", 1e3)),
        "k4stats.triple_ms": ("ms/call", per_call("k4stats.triple", 1e3)),
        "trajectory.bad_event_ms": ("ms/call", per_call("trajectory.bad_event", 1e3)),
        "analysis.greedy_s": ("s", total("analysis.greedy") / nr),
        "analysis.exact_s": ("s", total("analysis.exact") / nr),
        "harness.trial_self_s": ("s", total("harness.run_trial", True) / nr),
        "cli.replay_s": ("s", replay / nr),
        "cli.verify_s": ("s", total("cli.cmd_verify") / nr),
        "graphio.graph6_s": ("s", total("graphio.graph6") / nr),
        "graphio.edge_log_s": ("s", total("graphio.edge_log") / nr),
    }
    for name in CALL_NAMES:
        m[name + ".calls"] = ("count", len(by_name.get(name, ())) / nr)
    m["trace.overhead_s"] = ("s", statistics.median(traced_walls)
                             - statistics.median(untraced_walls))
    return m
