"""Self-test of the benchmark's output checks.

    python3 hfbench/selftest.py

Runs small K3 (full ledger, with `hfree verify`) and K4 experiments through
`hfree.cli.main`, requires `checks.check_output` to pass their outputs, then
corrupts copies of them one way at a time and requires the matching checker
to reject each:

  * an edge closing a triangle appended to a K3 edge log   -> clique_free
  * an edge completing a K4 appended to the K4 edge log     -> clique_free
  * a snapshot's Q off by one                               -> snapshot_q
  * a snapshot's x_max off by one                           -> snapshot_xyz
  * an alpha witness that contains an edge                  -> alpha_witness

Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import checks
import run


def _edit_records(out, edit):
    """Apply edit(record) to the first record of out/records.jsonl."""
    path = out / "records.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    rec = json.loads(lines[1])
    edit(rec)
    lines[1] = json.dumps(rec, sort_keys=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return rec["run_id"]


def _append_closing_edge(out, rule):
    """Append to the first edge log a non-edge that completes a forbidden
    clique; returns the run id."""
    _, records = checks.read_records(out)
    rec = records[0]
    path = out / "edges" / (rec["run_id"] + ".edges")
    _, edges = checks.read_edge_log(path)
    adj = checks.adjacency(rec["n"], edges)
    closing = np.argwhere(np.triu((checks.closure_counts(adj, rule) > 0) & ~adj, 1))
    a, b = closing[0]
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("%d %d\n" % (a, b))
    return rec["run_id"]


def _off_by_one(key):
    def edit(rec):
        rec["snapshots"][len(rec["snapshots"]) // 2][key] += 1
    return edit


def main():
    sys.path.insert(0, str(run.SRC))
    from hfree import cli

    run.OUT_PARENT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_PARENT))
    ok = True

    def expect(label, out, verify_text, run_id=None, check=None):
        nonlocal ok
        fails = checks.check_output(out, verify_text)
        if check is None:
            good = not any(fails.values())
        else:
            good = check in {c for c, _ in fails[run_id]}
        ok &= good
        print("%s %s%s" % ("ok  " if good else "FAIL", label, "" if good else ": %r" % fails))

    try:
        outs = {}
        for name, config, verify in (
                ("k3", {"process": "K3", "n_list": 30, "trials": 2,
                        "ledger_mode": "full", "base_seed": 7}, True),
                ("k4", {"process": "K4", "n_list": 30, "trials": 1,
                        "stop": "full", "base_seed": 7}, False)):
            cfg = run.write_config(work / (name + ".cfg"), config)
            out = work / name
            _, verify_text = run.run_round(cli, cfg, out, verify, None)
            outs[name] = (out, verify_text)
            expect("clean %s output passes" % name, out, verify_text)

        def corrupt(label, name, check, mutate):
            src, verify_text = outs[name]
            out = work / ("%s-%s" % (name, check))
            shutil.copytree(src, out)
            expect(label, out, verify_text, mutate(out), check)

        corrupt("triangle added to a K3 edge log", "k3", "clique_free",
                lambda out: _append_closing_edge(out, 3))
        corrupt("K4 completed in the K4 edge log", "k4", "clique_free",
                lambda out: _append_closing_edge(out, 4))
        corrupt("snapshot Q off by one", "k3", "snapshot_q",
                lambda out: _edit_records(out, _off_by_one("Q")))
        corrupt("snapshot x_max off by one", "k3", "snapshot_xyz",
                lambda out: _edit_records(out, _off_by_one("x_max")))
        corrupt("K4 snapshot Q off by one", "k4", "snapshot_q",
                lambda out: _edit_records(out, _off_by_one("Q")))
        corrupt("alpha witness containing an edge", "k3", "alpha_witness",
                _break_witness)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.OUT_PARENT.rmdir()
    print("self-test %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def _break_witness(out):
    """Swap the second witness vertex for a neighbour of the first."""
    _, records = checks.read_records(out)
    rec = records[0]
    _, edges = checks.read_edge_log(out / "edges" / (rec["run_id"] + ".edges"))
    adj = checks.adjacency(rec["n"], edges)
    w0 = rec["alpha_witness"][0]
    nb = int(np.nonzero(adj[w0])[0][0])

    def edit(r):
        r["alpha_witness"][1] = nb
    return _edit_records(out, edit)


if __name__ == "__main__":
    sys.exit(main())
