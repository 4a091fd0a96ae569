"""Benchmark of the hfree simulator through its own entry point.

    python3 hfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Each workload is an `hfree run --edge-logs`
command (plus `hfree verify` on the audit workload), called in-process
through `hfree.cli.main` with `workers = 1`.  The command is repeated in
rounds, each started only if it should end within `--seconds` (at least
one round); every round uses the same config, so the same seed gives the
same inputs.  After the timed rounds, the first
round's output is checked by `checks.py` and every later round must
reproduce it byte for byte.

The last line of stdout is one JSON object: `correct`, `attempted` and
`failed` (counted in trials), and `metrics`.  With `--trace 0` these are the
end-to-end metrics; with `--trace 1` untraced and traced rounds alternate
and the metrics are the per-layer ones from `tracing.py`.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import checks
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_PARENT = ROOT / ".hfbench_out"

# name -> (config keys other than base_seed, whether `hfree verify` follows).
# Every key not set here keeps its ExperimentConfig default: 200 sampled
# witnesses at n > 64, auto snapshot stride, 32 greedy-alpha repeats, exact
# alpha up to n = 60.
WORKLOADS = {
    "k3-full-n2000": ({"process": "K3", "n_list": 2000, "trials": 1, "stop": "full"}, False),
    "k4-t025-n400": ({"process": "K4", "n_list": 400, "trials": 1, "stop": "t:0.25"}, False),
    "k3-audit-n60": ({"process": "K3", "n_list": 60, "trials": 5, "ledger_mode": "full"}, True),
}
# set-ups per run, half before and half after the timed rounds, so that the
# median spans the run rather than one swing of the host's speed
SETUP_PROBES = 10


def write_config(path, config):
    path.write_text("".join("%s = %s\n" % kv for kv in config.items()), encoding="utf-8")
    return path


def setup_seconds(cfg_path):
    """Times of SETUP_PROBES // 2 set-ups, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_PROBES // 2):
        proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), str(SRC),
                               str(cfg_path)], capture_output=True, text=True,
                              check=True, timeout=120)
        times.append(float(proc.stdout))
    return times


def run_round(cli, cfg_path, out, verify, tracer):
    """One timed execution of the workload's command(s): (wall s, verify stdout)."""
    verify_log = io.StringIO()
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["run", "--config", str(cfg_path), "--out", str(out), "--edge-logs"])
        if verify:
            with contextlib.redirect_stdout(verify_log):
                cli.main(["verify", "--records", str(out)])
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wall, verify_log.getvalue() if verify else None


def same_output(a, b):
    edges = sorted(os.listdir(a / "edges"))
    if edges != sorted(os.listdir(b / "edges")):
        return False
    names = ["records.jsonl", "final_graphs.g6"] + ["edges/" + f for f in edges]
    return len(filecmp.cmpfiles(a, b, names, shallow=False)[0]) == len(names)


def bench(args, cli, work):
    config, verify = WORKLOADS[args.workload]
    config = dict(config, base_seed=args.seed)
    cfg_path = write_config(work / "workload.cfg", config)
    trials = config["trials"]

    setup = setup_seconds(cfg_path)
    deadline = time.perf_counter() + args.seconds
    rounds = []  # (out dir, wall, verify stdout, spans or None)
    attempted = failed = 0
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        tracer = tracing.Tracer() if traced else None
        out = work / ("round%d" % len(rounds))
        attempted += trials
        try:
            wall, verify_text = run_round(cli, cfg_path, out, verify, tracer)
        except Exception:
            traceback.print_exc()
            failed += trials
            break
        rounds.append((out, wall, verify_text, tracer.spans if traced else None))
        enough = len(rounds) >= (2 if args.trace else 1)
        # start another round only if it should end before the deadline
        if enough and time.perf_counter() + wall > deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup += setup_seconds(cfg_path)

    # checks run after the timed rounds, so their n x n matrices stay out
    # of peak_rss_mb
    first = rounds[0][0] if rounds else None
    for out, _, verify_text, _ in rounds:
        if out != first and same_output(first, out) and verify_text == rounds[0][2]:
            continue  # a byte-for-byte repeat of the checked first round
        fails = checks.check_output(out, verify_text)
        if out != first:
            for msgs in fails.values():
                msgs.append(("repeat", "differs from the first round of the same config"))
        for rid, msgs in fails.items():
            for check, msg in msgs:
                print("FAIL %s %s %s: %s" % (out.name, rid, check, msg), file=sys.stderr)
        failed += sum(1 for msgs in fails.values() if msgs)

    untraced = [r[1] for r in rounds if r[3] is None]
    if args.trace:
        layer = tracing.layer_metrics([r[3] for r in rounds if r[3] is not None],
                                      [r[1] for r in rounds if r[3] is not None], untraced)
        metrics = {k: {"value": v, "unit": u} for k, (u, v) in layer.items()}
    elif untraced:
        steps = sum(rec["steps"] for rec in checks.read_records(first)[1])
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(untraced), "unit": "s"},
            "steps_per_s": {"value": statistics.median(steps / w for w in untraced),
                            "unit": "steps/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        metrics = {}
    return {"correct": failed == 0 and bool(metrics), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "hfree" / "__init__.py").is_file():
        print("hfbench: no hfree sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from hfree import cli

    OUT_PARENT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_PARENT))
    try:
        result = bench(args, cli, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT_PARENT.rmdir()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
