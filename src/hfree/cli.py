"""Command line front end.

Subcommands:
  run        execute an experiment from a config file, persist records;
             with --edge-logs also each trial's edge log and graph6 line,
             taken from the trial itself
  plot-data  turn a records file into plot-ready CSVs
  verify     replay a records file and check determinism + invariants
  bounds     print tail bounds for given martingale parameters
"""

from __future__ import annotations

import argparse
import os
import sys

from . import harness
from .concentration import MartingaleSpec, submartingale_tail, supermartingale_tail


def _add_run(sub):
    p = sub.add_parser("run", help="run an experiment from a config file")
    p.add_argument("--config", required=True, help="key=value config file")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override base_seed")
    p.add_argument("--workers", type=int, default=None, help="override workers")
    p.add_argument("--trials", type=int, default=None, help="override trials")
    p.add_argument("--edge-logs", action="store_true",
                   help="also write per-run edge logs and a graph6 file")


def _add_plot_data(sub):
    p = sub.add_parser("plot-data", help="emit plot-ready CSVs from records")
    p.add_argument("--records", required=True,
                   help="records.jsonl file or directory containing one")
    p.add_argument("--out", default="plotdata", help="output directory")


def _at_least_one(text):
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError("need an integer >= 1, got %r" % text)
    return int(text)


def _add_verify(sub):
    p = sub.add_parser("verify", help="re-run records and check reproducibility")
    p.add_argument("--records", required=True)
    p.add_argument("--max-trials", type=_at_least_one, default=None,
                   help="only replay the first k records (k >= 1)")


def _add_bounds(sub):
    p = sub.add_parser("bounds", help="print martingale tail bounds")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--big-n", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--a", type=float, required=True)


def cmd_run(args) -> int:
    overrides = {"base_seed": args.seed, "workers": args.workers,
                 "trials": args.trials}
    try:
        cfg = harness.load_config(args.config, overrides)
    except (OSError, ValueError) as exc:
        print("bad config %s: %s" % (args.config, exc), file=sys.stderr)
        return 1
    records = harness.run_experiment(cfg, args.out, edge_logs=args.edge_logs)
    done = sum(1 for r in records if r["completed"])
    print("wrote %d records to %s (%d ran to completion)"
          % (len(records), os.path.join(args.out, "records.jsonl"), done))
    for rec in records:
        end = rec["snapshots"][-1]
        print("  %s seed=%d steps=%d t=%.4f Q=%d violations=%d"
              % (rec["run_id"], rec["seed"], rec["steps"], end["t"],
                 end["Q"], rec["violations_total"]))
    return 0


def cmd_plot_data(args) -> int:
    try:
        config, records = harness.load_records(args.records)
    except (OSError, ValueError) as exc:
        print("cannot read records %s: %s" % (args.records, exc), file=sys.stderr)
        return 1
    if not records:
        print("no records found", file=sys.stderr)
        return 1
    paths = harness.emit_plotdata(records, args.out, config)
    for p in paths:
        print("wrote %s" % p)
    return 0


def cmd_verify(args) -> int:
    try:
        config, records = harness.load_records(args.records)
    except (OSError, ValueError) as exc:
        print("cannot read records %s: %s" % (args.records, exc), file=sys.stderr)
        return 1
    if config is None:
        print("records file has no config line", file=sys.stderr)
        return 1
    try:  # a key this version lacks is a TypeError naming it
        cfg = harness.ExperimentConfig(**config)
    except (TypeError, ValueError) as exc:
        print("records config does not build: %s" % exc, file=sys.stderr)
        return 1
    if args.max_trials is not None:
        records = records[: args.max_trials]
    rng_name = harness.RNG_NAMES[cfg.process]
    older = sorted({str(rec.get("rng")) for rec in records} - {rng_name})
    if older:
        print("records were drawn with generator %s; this version draws %s with %s "
              "and cannot replay them" % (", ".join(older), cfg.process, rng_name),
              file=sys.stderr)
        return 1
    failures = 0
    for idx, rec in enumerate(records):
        fresh, _ = harness.run_trial(cfg, rec["n"], rec["trial"], _global_index(cfg, rec))
        if fresh == rec:
            print("PASS %s reproduces exactly" % rec["run_id"])
        else:
            failures += 1
            keys = [k for k in rec if fresh.get(k) != rec[k]]
            print("FAIL %s differs in %s" % (rec["run_id"], ", ".join(keys)))
    print("%d/%d records reproduced" % (len(records) - failures, len(records)))
    return 1 if failures else 0


def _global_index(cfg, rec) -> int:
    pos = list(cfg.n_list).index(rec["n"])
    return pos * cfg.trials + rec["trial"]


def cmd_bounds(args) -> int:
    try:
        spec = MartingaleSpec(args.eta, args.big_n, args.m, args.a)
    except ValueError as exc:
        print("bad bounds: %s" % exc, file=sys.stderr)
        return 1
    print("eta=%g N=%g m=%d a=%g" % (spec.eta, spec.big_n, spec.m, spec.a))
    try:
        sub = submartingale_tail(spec)
        print("submartingale  Pr[A_m <= -a]: lemma %.6g  sharp %.6g"
              % (sub.lemma, sub.sharp))
    except ValueError as exc:
        print("submartingale  not applicable: %s" % exc)
    try:
        sup = supermartingale_tail(spec)
        print("supermartingale Pr[A_m >= a]: lemma %.6g  sharp %.6g"
              % (sup.lemma, sup.sharp))
    except ValueError as exc:
        print("supermartingale not applicable: %s" % exc)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="hfree",
                                     description="H-free greedy process lab")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_run(sub)
    _add_plot_data(sub)
    _add_verify(sub)
    _add_bounds(sub)
    args = parser.parse_args(argv)
    handlers = {"run": cmd_run, "plot-data": cmd_plot_data,
                "verify": cmd_verify, "bounds": cmd_bounds}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
