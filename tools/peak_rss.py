"""Peak resident memory of one `hfree run --edge-logs`, in a fresh interpreter.

    python3 tools/peak_rss.py [--src DIR] <config>

imports hfree from DIR (default: the `src` of this checkout), runs
`hfree run --config <config> --out <temp dir> --edge-logs` through
`hfree.cli.main` (its output goes to stderr), removes the temp dir and
prints one JSON line to stdout: the config path, its `n_list`,
`peak_rss_mb` (the process's ru_maxrss, imports included) and `wall_s` (the
run alone).  Point --src at another checkout's `src` to measure it the same
way.  Standard library only.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=SRC, help="directory holding the hfree package")
    ap.add_argument("config", help="hfree config file")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from hfree import cli

    out = tempfile.mkdtemp(prefix="peak_rss_")
    try:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sys.stderr):
            code = cli.main(["run", "--config", args.config, "--out", out, "--edge-logs"])
        wall = time.perf_counter() - t0
        if code:
            return code
        with open(os.path.join(out, "records.jsonl"), encoding="utf-8") as fh:
            n_list = json.loads(fh.readline())["config"]["n_list"]
    finally:
        shutil.rmtree(out, ignore_errors=True)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"config": args.config, "n_list": n_list,
                      "peak_rss_mb": round(peak, 1), "wall_s": round(wall, 3)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
