"""A/B process CPU time of one layer of two hfree source trees.

    python3 tools/layer_ab.py --src A --src B [--runs R] [--n N] <layer>

Each run starts one fresh interpreter per side, alternating which side goes
first, that imports hfree from that side's DIR (a checkout's `src`), builds
the layer's seeded states untimed, and times the layer on each of them by
process CPU time, after one untimed throwaway case (the first case at
n <= 400).  The interpreters run with one OpenBLAS thread, so that
CPU time counts the layer's work and not the spin of idle BLAS threads.
Prints one JSON line to stdout: the layer, its unit, the runs, and per case
(n and t) each side's median, quartiles and range over the runs, and the
ratio of B's median to A's.  Layers:

    k3-snapshot  ledger.sampled_counts, 200 witness pairs at n = 2000,
                 t = 0.1, 0.5 and 1.0 (ms per call, median of 5 calls)
    k4-snapshot  k4_witness_counts plus k4_triple_counts, 50 pairs and 50
                 triples, at n = 400, t = 0.25 and n = 3200, t = 0.25 and
                 1.0 (ms per call, median of 5 calls)
    k3-advance   ProcessState.advance to the end at n = 2000 (us per step)
    k4-advance   ProcessState.advance to the end at n = 800 (us per step)
    greedy-alpha analysis.independence_greedy, 32 repeats, on the final K3
                 graph at n = 2000 (ms per call, median of 5 calls)
    exact-alpha  analysis.independence_exact on the final K3 graph at n = 60
                 (ms per call, median of 5 calls)

t is steps over `trajectory.time_scale` (n^{3/2} for K3, n^{8/5} for K4);
a run that ends earlier is measured at its end.  The families are drawn by
the harness's own `_draw_pair_codes` and `_draw_vertex_sets`, which each
side must have.  --n replaces every case's n (a smoke test at tiny n).
Standard library only; the interpreters import numpy.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

CASES = {
    "k3-snapshot": [(2000, 0.1), (2000, 0.5), (2000, 1.0)],
    "k4-snapshot": [(400, 0.25), (3200, 0.25), (3200, 1.0)],
    "k3-advance": [(2000, None)],
    "k4-advance": [(800, None)],
    "greedy-alpha": [(2000, None)],
    "exact-alpha": [(60, None)],
}
CALLS = 5  # snapshot calls per case and run; their median is the run's value
WARM_N = 400  # largest n of the untimed throwaway case run first


def measure(layer, n_override):
    """{case: value} for one side, in this interpreter (its hfree on sys.path)."""
    import numpy as np
    from hfree import analysis, harness, k4stats, ledger, trajectory
    from hfree.process import EDGE, K3, K4, ProcessState

    rule = K4 if layer.startswith("k4") else K3

    def value(n, t):
        state = ProcessState(n, rule)
        rng = np.random.default_rng(1)
        if layer.endswith("advance"):
            c0 = time.process_time()
            steps = state.advance(rng)
            return (time.process_time() - c0) / steps * 1e6
        state.advance(rng, None if t is None else round(t * trajectory.time_scale(rule, n)))
        family_rng = np.random.default_rng(2)
        S = state.status_matrix()
        if layer == "greedy-alpha":
            adj = S == EDGE

            def call():
                analysis.independence_greedy(adj, np.random.default_rng(2), 32)
        elif layer == "exact-alpha":
            adj = S == EDGE

            def call():
                analysis.independence_exact(adj)
        elif rule == K3:
            codes = harness._draw_pair_codes(family_rng, n, 200)
            codes = codes[S.ravel()[codes] != EDGE]

            def call():
                ledger.sampled_counts(state, codes)
        else:
            pairs = harness._draw_vertex_sets(family_rng, n, 2, 50)
            triples = harness._draw_vertex_sets(family_rng, n, 3, 50)

            def call():
                k4stats.k4_witness_counts(S, pairs)
                k4stats.k4_triple_counts(S, triples)
        call()  # first call untimed: the case's own set-up
        times = []
        for _ in range(CALLS):
            c0 = time.process_time()
            call()
            times.append(time.process_time() - c0)
        return statistics.median(times) * 1e3

    cases = list(dict.fromkeys((n_override or n, t) for n, t in CASES[layer]))
    # a throwaway first case: the first case of a fresh interpreter carries
    # warm-up costs (lazy set-up of numpy and BLAS, the heap's first growth)
    # that the later ones do not
    value(min(cases[0][0], WARM_N), cases[0][1])
    return {"n%d-end" % n if t is None else "n%d-t%g" % (n, t): value(n, t) for n, t in cases}


def _spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 \
        else (values[0],) * 3
    return {"median": round(statistics.median(values), 4), "q1": round(q1, 4),
            "q3": round(q3, 4), "min": round(min(values), 4), "max": round(max(values), 4)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", action="append", required=True,
                    help="directory holding an hfree package; give it twice, A then B")
    ap.add_argument("--runs", type=int, default=5, help="fresh interpreters per side")
    ap.add_argument("--n", type=int, default=0, help="replace the n of every case")
    ap.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("layer", choices=sorted(CASES))
    args = ap.parse_args(argv)
    if args.measure:  # one side, in this interpreter
        sys.path.insert(0, os.path.abspath(args.src[0]))
        print(json.dumps(measure(args.layer, args.n)))
        return 0
    if len(args.src) != 2 or args.runs < 1:
        ap.error("need --src twice and --runs >= 1")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    values = [{}, {}]  # side -> case -> values over the runs
    for run in range(args.runs):
        for side in (0, 1) if run % 2 == 0 else (1, 0):
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--measure", "--src",
                 args.src[side], "--n", str(args.n), args.layer],
                capture_output=True, text=True, env=env, check=True)
            for case, value in json.loads(done.stdout).items():
                values[side].setdefault(case, []).append(value)
    cases = {}
    for case in values[0]:
        a, b = _spread(values[0][case]), _spread(values[1][case])
        ratio = round(b["median"] / a["median"], 3) if a["median"] else None
        cases[case] = {"A": a, "B": b, "B_over_A": ratio}
    unit = "us/step" if args.layer.endswith("advance") else "ms/call"
    print(json.dumps({"layer": args.layer, "unit": unit, "runs": args.runs,
                      "A": args.src[0], "B": args.src[1], "cases": cases}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
