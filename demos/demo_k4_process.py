"""The K4-free variant: trajectory snapshot plus witness statistics.

Runs the K4-free process to a scaled time, then compares Q and a handful of
witness pair/triple counts against the closed forms q(t), x_f(t), y_f(t).
"""

import argparse

import numpy as np

from hfree import K4, ProcessState, k4_triple_counts, k4_witness_counts
from hfree.trajectory import k4_centers, time_scale


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("-n", type=int, default=250)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--t-stop", type=float, default=0.2)
    args = ap.parse_args()

    n = args.n
    rng = np.random.default_rng(args.seed)
    st = ProcessState(n, rule=K4)
    st.advance(rng, round(args.t_stop * time_scale(K4, n)))
    t, q, xs, ys = k4_centers(n, st.steps)

    print("n = %d, %d steps, t = %.3f" % (n, st.steps, t))
    print("Q = %d   q(t) n^2 = %.0f" % (st.open_count, q))

    pairs = [rng.choice(n, size=2, replace=False) for _ in range(40)]
    triples = [rng.choice(n, size=3, replace=False) for _ in range(40)]
    x_obs = k4_witness_counts(st.status_matrix(), pairs)[0].mean(axis=0)
    y_obs = k4_triple_counts(st.status_matrix(), triples)[0].mean(axis=0)
    print(" f   mean |X_{A,f}|   x_f(t) n^{2-2f/5}")
    for f in range(5):
        print("%2d  %13.1f   %15.1f" % (f, x_obs[f], xs[f]))
    print(" f   mean |Y_{A,f}|   y_f(t) n^{1-2f/5}")
    for f in range(3):
        print("%2d  %13.2f   %15.2f" % (f, y_obs[f], ys[f]))
    print(" 3  %13.2f   (bounded, flagged above 15)" % y_obs[3])


if __name__ == "__main__":
    main()
