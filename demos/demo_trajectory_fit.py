"""Compare a live run against the closed-form trajectory.

Tracks Q and the witness-pair X/Y counts of the triangle-free process at a
grid of scaled times and prints the relative deviation from q(t) n^2,
x(t) n and y(t) sqrt(n).  The fit tightens as n grows.
"""

import argparse

import numpy as np

from hfree import EDGE, K3, ProcessState, sampled_counts
from hfree.trajectory import k3_centers, time_scale


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("-n", type=int, default=1200)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--t-max", type=float, default=0.5)
    ap.add_argument("--witnesses", type=int, default=300)
    args = ap.parse_args()

    n = args.n
    rng = np.random.default_rng(args.seed)
    st = ProcessState(n, rule=K3)
    # witness pairs u < v as codes u*n+v
    upper = np.flatnonzero(np.triu(np.ones((n, n), dtype=bool), 1))
    codes = rng.choice(upper, size=args.witnesses, replace=False)

    print("%8s %10s %9s %9s %9s" % ("t", "Q", "dQ%", "dX%", "dY%"))
    for goal in np.arange(0.05, args.t_max + 1e-9, 0.05):
        st.advance(rng, round(goal * time_scale(K3, n)) - st.steps)
        if not st.open_count:
            break
        t, (q, x, y, _), _ = k3_centers(n, st.steps)
        xs, ys, _ = sampled_counts(st, codes[st.status_matrix().ravel()[codes] != EDGE])
        print("%8.3f %10d %8.2f%% %8.2f%% %8.2f%%"
              % (t, st.open_count, 100 * (st.open_count / q - 1),
                 100 * (xs.mean() / x - 1), 100 * (ys.mean() / y - 1)))


if __name__ == "__main__":
    main()
