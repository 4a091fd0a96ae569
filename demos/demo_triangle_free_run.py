"""Run the triangle-free process once and poke at the result.

Shows the basic loop: build a ProcessState, step it to completion, then look
at the final maximal triangle-free graph (edge count, degrees, a maximality
spot check) and export it.
"""

import argparse
import math
import tempfile
import os

import numpy as np

from hfree import EDGE, ProcessState, graph6_line, write_edge_log


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("-n", type=int, default=300)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    st = ProcessState(args.n, rule=3)
    M = st.advance(rng)
    n = args.n

    print("n = %d, seed = %d" % (n, args.seed))
    print("terminated after M = %d edges" % M)
    print("M / (n^{3/2} sqrt(ln n)) = %.4f"
          % (M / (n ** 1.5 * math.sqrt(math.log(n)))))
    degs = np.count_nonzero(st.status_matrix() == EDGE, axis=1)
    print("degrees: min %d  mean %.1f  max %d" % (degs.min(), degs.mean(), degs.max()))

    # every non-edge should be closed: adding it would make a triangle
    print("open pairs remaining: %d (maximality)" % st.open_count)

    out = os.path.join(tempfile.gettempdir(), "triangle_free_run.edges")
    write_edge_log(out, n, 3, args.seed, st.edge_log)
    print("edge log written to %s" % out)
    if n <= 62:
        print("graph6:", graph6_line(n, st.edge_log))


if __name__ == "__main__":
    main()
