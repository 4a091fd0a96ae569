"""Witness statistics for the K4-free process.

For a pair A the counts x_f tally the pairs B disjoint from A with exactly f
edges inside A ∪ B and no closed pair inside A ∪ B; for a triple A the
counts y_f tally vertices v with exactly f edges into A and no closed pair
between v and A.  Each function counts a whole witness family from the
status matrix S in one pass, at snapshot steps only; incremental
maintenance of all of them would be O(n^4) state.  Both sort the vertices
by the class rule that `process.EDGES_INTO` owns: y is `process.edge_counts`
of the triples, and x counts the pairs B between the classes of A.

Only live members are counted, as the paper tracks X_{A,f} for open A only:
the pairs still open and the triples that span no triangle.  Each function
returns those members, in their given order, with their counts.
"""

from __future__ import annotations

import numpy as np

from .process import EDGE, EDGES_INTO, OPEN, edge_counts, status_code

# for the code 4 S[b] + S[a] of a vertex and a pair A = (a, b): its group
# EDGES_INTO[2][code] as a one-hot float32 column, zero at the dropped group 3
_ONE_HOT = (np.arange(3)[:, None] == EDGES_INTO[2]).astype(np.float32)
# _FOLD[(i, j), f] = [i + j == f] for the 3 x 3 blocks of group pairs (i, j),
# flattened
_FOLD = (np.add.outer(np.arange(3), np.arange(3)).reshape(9, 1)
         == np.arange(5)).astype(np.float64)


def k4_witness_counts(S: np.ndarray, pairs):
    """(live, x) for the pairs A = (a, b) in the rows of `pairs` (k x 2):
    live holds the rows that are open, x[j, f] counts the pairs B for live[j]
    by f.

    With G the n x 3k indicator of the groups of every pair (`_ONE_HOT`),
    block j of G^T (S == OPEN) G counts the ordered open pairs (c, d)
    between groups i and l, which land at f = i + l; block j of
    G^T (S == EDGE) G counts the edges, one f higher.  Exact: the float32
    products hold integers of at most n, the float64 block sums at most n^2."""
    n = len(S)
    if n < 4:
        raise ValueError("need n >= 4")
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    pairs = pairs[S[pairs[:, 0], pairs[:, 1]] == OPEN]
    k = len(pairs)
    if not k:
        return pairs, np.zeros((0, 5), np.int64)
    _, code = status_code(S, pairs.T)
    GT = np.take(_ONE_HOT, code, axis=1)  # 3 x k x n
    m = np.empty((n, n), dtype=np.float32)
    mg = np.empty((3 * k, n), dtype=np.float32)
    blocks = []
    for status in (OPEN, EDGE):
        # S is symmetric: row (l, j) of G^T m is column (j, l) of m G
        np.matmul(GT.reshape(3 * k, n), np.equal(S, status, out=m), out=mg)
        block = np.einsum("gjv,ljv->jgl", GT, mg.reshape(3, k, n), dtype=np.float64)
        blocks.append(block.reshape(k, 9) @ _FOLD)
    x, edges = blocks
    # an edge B lands one f higher; at i = l = 2 it would close A, so the
    # f = 5 it drops is zero
    x[:, 1:] += edges[:, :4]
    # every unordered B was counted as (c, d) and as (d, c)
    return pairs, x.astype(np.int64) // 2


def k4_triple_counts(S: np.ndarray, triples):
    """(live, y) for the triples A in the rows of `triples` (k x 3): live
    holds the rows that span no triangle, y[j, f] counts the vertices v with
    f edges in live[j] x {v} and no closed pair into it."""
    triples = np.asarray(triples, dtype=np.intp).reshape(-1, 3)
    a, b, c = triples.T
    triples = triples[(S[a, b] != EDGE) | (S[a, c] != EDGE) | (S[b, c] != EDGE)]
    return triples, edge_counts(S, triples.T).astype(np.int64)
