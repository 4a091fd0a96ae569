"""Witness statistics for the K4-free process.

For a pair A the counts x_f tally the pairs B disjoint from A with exactly f
edges inside A ∪ B and no closed pair inside A ∪ B; for a triple A the
counts y_f tally vertices v with exactly f edges into A and no closed pair
between v and A.  Each function counts a whole witness family from the
status matrix S in one pass, at snapshot steps only; incremental
maintenance of all of them would be O(n^4) state.

Only live members are counted, as the paper tracks X_{A,f} for open A only:
the pairs still open and the triples that span no triangle.  Each function
returns those members, in their given order, with their counts.
"""

from __future__ import annotations

import numpy as np

from .process import CLOSED, EDGE, OPEN

# _FOLD[(i, j), f] = [i + j == f] for the 3 x 3 blocks of group pairs (i, j),
# flattened
_FOLD = (np.add.outer(np.arange(3), np.arange(3)).reshape(9, 1)
         == np.arange(5)).astype(np.int64)


def k4_witness_counts(S: np.ndarray, pairs):
    """(live, x) for the pairs A = (a, b) in the rows of `pairs` (k x 2):
    live holds the rows that are open, x[j, f] counts the pairs B for live[j]
    by f.

    A vertex with no closed pair into A is in group g, its number of edges
    into A (the NO_PAIR diagonal drops a and b).  With G the n x 3k group
    indicator, block j of G^T (S == OPEN) G counts the ordered open pairs
    (c, d) between groups i and j, which land at f = i + j; block j of
    G^T (S == EDGE) G counts the edges, one f higher."""
    n = len(S)
    if n < 4:
        raise ValueError("need n >= 4")
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    pairs = pairs[S[pairs[:, 0], pairs[:, 1]] == OPEN]
    k = len(pairs)
    rows = S[pairs]  # k x 2 x n
    ok = (rows < CLOSED).all(axis=1)
    g = (rows == EDGE).sum(axis=1)
    groups = (g[:, :, None] == np.arange(3)) & ok[:, :, None]  # k x n x 3
    G = groups.transpose(1, 0, 2).reshape(n, 3 * k).astype(np.float32)
    # float32 products are exact: every entry is an integer of at most n
    blocks = []
    for m in (S == OPEN, S == EDGE):
        mg = (m.astype(np.float32) @ G).reshape(n, k, 3).astype(np.int64)
        # block entries reach n^2, past float32's exact integers for n > 4096
        block = np.einsum("jvi,vjl->jil", groups, mg, optimize=True)
        blocks.append(block.reshape(k, 9) @ _FOLD)
    x, edges = blocks
    # an edge B lands one f higher; at i = j = 2 it would close A, so the
    # f = 5 it drops is zero
    x[:, 1:] += edges[:, :4]
    # every unordered B was counted as (c, d) and as (d, c)
    return pairs, x // 2


def k4_triple_counts(S: np.ndarray, triples):
    """(live, y) for the triples A in the rows of `triples` (k x 3): live
    holds the rows that span no triangle, y[j, f] counts the vertices v with
    f edges in live[j] x {v} and no closed pair into it."""
    triples = np.asarray(triples, dtype=np.intp).reshape(-1, 3)
    a, b, c = triples.T
    triples = triples[(S[a, b] != EDGE) | (S[a, c] != EDGE) | (S[b, c] != EDGE)]
    rows = S[triples]  # k x 3 x n
    # the NO_PAIR diagonal drops the vertices of A itself
    ok = (rows < CLOSED).all(axis=1)
    f = (rows == EDGE).sum(axis=1)
    y = ((f[:, :, None] == np.arange(4)) & ok[:, :, None]).sum(axis=1, dtype=np.int64)
    return triples, y
