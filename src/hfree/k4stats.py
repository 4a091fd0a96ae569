"""Witness statistics for the K4-free process.

For a pair A the counts x_f tally the pairs B disjoint from A with exactly f
edges inside A ∪ B and no closed pair inside A ∪ B outside A itself; for a
triple A the counts y_f tally vertices v with exactly f edges into A and no
closed pair between v and A.  Both are brute-force enumerations over a
snapshot (vectorized), recomputed for a sampled witness family at snapshot
steps only; incremental maintenance of all of them would be O(n^4) state.

A pair's counts freeze once the pair is no longer open (the paper tracks
X_{A,f} for open A only), a triple's once all pairs inside it are edges;
callers keep the last unfrozen value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .process import CLOSED, EDGE, OPEN, ProcessState


@dataclass
class K4WitnessCounts:
    A: tuple
    x: np.ndarray  # length 5
    frozen: bool


@dataclass
class K4TripleCounts:
    A: tuple
    y: np.ndarray  # length 4
    frozen: bool


def k4_witness_counts(state: ProcessState, A, status_matrix=None) -> K4WitnessCounts:
    """Count pairs B with |A ∪ B| = 4 by the number of edges inside A ∪ B,
    excluding any B that brings a closed pair outside A."""
    a, b = A
    if state.n < 4:
        raise ValueError("need n >= 4")
    frozen = state.status_of(a, b) != OPEN
    s = state.status_matrix() if status_matrix is None else status_matrix
    e = (s == EDGE).view(np.int8)
    # edges from each candidate vertex into A, plus the candidates' own pair
    into_a = e[a] + e[b]
    f_mat = into_a[:, None] + into_a[None, :] + e + e[a, b]
    # candidate ends: no closed pair into A (the NO_PAIR diagonal drops a, b);
    # B itself must be a real non-closed pair, counted once per orientation
    ok_vert = (s[a] < CLOSED) & (s[b] < CLOSED)
    sel = ok_vert[:, None] & ok_vert[None, :] & (s < CLOSED)
    counts = np.bincount(f_mat[sel], minlength=7)[:5].astype(np.int64) // 2
    return K4WitnessCounts((a, b), counts, frozen)


def k4_triple_counts(state: ProcessState, A, status_matrix=None) -> K4TripleCounts:
    """Count vertices v by the number of edges in A x {v}, excluding any v
    with a closed pair into A."""
    a, b, c3 = A
    frozen = (state.has_edge(a, b) and state.has_edge(a, c3)
              and state.has_edge(b, c3))
    s = state.status_matrix() if status_matrix is None else status_matrix
    e = (s == EDGE)
    cl = (s == CLOSED)
    f_vec = e[a].astype(np.int8) + e[b].astype(np.int8) + e[c3].astype(np.int8)
    ok = ~(cl[a] | cl[b] | cl[c3])
    ok[[a, b, c3]] = False
    counts = np.bincount(f_vec[ok], minlength=4)[:4].astype(np.int64)
    return K4TripleCounts((a, b, c3), counts, frozen)
