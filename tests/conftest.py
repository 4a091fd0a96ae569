import itertools
import math

import numpy as np
import pytest

from hfree.analysis import AlphaResult
from hfree.process import CLOSED, EDGE, K3, NO_PAIR, OPEN, ProcessState, pair_codes
from hfree.trajectory import (Violation, k3_envelope, k3_eval, k4_centers,
                              k4_envelope)


def build_graph(n, rule, edges):
    """ProcessState holding exactly the given edges (added in order)."""
    state = ProcessState(n, rule)
    for u, v in edges:
        state.add_edge(u, v)
    return state


def is_closed_probe(state, u, v):
    """Would adding the non-edge {u,v} to state complete its forbidden
    clique?  A pure function of the adjacency: the oracle for the stored
    status."""
    S = state.status_matrix()
    if S[u, v] == EDGE:
        raise ValueError("pair {%d,%d} is an edge" % (u, v))
    common = np.flatnonzero((S[u] == EDGE) & (S[v] == EDGE))
    if state.rule == K3:
        return len(common) > 0
    # K4: need two adjacent common neighbours
    return bool((S[np.ix_(common, common)] == EDGE).any())


def k4_statuses_from_edges(n, edges):
    """The n x n K4 pair statuses of the graph with the given (m, 2) edges,
    from the edges alone: a non-edge is CLOSED iff its ends lie in
    N(c) ∩ N(d) for some edge {c, d}, read from one float32 product of the
    m x n common-neighbour indicator (exact, as its entries count edges)."""
    edges = np.asarray(edges).reshape(-1, 2)
    adj = np.zeros((n, n), dtype=bool)
    adj[edges[:, 0], edges[:, 1]] = adj[edges[:, 1], edges[:, 0]] = True
    common = (adj[edges[:, 0]] & adj[edges[:, 1]]).astype(np.float32)
    closed = common.T @ common > 0
    out = np.where(adj, EDGE, np.where(closed, CLOSED, OPEN)).astype(np.uint8)
    np.fill_diagonal(out, NO_PAIR)
    return out


def adjacency_sets(S):
    """Neighbour sets of the graph whose status matrix is S."""
    return [set(np.flatnonzero(row == EDGE).tolist()) for row in S]


def upper_codes(n):
    """Codes u*n+v of the pairs u < v, in row-major order: the open list
    before its first compaction."""
    return np.flatnonzero(np.triu(np.ones((n, n), dtype=bool), 1))


def drawn_codes(state, ids):
    """The codes that the open-list indices ids pick for state: from its
    list once built, else from every pair in row-major order."""
    if state._open is None:
        return pair_codes(state.n, ids)
    return state._open[ids]


def open_pairs(state):
    """The open pairs (u, v), u < v, as rows of an array, in row-major order."""
    return np.argwhere(np.triu(state.status_matrix() == OPEN, 1))


def has_clique(adj, verts, order):
    for sub in itertools.combinations(verts, order):
        if all(b in adj[a] for a, b in itertools.combinations(sub, 2)):
            return True
    return False


def k3_bad_event_scalar(n, i, q_count, pair_counts=()):
    """Reference for trajectory.k3_bad_event: one Python test per count."""
    t = i / n ** 1.5
    q, x, y = k3_eval(t)
    g_q, g_x, g_y = k3_envelope(t, n)
    found = []
    if abs(q_count - q * n * n) >= g_q * n * n:
        found.append(Violation("Q", q_count, q * n * n, g_q * n * n))
    sq = math.sqrt(n)
    zcap = math.log(n) ** 2
    for label, xc, yc, zc in pair_counts:
        if abs(xc - x * n) >= g_x * n:
            found.append(Violation("X %s" % (label,), xc, x * n, g_x * n))
        if abs(yc - y * sq) >= g_y * sq:
            found.append(Violation("Y %s" % (label,), yc, y * sq, g_y * sq))
        if zc >= zcap:
            found.append(Violation("Z %s" % (label,), zc, 0.0, zcap))
    return found


def k4_bad_event_scalar(n, i, q_count, pair_counts=(), triple_counts=()):
    """Reference for trajectory.k4_bad_event: one Python test per count.
    pair_counts yields (label, [5 counts]), triple_counts (label, [4 counts])."""
    t, q_center, x_centers, y_centers = k4_centers(n, i)
    band_q, bands_x, bands_y = k4_envelope(t, n)
    found = []
    if abs(q_count - q_center) >= band_q:
        found.append(Violation("Q", q_count, q_center, band_q))
    for label, counts in pair_counts:
        for f in range(5):
            if abs(counts[f] - x_centers[f]) >= bands_x[f]:
                found.append(
                    Violation("X%d %s" % (f, label), counts[f], x_centers[f], bands_x[f]))
    for label, counts in triple_counts:
        for f in range(3):
            if counts[f] > y_centers[f] + bands_y[f]:
                found.append(
                    Violation("Y%d %s" % (f, label), counts[f], y_centers[f], bands_y[f]))
        if counts[3] > 15:
            found.append(Violation("Y3 %s" % (label,), counts[3], 0.0, 15.0))
    return found


def alpha_reference(adj):
    """Reference for analysis.independence_exact: a plain bitmask branch and
    bound with no seed and only the popcount bound, branching on a
    max-degree vertex of avail (take it, then drop it)."""
    n = len(adj)
    masks = [sum(1 << w for w in np.flatnonzero(row).tolist()) for row in adj]
    best = 0

    def expand(avail, size):
        nonlocal best
        if size + avail.bit_count() <= best:
            return
        deg = {v: (masks[v] & avail).bit_count() for v in range(n) if avail >> v & 1}
        v = max(deg, key=deg.get, default=None)
        if v is None or deg[v] == 0:  # no edge left: take all of avail
            best = size + len(deg)
            return
        bit = 1 << v
        expand(avail & ~(masks[v] | bit), size + 1)
        expand(avail & ~bit, size)

    expand((1 << n) - 1, 0)
    return best


def independence_greedy_sets(n, adj, rng, repeats=32):
    """Reference for analysis.independence_greedy over adjacency sets: the
    min-degree candidates come from iterating a set of ints below n, which
    yields them in ascending order."""
    best = []
    for _ in range(repeats):
        alive = set(range(n))
        deg = {v: len(adj[v] & alive) for v in alive}
        chosen = []
        while alive:
            dmin = min(deg[v] for v in alive)
            cands = [v for v in alive if deg[v] == dmin]
            v = cands[int(rng.integers(len(cands)))]
            chosen.append(v)
            drop = (adj[v] & alive) | {v}
            alive -= drop
            for u in drop:
                del deg[u]
            for u in drop:
                for w in adj[u] & alive:
                    deg[w] -= 1
        if len(chosen) > len(best):
            best = chosen
    return AlphaResult(len(best), False, sorted(best))


def sampled_counts_loop(state, codes):
    """Reference for ledger.sampled_counts: one pair code u*n+v at a time."""
    s = state.status_matrix()
    k = len(codes)
    x = np.zeros(k, dtype=np.int32)
    y = np.zeros(k, dtype=np.int32)
    z = np.zeros(k, dtype=np.int32)
    for i, code in enumerate(np.asarray(codes).tolist()):
        u, v = divmod(code, state.n)
        uo, ue = s[u] == OPEN, s[u] == EDGE
        vo, ve = s[v] == OPEN, s[v] == EDGE
        x[i] = np.count_nonzero(uo & vo)
        y[i] = np.count_nonzero((uo & ve) | (ue & vo))
        z[i] = np.count_nonzero(ue & ve)
    return x, y, z


def k4_witness_counts_pair(S, A):
    """Reference for k4stats.k4_witness_counts: x of one open pair A from
    one n x n pass over S."""
    a, b = A
    assert S[a, b] == OPEN
    e = (S == EDGE).view(np.int8)
    # edges from each candidate vertex into A, plus the candidates' own pair
    into_a = e[a] + e[b]
    f_mat = into_a[:, None] + into_a[None, :] + e
    # candidate ends: no closed pair into A (the NO_PAIR diagonal drops a, b);
    # B itself must be a real non-closed pair, counted once per orientation
    ok_vert = (S[a] < CLOSED) & (S[b] < CLOSED)
    sel = ok_vert[:, None] & ok_vert[None, :] & (S < CLOSED)
    return np.bincount(f_mat[sel], minlength=5)[:5].astype(np.int64) // 2


def k4_triple_counts_one(S, A):
    """Reference for k4stats.k4_triple_counts: y of one triple A that spans
    no triangle."""
    a, b, c = A
    e = S == EDGE
    assert not (e[a, b] and e[a, c] and e[b, c])
    f_vec = e[a].astype(np.int8) + e[b].astype(np.int8) + e[c].astype(np.int8)
    ok = ~((S[a] == CLOSED) | (S[b] == CLOSED) | (S[c] == CLOSED))
    ok[[a, b, c]] = False
    return np.bincount(f_vec[ok], minlength=4)[:4].astype(np.int64)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
