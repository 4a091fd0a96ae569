import itertools
import math

import numpy as np
import pytest

from hfree.analysis import AlphaResult
from hfree.process import CLOSED, EDGE, OPEN, ProcessState
from hfree.trajectory import BadEventReport, Violation, k3_envelope, k3_eval


def force_edge(state: ProcessState, u: int, v: int):
    """Add the pair {u,v} (must be open) as the next step of state."""
    return state.add_edge(u, v)


def build_graph(n, rule, edges):
    """ProcessState holding exactly the given edges (added in order)."""
    state = ProcessState(n, rule)
    for u, v in edges:
        force_edge(state, u, v)
    return state


def adjacency_sets(S):
    """Neighbour sets of the graph whose status matrix is S."""
    return [set(np.flatnonzero(row == EDGE).tolist()) for row in S]


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
    rep = BadEventReport(step=i)
    if abs(q_count - q * n * n) >= g_q * n * n:
        rep.violations.append(Violation("Q", q_count, q * n * n, g_q * n * n))
    sq = math.sqrt(n)
    zcap = math.log(n) ** 2
    for label, xc, yc, zc in pair_counts:
        if abs(xc - x * n) >= g_x * n:
            rep.violations.append(Violation("X %s" % (label,), xc, x * n, g_x * n))
        if abs(yc - y * sq) >= g_y * sq:
            rep.violations.append(Violation("Y %s" % (label,), yc, y * sq, g_y * sq))
        if zc >= zcap:
            rep.violations.append(Violation("Z %s" % (label,), zc, 0.0, zcap))
    return rep


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
    """Reference for k4stats.k4_witness_counts: (x, frozen) of one pair A
    from one n x n pass over S."""
    a, b = A
    e = (S == EDGE).view(np.int8)
    # edges from each candidate vertex into A, plus the candidates' own pair
    into_a = e[a] + e[b]
    f_mat = into_a[:, None] + into_a[None, :] + e + e[a, b]
    # candidate ends: no closed pair into A (the NO_PAIR diagonal drops a, b);
    # B itself must be a real non-closed pair, counted once per orientation
    ok_vert = (S[a] < CLOSED) & (S[b] < CLOSED)
    sel = ok_vert[:, None] & ok_vert[None, :] & (S < CLOSED)
    counts = np.bincount(f_mat[sel], minlength=7)[:5].astype(np.int64) // 2
    return counts, S[a, b] != OPEN


def k4_triple_counts_one(S, A):
    """Reference for k4stats.k4_triple_counts: (y, frozen) of one triple A."""
    a, b, c = A
    e = S == EDGE
    f_vec = e[a].astype(np.int8) + e[b].astype(np.int8) + e[c].astype(np.int8)
    ok = ~((S[a] == CLOSED) | (S[b] == CLOSED) | (S[c] == CLOSED))
    ok[[a, b, c]] = False
    counts = np.bincount(f_vec[ok], minlength=4)[:4].astype(np.int64)
    return counts, bool(e[a, b] and e[a, c] and e[b, c])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
