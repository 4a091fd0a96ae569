import itertools
import math

import numpy as np
import pytest

from hfree.process import ProcessState
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


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
