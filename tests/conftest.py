import itertools

import numpy as np
import pytest

from hfree.process import ProcessState


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


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
