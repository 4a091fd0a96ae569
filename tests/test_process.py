import itertools

import numpy as np
import pytest

from hfree.process import (
    CLOSED,
    EDGE,
    OPEN,
    ProcessState,
    ProcessTerminated,
    pair_index,
    pair_of,
)
from conftest import build_graph, force_edge, has_clique


def test_pair_index_roundtrip():
    for n in (2, 3, 7, 40, 101):
        seen = set()
        for u, v in itertools.combinations(range(n), 2):
            pid = pair_index(n, u, v)
            assert pair_index(n, v, u) == pid
            assert pair_of(n, pid) == (u, v)
            seen.add(pid)
        assert seen == set(range(n * (n - 1) // 2))


def test_bad_arguments():
    with pytest.raises(ValueError):
        ProcessState(1, 3)
    with pytest.raises(ValueError):
        ProcessState(5, 5)


def test_initial_state():
    st = ProcessState(6, 3)
    assert st.open_count == 15
    assert st.steps == 0
    assert np.all(st.status == OPEN)
    assert st.max_degree() == 0


def _status_oracle(st):
    """Recompute every pair status from the adjacency alone."""
    adj = st.adjacency_sets()
    out = np.empty(st.npairs, dtype=np.uint8)
    for u, v in itertools.combinations(range(st.n), 2):
        pid = pair_index(st.n, u, v)
        if v in adj[u]:
            out[pid] = EDGE
        elif st.is_closed_probe(u, v):
            out[pid] = CLOSED
        else:
            out[pid] = OPEN
    return out


@pytest.mark.parametrize("rule,n", [(3, 18), (3, 30), (4, 14), (4, 24)])
def test_invariants_through_run(rule, n, rng):
    st = ProcessState(n, rule)
    prev = st.status.copy()
    while st.open_count:
        out = st.step(rng)
        # partition
        counts = np.bincount(st.status, minlength=3)
        assert counts.sum() == st.npairs
        assert counts[OPEN] == st.open_count
        # monotonicity: closed never reopens, edges never change
        assert not np.any((prev == CLOSED) & (st.status != CLOSED))
        assert not np.any((prev == EDGE) & (st.status != EDGE))
        # closed pairs this step were open before
        assert np.all(prev[out.closed_ids] == OPEN)
        prev = st.status.copy()
        # full oracle equivalence from adjacency alone
        assert np.array_equal(st.status, _status_oracle(st))
    # termination: every non-edge is closed, graph is maximal clique-free
    assert np.all(st.status != OPEN)
    adj = st.adjacency_sets()
    assert not has_clique(adj, range(n), rule)
    for u, v in itertools.combinations(range(n), 2):
        if v not in adj[u]:
            assert st.is_closed_probe(u, v)


def test_edge_log_matches_steps(rng):
    st = ProcessState(12, 3)
    res = st.run(rng)
    assert res.completed
    assert res.M == st.steps == len(st.edge_log)
    for u, v in st.edge_log:
        assert st.has_edge(u, v)


def test_stop_cap_between_steps(rng):
    st = ProcessState(30, 3)
    res = st.run(rng, stop=5)
    assert st.steps == 5
    assert not res.completed
    # resumes cleanly
    res = st.run(rng)
    assert res.completed


def test_step_after_termination_raises(rng):
    st = ProcessState(4, 3)
    st.run(rng)
    with pytest.raises(ProcessTerminated):
        st.step(rng)


def test_probe_examples():
    # path a-b-c
    st = build_graph(4, 3, [(0, 1), (1, 2)])
    assert st.is_closed_probe(0, 2)
    st4 = build_graph(4, 4, [(0, 1), (1, 2)])
    assert not st4.is_closed_probe(0, 2)
    # K4 minus one edge
    st4 = build_graph(5, 4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert st4.is_closed_probe(2, 3)
    with pytest.raises(ValueError):
        st4.is_closed_probe(0, 1)


def test_k3_closure_is_cherry_completion():
    st = build_graph(5, 3, [(0, 1)])
    out = force_edge(st, 1, 2)
    assert [pair_of(5, int(i)) for i in out.closed_ids] == [(0, 2)]
    assert st.status_of(0, 2) == CLOSED


def test_first_edge_uniform_chi_square():
    # n=3: each of the 3 possible first edges should be equally likely
    rng = np.random.default_rng(2024)
    counts = np.zeros(3)
    trials = 3000
    for _ in range(trials):
        st = ProcessState(3, 3)
        out = st.step(rng)
        counts[pair_index(3, *out.edge)] += 1
    expect = trials / 3.0
    chi2 = float(((counts - expect) ** 2 / expect).sum())
    # chi-square 99% critical value, 2 degrees of freedom
    assert chi2 < 9.21


def _choose_chi2(st, rng, draws):
    """Chi-square statistic of `draws` choose() calls against the uniform
    law on the open pairs, and a 99.9% critical value (Wilson-Hilferty)."""
    ids = st.open_pair_ids().tolist()
    slot = {pid: k for k, pid in enumerate(ids)}
    counts = np.zeros(len(ids))
    for _ in range(draws):
        counts[slot[pair_index(st.n, *st.choose(rng))]] += 1
    expect = draws / len(ids)
    df = len(ids) - 1
    crit = df * (1 - 2 / (9 * df) + 3.09 * (2 / (9 * df)) ** 0.5) ** 3
    return float(((counts - expect) ** 2 / expect).sum()), crit


def test_choose_uniform_over_open_pairs(rng):
    st = ProcessState(20, 3)
    st.run(rng, stop=6)
    # the open list still holds closed and edge entries, not yet compacted
    assert st.open_count < len(st._open) <= 2 * st.open_count
    chi2, crit = _choose_chi2(st, rng, 20_000)
    assert chi2 < crit
    while 2 * st.open_count >= len(st._open):
        st.step(rng)
    st.choose(rng)  # compacts
    assert len(st._open) == st.open_count > 1
    chi2, crit = _choose_chi2(st, rng, 20_000)
    assert chi2 < crit


def test_add_edge_rejects_non_open_pairs():
    st = build_graph(5, 3, [(0, 1), (1, 2)])
    for u, v in [(0, 1), (2, 1), (0, 2), (3, 3), (0, 5), (-1, 4)]:
        with pytest.raises(ValueError):
            st.add_edge(u, v)
    assert st.steps == 2 and st.open_count == 10 - 3
    assert st.add_edge(4, 3).edge == (3, 4)


def test_k4_n4_always_five_edges(rng):
    # maximal K4-free graph on 4 vertices is K4 minus an edge
    for _ in range(20):
        st = ProcessState(4, 4)
        res = st.run(rng)
        assert res.completed and res.M == 5


def test_k3_m_n4_support(rng):
    # maximal triangle-free graphs on 4 vertices have 3 or 4 edges
    seen = set()
    for _ in range(200):
        st = ProcessState(4, 3)
        seen.add(st.run(rng).M)
    assert seen == {3, 4}


def test_status_matrix_symmetry(rng):
    st = ProcessState(10, 3)
    st.run(rng, stop=12)
    m = st.status_matrix()
    assert np.array_equal(m, m.T)
    for u, v in itertools.combinations(range(10), 2):
        assert m[u, v] == st.status_of(u, v)
