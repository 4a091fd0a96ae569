import itertools

import numpy as np
import pytest

from hfree.k4stats import k4_triple_counts, k4_witness_counts
from hfree.process import CLOSED, EDGE, OPEN, ProcessState
from conftest import build_graph


def _brute_witness(state, A):
    """Direct enumeration of the pair-witness definition."""
    a, b = A
    n = state.n
    counts = [0] * 5
    for c, d in itertools.combinations(range(n), 2):
        if len({a, b, c, d}) != 4:
            continue
        quad = [a, b, c, d]
        f = 0
        ok = True
        for u, v in itertools.combinations(quad, 2):
            s = state.status_of(u, v)
            if s == EDGE:
                f += 1
            elif s == CLOSED and {u, v} != {a, b}:
                ok = False
                break
        if ok and f <= 4:
            counts[f] += 1
    return counts


def _brute_triple(state, A):
    a, b, c = A
    counts = [0] * 4
    for v in range(state.n):
        if v in A:
            continue
        statuses = [state.status_of(u, v) for u in A]
        if any(s == CLOSED for s in statuses):
            continue
        counts[sum(1 for s in statuses if s == EDGE)] += 1
    return counts


def test_empty_graph_counts():
    st = ProcessState(10, 4)
    wc = k4_witness_counts(st, (0, 1))
    assert wc.x.tolist() == [8 * 7 // 2, 0, 0, 0, 0]
    assert not wc.frozen
    tc = k4_triple_counts(st, (0, 1, 2))
    assert tc.y.tolist() == [7, 0, 0, 0]
    assert not tc.frozen


def test_single_edge_classification():
    st = build_graph(8, 4, [(2, 3)])
    wc = k4_witness_counts(st, (0, 1))
    # B = {2,3} contributes f=1; every other disjoint B is f=0
    assert wc.x.tolist() == [6 * 5 // 2 - 1, 1, 0, 0, 0]
    tc = k4_triple_counts(st, (0, 1, 2))
    # vertex 3 has one edge into the triple
    assert tc.y.tolist() == [4, 1, 0, 0]


def test_frozen_flags():
    st = build_graph(8, 4, [(0, 1), (0, 2), (1, 2)])
    assert k4_witness_counts(st, (0, 1)).frozen
    assert not k4_witness_counts(st, (0, 3)).frozen
    assert k4_triple_counts(st, (0, 1, 2)).frozen
    assert not k4_triple_counts(st, (0, 1, 3)).frozen


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_counts_match_brute_force(seed):
    rng = np.random.default_rng(seed)
    st = ProcessState(16, 4)
    checkpoints = {0, 10, 25, 45, 70}
    while st.open_count:
        if st.steps in checkpoints:
            sm = st.status_matrix()
            for A in [(0, 1), (3, 9), (14, 15)]:
                wc = k4_witness_counts(st, A, status_matrix=sm)
                assert wc.x.tolist() == _brute_witness(st, A)
            for A in [(0, 1, 2), (4, 8, 12)]:
                tc = k4_triple_counts(st, A, status_matrix=sm)
                assert tc.y.tolist() == _brute_triple(st, A)
        st.step(rng)


def test_small_n_rejected():
    st = ProcessState(3, 3)
    with pytest.raises(ValueError):
        k4_witness_counts(st, (0, 1))


def test_total_count_conservation(rng):
    # for open A every disjoint B lands in exactly one bucket or is excluded
    # as closed; A's counts are frozen iff A is no longer open
    st = ProcessState(12, 4)
    st.run(rng, stop=30)
    statuses = set()
    for A in itertools.combinations(range(12), 2):
        wc = k4_witness_counts(st, A)
        status = st.status_of(*A)
        statuses.add(status)
        assert wc.frozen == (status != OPEN)
        if wc.frozen:
            continue
        rest = [w for w in range(12) if w not in A]
        excluded = 0
        for c, d in itertools.combinations(rest, 2):
            quad = list(A) + [c, d]
            if any(st.status_of(u, v) == CLOSED
                   for u, v in itertools.combinations(quad, 2)):
                excluded += 1
        assert int(wc.x.sum()) + excluded == 10 * 9 // 2
    assert CLOSED in statuses and OPEN in statuses
