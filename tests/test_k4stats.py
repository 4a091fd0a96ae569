import itertools

import numpy as np
import pytest

from hfree.k4stats import k4_triple_counts, k4_witness_counts
from hfree.process import CLOSED, EDGE, OPEN, ProcessState
from conftest import build_graph, k4_triple_counts_one, k4_witness_counts_pair


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
    x, frozen = k4_witness_counts(st.status_matrix(), [(0, 1)])
    assert x.tolist() == [[8 * 7 // 2, 0, 0, 0, 0]]
    assert frozen.tolist() == [False]
    y, frozen = k4_triple_counts(st.status_matrix(), [(0, 1, 2)])
    assert y.tolist() == [[7, 0, 0, 0]]
    assert frozen.tolist() == [False]


def test_single_edge_classification():
    st = build_graph(8, 4, [(2, 3)])
    x, _ = k4_witness_counts(st.status_matrix(), [(0, 1)])
    # B = {2,3} contributes f=1; every other disjoint B is f=0
    assert x.tolist() == [[6 * 5 // 2 - 1, 1, 0, 0, 0]]
    y, _ = k4_triple_counts(st.status_matrix(), [(0, 1, 2)])
    # vertex 3 has one edge into the triple
    assert y.tolist() == [[4, 1, 0, 0]]


def test_frozen_flags():
    st = build_graph(8, 4, [(0, 1), (0, 2), (1, 2)])
    S = st.status_matrix()
    assert k4_witness_counts(S, [(0, 1), (0, 3)])[1].tolist() == [True, False]
    assert k4_triple_counts(S, [(0, 1, 2), (0, 1, 3)])[1].tolist() == [True, False]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_counts_match_brute_force(seed):
    rng = np.random.default_rng(seed)
    st = ProcessState(16, 4)
    checkpoints = {0, 10, 25, 45, 70}
    pairs = [(0, 1), (3, 9), (14, 15)]
    triples = [(0, 1, 2), (4, 8, 12)]
    while st.open_count:
        if st.steps in checkpoints:
            x, _ = k4_witness_counts(st.status_matrix(), pairs)
            assert x.tolist() == [_brute_witness(st, A) for A in pairs]
            y, _ = k4_triple_counts(st.status_matrix(), triples)
            assert y.tolist() == [_brute_triple(st, A) for A in triples]
        st.step(rng)


def test_small_n_rejected():
    st = ProcessState(3, 3)
    with pytest.raises(ValueError):
        k4_witness_counts(st.status_matrix(), [(0, 1)])


def test_total_count_conservation(rng):
    # for open A every disjoint B lands in exactly one bucket or is excluded
    # as closed; A's counts are frozen iff A is no longer open
    st = ProcessState(12, 4)
    st.advance(rng, 30)
    pairs = list(itertools.combinations(range(12), 2))
    xs, frozen = k4_witness_counts(st.status_matrix(), pairs)
    statuses = set()
    for A, x, fr in zip(pairs, xs, frozen):
        status = st.status_of(*A)
        statuses.add(status)
        assert fr == (status != OPEN)
        if fr:
            continue
        rest = [w for w in range(12) if w not in A]
        excluded = 0
        for c, d in itertools.combinations(rest, 2):
            quad = list(A) + [c, d]
            if any(st.status_of(u, v) == CLOSED
                   for u, v in itertools.combinations(quad, 2)):
                excluded += 1
        assert int(x.sum()) + excluded == 10 * 9 // 2
    assert CLOSED in statuses and OPEN in statuses


def test_family_equals_one_row_calls():
    # a family call gives each row what a call with that row alone gives:
    # repeated members, a pair that is an edge (its counts shift by one f),
    # a closed pair, and the empty family
    st = build_graph(12, 4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (4, 5), (6, 7)])
    S = st.status_matrix()
    assert S[2, 3] == CLOSED and S[0, 1] == EDGE
    pairs = [(0, 1), (2, 3), (4, 6), (4, 6), (8, 9), (0, 1), (5, 7)]
    triples = [(0, 1, 2), (0, 1, 4), (0, 1, 4), (2, 3, 5), (8, 9, 10)]
    x, frozen = k4_witness_counts(S, pairs)
    assert x.shape == (7, 5) and x.dtype == np.int64
    for j, A in enumerate(pairs):
        xj, fj = k4_witness_counts(S, [A])
        assert x[j].tolist() == xj[0].tolist() and frozen[j] == fj[0]
    assert frozen.tolist() == [True, True, False, False, False, True, False]
    assert x[0].tolist() == _brute_witness(st, (0, 1))
    assert x[0, 0] == 0 and x[0, 1] > 0  # A is an edge: no B has f = 0
    y, frozen = k4_triple_counts(S, triples)
    assert y.shape == (5, 4) and y.dtype == np.int64
    for j, A in enumerate(triples):
        yj, fj = k4_triple_counts(S, [A])
        assert y[j].tolist() == yj[0].tolist() and frozen[j] == fj[0]
    assert frozen.tolist() == [True, False, False, False, False]
    x, frozen = k4_witness_counts(S, np.zeros((0, 2), dtype=int))
    assert x.shape == (0, 5) and frozen.shape == (0,)
    y, frozen = k4_triple_counts(S, [])
    assert y.shape == (0, 4) and frozen.shape == (0,)


@pytest.mark.parametrize("n", [60, 200])
def test_counts_match_per_pair_oracle(n):
    # at every snapshot of a K4 run, with the harness's stride, family sizes
    # and draws, the family calls equal one reference pass per member
    rng = np.random.default_rng(n)
    stride = max(1, round(n ** 1.6 / 100))
    pairs = np.sort([rng.choice(n, size=2, replace=False) for _ in range(50)], axis=1)
    triples = np.sort([rng.choice(n, size=3, replace=False) for _ in range(50)], axis=1)
    st = ProcessState(n, 4)
    snapshots = 0
    seen_frozen = False
    while True:
        S = st.status_matrix()
        x, x_frozen = k4_witness_counts(S, pairs)
        y, y_frozen = k4_triple_counts(S, triples)
        for j, A in enumerate(pairs):
            ref, fr = k4_witness_counts_pair(S, A)
            assert x[j].tolist() == ref.tolist() and x_frozen[j] == fr
        for j, A in enumerate(triples):
            ref, fr = k4_triple_counts_one(S, A)
            assert y[j].tolist() == ref.tolist() and y_frozen[j] == fr
        seen_frozen |= bool(x_frozen.any())
        snapshots += 1
        if not st.open_count:
            break
        st.advance(rng, stride)
    assert snapshots > 50 and seen_frozen
