import itertools

import numpy as np
import pytest

from hfree.k4stats import k4_triple_counts, k4_witness_counts
from hfree.process import CLOSED, EDGE, NO_PAIR, OPEN, ProcessState
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
    live, x = k4_witness_counts(st.status_matrix(), [(0, 1)])
    assert live.tolist() == [[0, 1]] and x.tolist() == [[8 * 7 // 2, 0, 0, 0, 0]]
    live, y = k4_triple_counts(st.status_matrix(), [(0, 1, 2)])
    assert live.tolist() == [[0, 1, 2]] and y.tolist() == [[7, 0, 0, 0]]


def test_single_edge_classification():
    st = build_graph(8, 4, [(2, 3)])
    _, x = k4_witness_counts(st.status_matrix(), [(0, 1)])
    # B = {2,3} contributes f=1; every other disjoint B is f=0
    assert x.tolist() == [[6 * 5 // 2 - 1, 1, 0, 0, 0]]
    _, y = k4_triple_counts(st.status_matrix(), [(0, 1, 2)])
    # vertex 3 has one edge into the triple
    assert y.tolist() == [[4, 1, 0, 0]]


def test_live_members():
    # edge pairs, closed pairs and triangle triples are dropped; the rest
    # keep their order, repeats included
    st = build_graph(8, 4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    S = st.status_matrix()
    assert S[2, 3] == CLOSED and S[0, 1] == EDGE
    live, x = k4_witness_counts(S, [(4, 5), (0, 1), (0, 4), (2, 3), (6, 7), (0, 4)])
    assert live.tolist() == [[4, 5], [0, 4], [6, 7], [0, 4]] and x.shape == (4, 5)
    live, y = k4_triple_counts(S, [(0, 1, 4), (0, 1, 2), (0, 2, 4), (0, 1, 3), (0, 1, 4)])
    assert live.tolist() == [[0, 1, 4], [0, 2, 4], [0, 1, 4]] and y.shape == (3, 4)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_counts_match_brute_force(seed):
    rng = np.random.default_rng(seed)
    st = ProcessState(16, 4)
    checkpoints = {0, 10, 25, 45, 70}
    pairs = [(0, 1), (3, 9), (14, 15)]
    triples = [(0, 1, 2), (4, 8, 12)]
    while st.open_count:
        if st.steps in checkpoints:
            live, x = k4_witness_counts(st.status_matrix(), pairs)
            assert x.tolist() == [_brute_witness(st, A) for A in live.tolist()]
            live, y = k4_triple_counts(st.status_matrix(), triples)
            assert y.tolist() == [_brute_triple(st, A) for A in live.tolist()]
        st.step(rng)


def test_small_n_rejected():
    st = ProcessState(3, 3)
    with pytest.raises(ValueError):
        k4_witness_counts(st.status_matrix(), [(0, 1)])


def test_total_count_conservation(rng):
    # for open A every disjoint B lands in exactly one bucket or is excluded
    # as closed; exactly the open pairs are counted
    st = ProcessState(12, 4)
    st.advance(rng, 30)
    pairs = list(itertools.combinations(range(12), 2))
    live, xs = k4_witness_counts(st.status_matrix(), pairs)
    statuses = {st.status_of(*A) for A in pairs}
    assert CLOSED in statuses and OPEN in statuses
    assert live.tolist() == [list(A) for A in pairs if st.status_of(*A) == OPEN]
    for A, x in zip(live.tolist(), xs):
        rest = [w for w in range(12) if w not in A]
        excluded = 0
        for c, d in itertools.combinations(rest, 2):
            quad = list(A) + [c, d]
            if any(st.status_of(u, v) == CLOSED
                   for u, v in itertools.combinations(quad, 2)):
                excluded += 1
        assert int(x.sum()) + excluded == 10 * 9 // 2


def test_family_equals_one_row_calls():
    # a family call gives each live row what a call with that row alone
    # gives: repeated members, a pair that is an edge and a closed pair
    # (both dropped), a triangle triple (dropped), and the empty family
    st = build_graph(12, 4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (4, 5), (6, 7)])
    S = st.status_matrix()
    assert S[2, 3] == CLOSED and S[0, 1] == EDGE
    pairs = [(0, 1), (2, 3), (4, 6), (4, 6), (8, 9), (0, 1), (5, 7)]
    triples = [(0, 1, 2), (0, 1, 4), (0, 1, 4), (2, 3, 5), (8, 9, 10)]
    live, x = k4_witness_counts(S, pairs)
    assert live.tolist() == [[4, 6], [4, 6], [8, 9], [5, 7]]
    assert x.shape == (4, 5) and x.dtype == np.int64
    for j, A in enumerate(live.tolist()):
        one, xj = k4_witness_counts(S, [A])
        assert one.tolist() == [A] and x[j].tolist() == xj[0].tolist()
        assert x[j].tolist() == _brute_witness(st, A)
    for A in ((0, 1), (2, 3)):
        one, xj = k4_witness_counts(S, [A])
        assert one.shape == (0, 2) and xj.shape == (0, 5)
    live, y = k4_triple_counts(S, triples)
    assert live.tolist() == [list(A) for A in triples[1:]]
    assert y.shape == (4, 4) and y.dtype == np.int64
    for j, A in enumerate(live.tolist()):
        one, yj = k4_triple_counts(S, [A])
        assert one.tolist() == [A] and y[j].tolist() == yj[0].tolist()
    live, x = k4_witness_counts(S, np.zeros((0, 2), dtype=int))
    assert live.shape == (0, 2) and x.shape == (0, 5)
    live, y = k4_triple_counts(S, [])
    assert live.shape == (0, 3) and y.shape == (0, 4)


def test_no_live_pair():
    # drawn pairs at the end of a K4 run, where no pair is open, and a family
    # made only of edges: both return empty int64 counts
    rng = np.random.default_rng(60)
    st = ProcessState(60, 4)
    st.advance(rng)
    S = st.status_matrix()
    drawn = np.sort([rng.choice(60, size=2, replace=False) for _ in range(50)], axis=1)
    assert not st.open_count and (S[drawn[:, 0], drawn[:, 1]] == CLOSED).any()
    for pairs in (drawn, st.edge_log):
        live, x = k4_witness_counts(S, pairs)
        assert live.shape == (0, 2) and x.shape == (0, 5) and x.dtype == np.int64


@pytest.mark.parametrize("n", [60, 200])
def test_counts_match_per_pair_oracle(n):
    # at every snapshot of a K4 run, with the harness's stride, family sizes
    # and draws, the family calls keep exactly the live members, and their
    # counts equal one reference pass per member
    rng = np.random.default_rng(n)
    stride = max(1, round(n ** 1.6 / 100))
    pairs = np.sort([rng.choice(n, size=2, replace=False) for _ in range(50)], axis=1)
    triples = np.sort([rng.choice(n, size=3, replace=False) for _ in range(50)], axis=1)
    st = ProcessState(n, 4)
    snapshots = 0
    seen_dropped = False
    while True:
        S = st.status_matrix()
        live_pairs, x = k4_witness_counts(S, pairs)
        live_triples, y = k4_triple_counts(S, triples)
        a, b, c = triples.T
        triangle = (S[a, b] == EDGE) & (S[a, c] == EDGE) & (S[b, c] == EDGE)
        assert np.array_equal(live_pairs, pairs[S[pairs[:, 0], pairs[:, 1]] == OPEN])
        assert np.array_equal(live_triples, triples[~triangle])
        for A, xj in zip(live_pairs, x):
            assert xj.tolist() == k4_witness_counts_pair(S, A).tolist()
        for A, yj in zip(live_triples, y):
            assert yj.tolist() == k4_triple_counts_one(S, A).tolist()
        seen_dropped |= len(live_pairs) < len(pairs)
        snapshots += 1
        if not st.open_count:
            break
        st.advance(rng, stride)
    assert snapshots > 50 and seen_dropped


def test_counts_past_a_byte():
    # early in a run at n = 300, x_0 and y_0 pass 255, what a uint8 row sum
    # holds; the counts stay int64 and equal one reference pass per member
    rng = np.random.default_rng(300)
    pairs = np.sort([rng.choice(300, size=2, replace=False) for _ in range(20)], axis=1)
    triples = np.sort([rng.choice(300, size=3, replace=False) for _ in range(20)], axis=1)
    st = ProcessState(300, 4)
    for steps in (200, 1500):
        st.advance(rng, steps - st.steps)
        S = st.status_matrix()
        live_pairs, x = k4_witness_counts(S, pairs)
        live_triples, y = k4_triple_counts(S, triples)
        assert x[:, 0].min() > 255 and y[:, 0].max() > 255 and (y[:, 1] > 0).any()
        assert x.dtype == y.dtype == np.int64
        for A, xj in zip(live_pairs, x):
            assert xj.tolist() == k4_witness_counts_pair(S, A).tolist()
        for A, yj in zip(live_triples, y):
            assert yj.tolist() == k4_triple_counts_one(S, A).tolist()


def test_witness_counts_exact_past_n_4096():
    # at n = 4500 with few edges and closed pairs, the ordered open pairs
    # between two group-0 vertices pass 2^24, float32's last exact integer
    n = 4500
    rng = np.random.default_rng(n)
    S = np.full((n, n), OPEN, dtype=np.uint8)
    for status, count in ((EDGE, n * n // 200), (CLOSED, n * n // 400)):
        u, v = rng.integers(n, size=(2, count))
        S[u, v] = S[v, u] = status
    np.fill_diagonal(S, NO_PAIR)
    pairs = np.sort(rng.integers(n, size=(6, 2)), axis=1)
    pairs = pairs[S[pairs[:, 0], pairs[:, 1]] == OPEN][:3]
    live, x = k4_witness_counts(S, pairs)
    assert len(live) == 3 and (2 * x[:, 0] > 2 ** 24).all()
    for A, xj in zip(live, x):
        assert xj.tolist() == k4_witness_counts_pair(S, A).tolist()
