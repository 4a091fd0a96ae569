import itertools

import numpy as np
import pytest

from hfree.analysis import max_degree
from hfree.process import (
    BLOCK,
    CLOSED,
    EDGE,
    K3,
    K4,
    N_MAX,
    NO_PAIR,
    OPEN,
    ProcessState,
    ProcessTerminated,
)
from conftest import adjacency_sets, build_graph, force_edge, has_clique, open_pairs


def test_bad_arguments():
    with pytest.raises(ValueError):
        ProcessState(1, 3)
    with pytest.raises(ValueError):
        ProcessState(5, 5)
    # the bound comes before S, 2 GB at this n, is allocated
    with pytest.raises(ValueError, match="n=%d" % (N_MAX + 1)):
        ProcessState(N_MAX + 1, 3)


def test_initial_state():
    st = ProcessState(6, 3)
    assert st.open_count == 15
    assert st.steps == 0
    S = st.status_matrix()
    assert np.all(S[np.triu_indices(6, 1)] == OPEN)
    assert max_degree(S == EDGE) == 0


def _status_oracle(st):
    """Recompute every pair status from the adjacency alone."""
    adj = adjacency_sets(st.status_matrix())
    out = np.full((st.n, st.n), NO_PAIR, dtype=np.uint8)
    for u, v in itertools.combinations(range(st.n), 2):
        if v in adj[u]:
            out[u, v] = out[v, u] = EDGE
        elif st.is_closed_probe(u, v):
            out[u, v] = out[v, u] = CLOSED
        else:
            out[u, v] = out[v, u] = OPEN
    return out


@pytest.mark.parametrize("rule,n", [(3, 18), (3, 30), (4, 14), (4, 24)])
def test_invariants_through_run(rule, n, rng):
    st = ProcessState(n, rule)
    S = st.status_matrix()  # live view
    upper = np.triu_indices(n, 1)
    prev = S.copy()
    while st.open_count:
        out = st.step(rng)
        # partition
        counts = np.bincount(S[upper], minlength=3)
        assert counts.sum() == st.npairs
        assert counts[OPEN] == st.open_count
        # monotonicity: closed never reopens, edges never change
        assert not np.any((prev == CLOSED) & (S != CLOSED))
        assert not np.any((prev == EDGE) & (S != EDGE))
        # closed pairs this step were open before
        assert np.all(prev.ravel()[out.closed_ids] == OPEN)
        prev = S.copy()
        # full oracle equivalence from adjacency alone
        assert np.array_equal(S, _status_oracle(st))
    # termination: every non-edge is closed, graph is maximal clique-free
    assert np.all(S != OPEN)
    adj = adjacency_sets(S)
    assert not has_clique(adj, range(n), rule)
    for u, v in itertools.combinations(range(n), 2):
        if v not in adj[u]:
            assert st.is_closed_probe(u, v)


def test_edge_log_matches_steps(rng):
    st = ProcessState(12, 3)
    assert st.advance(rng) == st.steps == len(st.edge_log)
    assert st.open_count == 0
    for u, v in st.edge_log:
        assert st.has_edge(u, v)


def test_stop_cap_between_steps(rng):
    st = ProcessState(30, 3)
    assert st.advance(rng, 5) == st.steps == 5
    assert st.open_count
    # resumes cleanly
    st.advance(rng)
    assert st.open_count == 0


def test_step_after_termination_raises(rng):
    st = ProcessState(4, 3)
    st.advance(rng)
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
    assert [tuple(sorted(divmod(int(i), 5))) for i in out.closed_ids] == [(0, 2)]
    assert st.status_of(0, 2) == CLOSED


@pytest.mark.parametrize("rule,n", [(3, 12), (3, 40), (4, 12), (4, 40)])
def test_closed_ids_index_s(rule, n, rng):
    # closed_ids are codes a*n+b into S: open before the step, closed after,
    # and each closed pair is listed once
    st = ProcessState(n, rule)
    flat = st.status_matrix().ravel()
    closed_any = 0
    while st.open_count:
        before = flat.copy()
        q_before = st.open_count
        out = st.step(rng)
        assert out.closed_ids.dtype.kind == "i"
        assert np.all(before[out.closed_ids] == OPEN)
        assert np.all(flat[out.closed_ids] == CLOSED)
        assert len(out.closed_ids) == q_before - st.open_count - 1
        # every newly closed pair appears, once, on one side of the diagonal
        u, v = np.divmod(out.closed_ids, n)
        listed = set(zip(np.minimum(u, v).tolist(), np.maximum(u, v).tolist()))
        newly_closed = np.count_nonzero((before == OPEN) & (flat == CLOSED)) // 2
        assert len(listed) == len(out.closed_ids) == newly_closed
        closed_any += len(out.closed_ids)
    assert closed_any == st.npairs - st.steps


def test_first_edge_uniform_chi_square():
    # n=3: each of the 3 possible first edges should be equally likely
    rng = np.random.default_rng(2024)
    counts = np.zeros(3)
    pairs = [(0, 1), (0, 2), (1, 2)]
    trials = 3000
    for _ in range(trials):
        st = ProcessState(3, 3)
        out = st.step(rng)
        counts[pairs.index(out.edge)] += 1
    expect = trials / 3.0
    chi2 = float(((counts - expect) ** 2 / expect).sum())
    # chi-square 99% critical value, 2 degrees of freedom
    assert chi2 < 9.21


def _uniform_chi2(counts):
    """Chi-square statistic of `counts` against the uniform law on its
    cells, and a 99.9% critical value (Wilson-Hilferty)."""
    expect = counts.sum() / len(counts)
    df = len(counts) - 1
    crit = df * (1 - 2 / (9 * df) + 3.09 * (2 / (9 * df)) ** 0.5) ** 3
    return float(((counts - expect) ** 2 / expect).sum()), crit


def _choose_chi2(st, rng, draws):
    """_uniform_chi2 of `draws` choose() calls over the open pairs."""
    pairs = open_pairs(st).tolist()
    slot = {tuple(p): k for k, p in enumerate(pairs)}
    counts = np.zeros(len(pairs))
    for _ in range(draws):
        counts[slot[st.choose(rng)]] += 1
    return _uniform_chi2(counts)


def test_choose_uniform_over_open_pairs(rng):
    st = ProcessState(20, 3)
    st.advance(rng, 6)
    # the open list still holds closed and edge entries, not yet compacted
    assert st.open_count < len(st._open) <= 2 * st.open_count
    chi2, crit = _choose_chi2(st, rng, 20_000)
    assert chi2 < crit
    while 2 * st.open_count >= len(st._open):
        st.step(rng)
    st._pending = st._pending[:0]
    st.choose(rng)  # draws a block, so compacts first
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
        assert st.advance(rng) == 5 and st.open_count == 0


def test_k3_m_n4_support(rng):
    # maximal triangle-free graphs on 4 vertices have 3 or 4 edges
    seen = set()
    for _ in range(200):
        st = ProcessState(4, 3)
        seen.add(st.advance(rng))
    assert seen == {3, 4}


def test_status_matrix_symmetry(rng):
    st = ProcessState(10, 3)
    st.advance(rng, 12)
    m = st.status_matrix()
    assert np.array_equal(m, m.T)
    for u, v in itertools.combinations(range(10), 2):
        assert m[u, v] == st.status_of(u, v)


class RecordingRng:
    """Generator that records, in draw order, the open-list codes its draws
    pick for `state`, so the run can be replayed one add_edge at a time."""

    def __init__(self, state, seed):
        self.state = state
        self.codes = []
        self._gen = np.random.default_rng(seed)

    def integers(self, high, size=None):
        idx = self._gen.integers(high, size=size)
        self.codes += np.atleast_1d(self.state._open[idx]).tolist()
        return idx


def _replay(n, rule, codes, steps):
    """The process driven by a code stream one add_edge at a time: each code
    still open at its turn is added, until `steps` edges are in."""
    st = ProcessState(n, rule)
    flat = st.status_matrix().ravel()
    for code in codes:
        if st.steps == steps:
            break
        if flat[code] == OPEN:
            st.add_edge(*divmod(code, n))
    return st


def _assert_same_run(st, ref):
    assert st.edge_log == ref.edge_log
    assert np.array_equal(st.status_matrix(), ref.status_matrix())
    assert st.open_count == ref.open_count == len(open_pairs(st))


@pytest.mark.parametrize("cap", [1, 7, None])
@pytest.mark.parametrize("n", [10, 30, 100, 300])
def test_advance_equals_one_at_a_time_on_same_codes(n, cap):
    # a K4 run to the end at n=300 takes seconds, one step at a time
    rules = (K3, K4) if n <= 100 else (K3,)
    for rule, seed in itertools.product(rules, range(3)):
        st = ProcessState(n, rule)
        rng = RecordingRng(st, seed)
        while st.open_count:
            before = st.steps
            taken = st.advance(rng, cap)
            assert taken == st.steps - before > 0
            assert taken == cap or st.open_count == 0
        _assert_same_run(st, _replay(n, rule, rng.codes, st.steps))


def test_step_after_capped_advance_is_exact():
    # step takes the codes a capped advance left over before drawing anew
    for rule, n, seed in ((K3, 30, 0), (K3, 100, 1), (K3, 300, 2), (K4, 30, 0), (K4, 100, 1)):
        st = ProcessState(n, rule)
        rng = RecordingRng(st, seed)
        carried = 0
        while st.open_count:
            st.advance(rng, 7)
            if st.open_count:
                carried += len(st._pending) > 0
                out = st.step(rng)
                assert out.edge == st.edge_log[-1]
        assert carried
        _assert_same_run(st, _replay(n, rule, rng.codes, st.steps))


class OneBlockRng:
    """Hands out one given block of open-list indices, then nothing."""

    def __init__(self, block):
        self.block = block

    def integers(self, high, size=None):
        block, self.block = self.block, None
        return block


def test_k4_run_stops_at_pair_with_earlier_pair_inside_its_c():
    # on the 4-cycle 0-2-1-3, C = N(0) ∩ N(1) = {2,3}: a block drawing {2,3}
    # and then {0,1} must add {2,3} alone, which closes {0,1}
    edges = [(0, 2), (0, 3), (1, 2), (1, 3)]
    st, ref = build_graph(8, K4, edges), build_graph(8, K4, edges)
    drawn = [(2, 3), (0, 1), (4, 5), (6, 7)]
    idx = np.searchsorted(st._open, [u * 8 + v for u, v in drawn])
    runs = []
    add = st._add
    st._add = lambda us, vs, C=None: runs.append(len(us)) or add(us, vs, C)
    # the repeats of the block are no longer open at their turn
    assert st.advance(OneBlockRng(np.resize(idx, BLOCK)), 3) == 3
    assert runs == [1, 2]
    for u, v in drawn[:1] + drawn[2:]:
        ref.add_edge(u, v)
    assert ref.status_of(0, 1) == CLOSED
    _assert_same_run(st, ref)


def test_k4_advance_is_steps():
    # both rules: a step loop and advance take the same code stream
    for rule in (K3, K4):
        a, b = ProcessState(40, rule), ProcessState(40, rule)
        ra, rb = np.random.default_rng(9), np.random.default_rng(9)
        assert a.advance(ra, 100) == 100
        a.advance(ra)
        while b.open_count:
            b.step(rb)
        assert a.edge_log == b.edge_log and np.array_equal(a.S, b.S)


def test_first_pairs_through_advance_uniform():
    # at n=5 the first edge closes nothing under either rule, so the first
    # two edges are a uniform ordered pair of distinct pairs; a drawn code
    # dropped instead of carried over would bias the second edge away from
    # the first one's ends
    pairs = [tuple(p) for p in itertools.combinations(range(5), 2)]
    rng = np.random.default_rng(2718)
    for rule in (K3, K4):
        joint = np.zeros((10, 10))
        for trial in range(9000):
            st = ProcessState(5, rule)
            if trial % 2:
                st.advance(rng, 2)
            else:
                st.advance(rng, 1)
                st.advance(rng, 1)
            first, second = (pairs.index(e) for e in st.edge_log)
            joint[first, second] += 1
        assert not joint.diagonal().any()
        chi2, crit = _uniform_chi2(joint.sum(axis=1))
        assert chi2 < crit
        chi2, crit = _uniform_chi2(joint[~np.eye(10, dtype=bool)])
        assert chi2 < crit


def test_k3_n4_law_through_advance():
    # P(M=3) = 4/15 exactly at n=4 (criterion 3 checks it through step)
    rng = np.random.default_rng(415)
    trials = 8000
    hits = sum(ProcessState(4, K3).advance(rng) == 3 for _ in range(trials))
    p = 4 / 15
    assert abs(hits / trials - p) <= 3 * (p * (1 - p) / trials) ** 0.5
