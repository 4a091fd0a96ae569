import itertools
from fractions import Fraction

import numpy as np
import pytest

from hfree.ledger import (
    FULL,
    PairCounts,
    PairLedger,
    expected_open_loss,
    expected_partial_gain,
    expected_partial_loss,
    expected_q_drop,
    oracle_counts_matrix,
    recompute_oracle,
    sampled_counts,
)
from hfree.process import EDGE, ProcessState
from conftest import build_graph, force_edge, open_pairs, sampled_counts_loop


def test_init_values():
    st = ProcessState(5, 3)
    led = PairLedger(st, FULL)
    assert led.q == 10
    for u, v in itertools.combinations(range(5), 2):
        assert led.counts(u, v) == PairCounts(3, 0, 0)
    st2 = ProcessState(2, 3)
    led2 = PairLedger(st2, FULL)
    assert led2.q == 1
    assert led2.counts(0, 1) == PairCounts(0, 0, 0)


def test_init_requires_fresh_state(rng):
    st = ProcessState(6, 3)
    st.step(rng)
    with pytest.raises(ValueError):
        PairLedger(st, FULL)


def test_stale_outcome_rejected(rng):
    st = ProcessState(8, 3)
    led = PairLedger(st, FULL)
    out1 = st.step(rng)
    led.apply_edge(out1, st)
    st.step(rng)
    with pytest.raises(ValueError):
        led.apply_edge(out1, st)


def test_n3_after_one_edge():
    st = ProcessState(3, 3)
    led = PairLedger(st, FULL)
    led.apply_edge(force_edge(st, 0, 1), st)
    assert led.counts(0, 2) == PairCounts(0, 1, 0)
    assert led.counts(1, 2) == PairCounts(0, 1, 0)
    assert recompute_oracle(st, 0, 2) == PairCounts(0, 1, 0)


def test_star_pair_complete():
    # star with center 0, leaves 1,2,3: pair {1,2} sees only complete vertex 0
    st = build_graph(4, 3, [(0, 1), (0, 2), (0, 3)])
    assert recompute_oracle(st, 1, 2) == PairCounts(0, 0, 1)


def test_c5_chords_closed():
    cyc = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    st = build_graph(5, 3, cyc)
    assert st.open_count == 0
    for u, v in itertools.combinations(range(5), 2):
        if not st.has_edge(u, v):
            assert recompute_oracle(st, u, v).z >= 1


def test_ledger_matches_oracle_full_run(rng):
    for n in (10, 24):
        st = ProcessState(n, 3)
        led = PairLedger(st, FULL)
        while st.open_count:
            led.apply_edge(st.step(rng), st)
            xm, ym, zm = oracle_counts_matrix(st)
            for u, v in itertools.combinations(range(n), 2):
                if st.has_edge(u, v):
                    continue
                pc = led.counts(u, v)
                assert (pc.x, pc.y, pc.z) == (xm[u, v], ym[u, v], zm[u, v])
            assert led.q == st.open_count


def test_float32_oracle_matrix_at_n300():
    # partway through a run at n=300 the float32 products must still equal
    # the brute-force counts, on random non-edge pairs and on pairs with z > 0
    n = 300
    st = ProcessState(n, 3)
    st.advance(np.random.default_rng(300), round(0.6 * n ** 1.5))
    assert st.open_count
    xm, ym, zm = oracle_counts_matrix(st)
    assert xm.dtype == ym.dtype == zm.dtype == np.int32
    u, v = np.triu_indices(n, 1)
    nonedge = st.status_matrix()[u, v] != EDGE
    u, v = u[nonedge], v[nonedge]
    pick = np.random.default_rng(301)
    some = pick.choice(len(u), size=150, replace=False)
    with_z = np.flatnonzero(zm[u, v] > 0)
    assert len(with_z) >= 50
    for k in np.concatenate([some, pick.choice(with_z, size=50, replace=False)]):
        a, b = int(u[k]), int(v[k])
        assert recompute_oracle(st, a, b) == (xm[a, b], ym[a, b], zm[a, b])
        assert (xm[b, a], ym[b, a], zm[b, a]) == (xm[a, b], ym[a, b], zm[a, b])
    assert int(ym[u, v].max()) > 0 and int(xm[u, v].max()) > 0


def test_oracle_rejects_edges():
    st = build_graph(4, 3, [(0, 1)])
    with pytest.raises(ValueError):
        recompute_oracle(st, 0, 1)


def test_frozen_pairs_keep_counts(rng):
    st = ProcessState(12, 3)
    led = PairLedger(st, FULL)
    frozen = {}
    while st.open_count:
        out = st.step(rng)
        u, v = out.edge
        frozen[u, v] = (int(led.x[u, v]), int(led.y[u, v]), int(led.z[u, v]))
        led.apply_edge(out, st)
        for (fu, fv), vals in frozen.items():
            assert (int(led.x[fu, fv]), int(led.y[fu, fv]), int(led.z[fu, fv])) == vals


@pytest.mark.parametrize("rule,n", [(3, 20), (4, 16)])
def test_new_edge_freezes_at_pre_step_oracle(rule, n, rng):
    # the counts a pair keeps once it is an edge are those of the state
    # just before the step that added it
    st = ProcessState(n, rule)
    led = PairLedger(st, FULL)
    while st.open_count:
        xm, ym, zm = oracle_counts_matrix(st)
        out = st.step(rng)
        led.apply_edge(out, st)
        u, v = out.edge
        assert led.counts(u, v) == (xm[u, v], ym[u, v], zm[u, v])


def test_counts_stay_symmetric(rng):
    st = ProcessState(24, 3)
    led = PairLedger(st, FULL)
    while st.open_count:
        led.apply_edge(st.step(rng), st)
        for m in (led.x, led.y, led.z):
            assert np.array_equal(m, m.T) and not np.diagonal(m).any()


def test_only_full_mode():
    with pytest.raises(ValueError):
        PairLedger(ProcessState(10, 3), "sampled")


def test_class_conservation(rng):
    st = ProcessState(15, 3)
    st.advance(rng, 25)
    for u, v in itertools.combinations(range(15), 2):
        if st.has_edge(u, v):
            continue
        pc = recompute_oracle(st, u, v)
        # fourth class: w with a closed pair to u or v
        other = sum(1 for w in range(15) if w not in (u, v)
                    and (st.status_of(u, w) == 2 or st.status_of(v, w) == 2))
        assert pc.x + pc.y + pc.z + other == 13


def test_q_drop_exact_identity(rng):
    st = ProcessState(20, 3)
    led = PairLedger(st, FULL)
    while st.open_count:
        q_before = st.open_count
        out = st.step(rng)
        y_choice = int(led.y[out.edge])
        assert st.open_count == q_before - 1 - y_choice
        assert len(out.closed_ids) == y_choice
        led.apply_edge(out, st)


def _upper_codes(n):
    """Codes u*n+v of the pairs u < v, in row-major order."""
    return np.flatnonzero(np.triu(np.ones((n, n), dtype=bool), 1))


def test_sampled_counts_match_oracle_at_every_code(rng):
    # edges too: a pair's counts come from the two rows its code names
    st = ProcessState(10, 3)
    st.advance(rng, 8)
    codes = _upper_codes(10)
    for got, want in zip(sampled_counts(st, codes), oracle_counts_matrix(st)):
        assert np.array_equal(got, want.ravel()[codes])


@pytest.mark.parametrize("n,stop", [(5, 3), (30, 60), (200, 1500), (200, None)])
def test_sampled_counts_match_loop(n, stop, rng):
    st = ProcessState(n, 3)
    st.advance(rng, stop)
    upper = _upper_codes(n)
    edges = np.flatnonzero(np.triu(st.status_matrix() == EDGE, 1))[:10]
    drawn = np.random.default_rng(n).choice(upper, size=min(50, st.npairs), replace=False)
    codes = np.unique(np.concatenate([drawn, edges, upper[[0, -1]]]))
    got = sampled_counts(st, codes)
    want = sampled_counts_loop(st, codes)
    assert (st.status_matrix().ravel()[codes] == EDGE).any()  # some witnesses are edges
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


# ------------------------------------------------- expectation identities

def test_expected_open_loss_empty():
    st = ProcessState(4, 3)
    led = PairLedger(st, FULL)
    val = expected_open_loss(led, st, 0, 1)
    assert val == Fraction(2, 3)
    assert isinstance(val, Fraction)
    st3 = ProcessState(3, 3)
    led3 = PairLedger(st3, FULL)
    assert expected_open_loss(led3, st3, 0, 1) == Fraction(2, 3)


def test_expected_partial_gain_empty():
    st = ProcessState(4, 3)
    led = PairLedger(st, FULL)
    assert expected_partial_gain(led, 0, 1) == Fraction(2, 3)


def test_expected_partial_quantities_n3():
    st = ProcessState(3, 3)
    led = PairLedger(st, FULL)
    led.apply_edge(force_edge(st, 0, 1), st)
    assert expected_partial_loss(led, st, 0, 2) == Fraction(1, 2)
    assert expected_partial_gain(led, 0, 2) == 0
    assert expected_q_drop(led, st) == 2


def test_expected_q_drop_empty():
    st = ProcessState(6, 3)
    led = PairLedger(st, FULL)
    assert expected_q_drop(led, st) == 1


def test_partial_loss_sum_matches_q_drop(rng):
    # sum over open pairs of y/q equals E[q-drop] - 1
    st = ProcessState(12, 3)
    led = PairLedger(st, FULL)
    for _ in range(10):
        led.apply_edge(st.step(rng), st)
    total = Fraction(0)
    for u, v in open_pairs(st).tolist():
        total += Fraction(int(led.y[u, v]), led.q)
    assert total == expected_q_drop(led, st) - 1
