import itertools
import math

import numpy as np
import pytest

from conftest import adjacency_sets, independence_greedy_sets
from hfree.analysis import (
    graph_from_edges,
    independence_exact,
    independence_greedy,
    max_degree,
    SUMMARY_COLUMNS,
    ramsey_summary,
)
from hfree.harness import write_csv
from hfree.process import EDGE, K3, K4, ProcessState


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return graph_from_edges(10, outer + inner + spokes)


def _brute_alpha(n, adj):
    best = 0
    for r in range(n, 0, -1):
        for sub in itertools.combinations(range(n), r):
            if all(not adj[u, v] for u, v in itertools.combinations(sub, 2)):
                return r
    return best


def test_petersen_exact():
    adj = petersen()
    res = independence_exact(adj)
    assert res.value == 4
    assert res.exact
    assert res.value == _brute_alpha(10, adj)


def test_c5_exact():
    adj = graph_from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    assert independence_exact(adj).value == 2


def test_empty_and_complete():
    assert independence_exact(graph_from_edges(7, [])).value == 7
    kn = graph_from_edges(6, list(itertools.combinations(range(6), 2)))
    assert independence_exact(kn).value == 1


def test_exact_cap():
    adj = graph_from_edges(100, [])
    with pytest.raises(ValueError):
        independence_exact(adj, cap=60)


@pytest.mark.parametrize("seed", [3, 4, 5, 6])
def test_exact_matches_brute_on_random(seed):
    rng = np.random.default_rng(seed)
    n = 12
    edges = [e for e in itertools.combinations(range(n), 2)
             if rng.random() < 0.3]
    adj = graph_from_edges(n, edges)
    assert independence_exact(adj).value == _brute_alpha(n, adj)


def test_greedy_lower_bounds_exact(rng):
    for seed in range(5):
        r = np.random.default_rng(seed)
        n = 18
        edges = [e for e in itertools.combinations(range(n), 2)
                 if r.random() < 0.25]
        adj = graph_from_edges(n, edges)
        greedy = independence_greedy(adj, rng, repeats=16)
        exact = independence_exact(adj)
        assert greedy.value <= exact.value
        assert len(greedy.witness) == greedy.value


@pytest.mark.parametrize("rule,n,stop", [
    (K3, 12, None), (K3, 60, None), (K3, 500, None), (K3, 300, 1500),
    (K4, 40, None), (K4, 200, None), (K4, 300, 2000), (K3, 50, 0)])
def test_greedy_matches_set_oracle(rule, n, stop):
    """Same draws as the set version: value and witness agree for the same
    seed, on full and truncated K3/K4 graphs and the empty graph (all ties)."""
    st = ProcessState(n, rule)
    st.advance(np.random.default_rng(n + rule), stop)
    for seed in (0, 1):
        got = independence_greedy(st.status_matrix() == EDGE,
                                  np.random.default_rng(seed), repeats=4)
        want = independence_greedy_sets(n, adjacency_sets(st.status_matrix()),
                                        np.random.default_rng(seed), repeats=4)
        assert (got.value, got.witness) == (want.value, want.witness)
        assert all(type(v) is int for v in got.witness)


def test_greedy_rejects_no_repeats(rng):
    with pytest.raises(ValueError):
        independence_greedy(graph_from_edges(4, [(0, 1)]), rng, repeats=0)


def test_max_degree():
    adj = graph_from_edges(5, [(0, 1), (0, 2), (0, 3)])
    assert max_degree(adj) == 3
    assert max_degree(graph_from_edges(3, [])) == 0


def test_ramsey_summary(tmp_path):
    records = []
    for n in (100, 400):
        for trial in range(3):
            records.append({"rule": "K3", "n": n,
                            "M": int(0.4 * n ** 1.5 * math.sqrt(math.log(n))),
                            "alpha": int(math.sqrt(n * math.log(n))),
                            "max_degree": int(0.9 * math.sqrt(n * math.log(n)))})
    rows = ramsey_summary(records)
    assert [r["n"] for r in rows] == [100, 400]
    assert rows[0]["trials"] == 3
    assert rows[0]["mean_M_ratio"] == pytest.approx(0.4, abs=0.01)
    assert rows[0]["std_M_ratio"] == 0.0
    path = tmp_path / "summary.csv"
    write_csv(path, SUMMARY_COLUMNS, ([r[c] for c in SUMMARY_COLUMNS] for r in rows), "test")
    lines = path.read_text().splitlines()
    assert lines[0] == "# test"
    assert lines[1].startswith("rule,n,trials,mean_M_ratio")
    assert len(lines) == 4


def test_ramsey_summary_keeps_rules_apart():
    # K3 and K4 records at one n make one row each, each on its rule's scales
    n, lg = 40, math.log(40)
    k3 = {"rule": "K3", "n": n, "M": 120, "alpha": 12, "max_degree": 7}
    k4 = {"rule": "K4", "n": n, "M": 300, "alpha": 6, "max_degree": 15}
    rows = ramsey_summary([k4, k3, k4, k3])
    assert [(r["rule"], r["n"], r["trials"]) for r in rows] == [("K3", n, 2), ("K4", n, 2)]
    r3, r4 = rows
    assert r3["mean_M_ratio"] == pytest.approx(120 / (n ** 1.5 * lg ** 0.5))
    assert r3["mean_alpha_ratio"] == pytest.approx(12 / (n * lg) ** 0.5)
    assert r3["implied_ramsey_ratio"] == pytest.approx(n * math.log(13) / 13 ** 2)
    assert r4["mean_M_ratio"] == pytest.approx(300 / (n ** 1.6 * lg ** 0.2))
    assert r4["mean_alpha_ratio"] == pytest.approx(6 / (n ** 0.4 * lg ** 0.8))
    assert r4["mean_delta_ratio"] == pytest.approx(15 / (n ** 0.6 * lg ** 0.2))
    assert r4["implied_ramsey_ratio"] == pytest.approx(n * math.log(7) ** 2 / 7 ** 2.5)


def test_ramsey_summary_empty():
    with pytest.raises(ValueError):
        ramsey_summary([])
