"""Acceptance gate: eleven criteria, one test each, each printing a single
PASS/FAIL line with the measured values.  The long scaling experiments are
shared between criteria through session fixtures.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from hfree import cli, harness
from hfree.concentration import (
    MartingaleSpec,
    g_func,
    hoeffding_tail,
    simulate_bounded_martingale,
    submartingale_tail,
    supermartingale_tail,
)
from hfree.ledger import (
    FULL,
    PairLedger,
    expected_open_loss,
    expected_partial_gain,
    expected_partial_loss,
    expected_q_drop,
    oracle_counts_matrix,
)
from hfree.process import CLOSED, EDGE, OPEN, ProcessState
from hfree.trajectory import k3_ode_residual, k4_ode_residual
from conftest import adjacency_sets, is_closed_probe, open_pairs


@pytest.fixture
def report(capfd):
    """One PASS/FAIL line per criterion, written past pytest's capture so it
    shows up in a normal run."""

    def _report(num, name, ok, detail=""):
        line = "ACCEPTANCE %2d %-28s %s" % (num, name, "PASS" if ok else "FAIL")
        if detail:
            line += "  [%s]" % detail
        with capfd.disabled():
            print(line, flush=True)
        return ok

    return _report


class BufferedRng:
    """Seeded uniform-integer source drawing from pre-generated blocks;
    much cheaper than one generator call per step for tiny runs."""

    def __init__(self, seed, block=1 << 18):
        self._rng = np.random.default_rng(seed)
        self._block = block
        self._buf = self._rng.random(block)
        self._pos = 0

    def integers(self, high, size):
        if self._pos + size > self._block:
            self._buf = self._rng.random(self._block)
            self._pos = 0
        u = self._buf[self._pos:self._pos + size]
        self._pos += size
        return (u * high).astype(np.int64)


# ---------------------------------------------------------------- criteria 1+2

def _closed_oracle_matrix(state):
    """Closure recomputed from the adjacency alone (triangle rule)."""
    n = state.n
    adj = np.zeros((n, n), dtype=np.int32)
    for u, v in state.edge_log:
        adj[u, v] = adj[v, u] = 1
    return (adj @ adj) > 0


def test_criterion_1_and_2_oracle_equivalence(report):
    mismatches = 0
    identity_failures = 0
    iu_cache = {}
    for n in (8, 16, 32, 40):
        iu_cache[n] = np.triu_indices(n, 1)
        for run in range(50):
            rng = np.random.default_rng(10_000 * n + run)
            st = ProcessState(n, 3)
            led = PairLedger(st, FULL)
            while st.open_count:
                q_before = st.open_count
                out = st.step(rng)
                y_choice = int(led.y[out.edge])
                if st.open_count != q_before - 1 - y_choice:
                    identity_failures += 1
                led.apply_edge(out, st)
                # ledger vs from-scratch counts, every non-edge pair
                xm, ym, zm = oracle_counts_matrix(st)
                iu = iu_cache[n]
                status = st.status_matrix()[iu]
                nonedge = status != EDGE
                if not (np.array_equal(led.x[iu][nonedge], xm[iu][nonedge])
                        and np.array_equal(led.y[iu][nonedge], ym[iu][nonedge])
                        and np.array_equal(led.z[iu][nonedge], zm[iu][nonedge])):
                    mismatches += 1
                # stored status vs closure recomputed from adjacency
                closed = _closed_oracle_matrix(st)[iu]
                if not np.array_equal(status == CLOSED,
                                      closed & (status != EDGE)):
                    mismatches += 1
                # spot-check the probe itself
                opens = open_pairs(st)
                sample = opens[:: max(1, len(opens) // 5)]
                for u, v in sample.tolist():
                    if is_closed_probe(st, u, v):
                        mismatches += 1
    ok1 = report(1, "oracle equivalence", mismatches == 0,
                  "mismatches=%d" % mismatches)
    ok2 = report(2, "exact q-drop identity", identity_failures == 0,
                  "failures=%d" % identity_failures)
    assert ok1 and ok2


# ------------------------------------------------------------------ criterion 3

def _exhaustive_m3_probability():
    """Exact P(M=3) for n=4 under the triangle rule, by process-tree
    enumeration with rational arithmetic."""
    pairs = list(itertools.combinations(range(4), 2))

    def open_pairs(edges):
        out = []
        for e in pairs:
            if e in edges:
                continue
            u, v = e
            common = [w for w in range(4) if w not in e
                      and ((min(u, w), max(u, w)) in edges)
                      and ((min(v, w), max(v, w)) in edges)]
            if not common:
                out.append(e)
        return out

    memo = {}

    def prob_m3(edges):
        key = frozenset(edges)
        if key in memo:
            return memo[key]
        opens = open_pairs(edges)
        if not opens:
            res = Fraction(1 if len(edges) == 3 else 0)
        else:
            res = sum(prob_m3(edges | {e}) for e in opens) / len(opens)
        memo[key] = res
        return res

    return prob_m3(frozenset())


def test_criterion_3_tiny_n_distribution(report):
    exact = _exhaustive_m3_probability()
    oracle_ok = exact == Fraction(4, 15)
    trials = 100_000
    rng = BufferedRng(0)
    hits = 0
    for _ in range(trials):
        st = ProcessState(4, 3)
        while st.open_count:
            st.step(rng)
        if st.steps == 3:
            hits += 1
    p = float(exact)
    se = math.sqrt(p * (1 - p) / trials)
    dev = abs(hits / trials - p)
    ok = report(3, "tiny-n distribution", oracle_ok and dev <= 3 * se,
                 "exact=%s obs=%.5f dev=%.5f 3se=%.5f" % (exact, hits / trials,
                                                          dev, 3 * se))
    assert ok


# ------------------------------------------------------------------ criterion 4

def _pair(a, b):
    return (a, b) if a < b else (b, a)


def _one_step_table(st, target):
    """For every open pair e, the exact one-step effects on the target pair:
    (x_loss, y_loss, y_gain, q_drop)."""
    n = st.n
    u, v = target
    adj = adjacency_sets(st.status_matrix())
    x_set, y_info = set(), {}
    for w in range(n):
        if w in (u, v):
            continue
        s1 = st.status_of(u, w)
        s2 = st.status_of(v, w)
        if s1 == OPEN and s2 == OPEN:
            x_set.add(w)
        elif s1 == OPEN and s2 == EDGE:
            y_info[w] = _pair(u, w)
        elif s1 == EDGE and s2 == OPEN:
            y_info[w] = _pair(v, w)
    rows = []
    for a, b in open_pairs(st).tolist():
        closed = set()
        for x, y in ((a, b), (b, a)):
            for w in adj[y]:
                if w != x and st.status_of(x, w) == OPEN:
                    closed.add(_pair(x, w))
        q_drop = 1 + len(closed)
        if {a, b} == {u, v}:
            rows.append((0, 0, 0, q_drop))  # target freezes
            continue
        gone = closed | {(a, b)}
        x_loss = sum(1 for w in x_set
                     if _pair(u, w) in gone or _pair(v, w) in gone)
        y_loss = sum(1 for w, wpair in y_info.items() if wpair in gone)
        y_gain = sum(1 for w in x_set
                     if (a, b) in (_pair(u, w), _pair(v, w)))
        rows.append((x_loss, y_loss, y_gain, q_drop))
    return np.asarray(rows, dtype=float)


def test_criterion_4_conditional_expectations(report):
    rng = np.random.default_rng(424242)
    draws = 10_000
    worst = 0.0
    failures = []
    audited = 0
    while audited < 20:
        n = int(rng.integers(6, 21))
        st = ProcessState(n, 3)
        led = PairLedger(st, FULL)
        cap = int(rng.integers(0, st.npairs))
        while st.open_count and st.steps < cap:
            led.apply_edge(st.step(rng), st)
        opens = open_pairs(st)
        if len(opens) == 0:
            continue
        audited += 1
        target = tuple(rng.choice(opens).tolist())
        table = _one_step_table(st, target)
        expected = [float(expected_open_loss(led, st, *target)),
                    float(expected_partial_loss(led, st, *target)),
                    float(expected_partial_gain(led, *target)),
                    float(expected_q_drop(led, st))]
        idx = rng.integers(len(table), size=draws)
        sample = table[idx]
        for k, name in enumerate(("open_loss", "partial_loss",
                                  "partial_gain", "q_drop")):
            mean = float(sample[:, k].mean())
            se = float(sample[:, k].std(ddof=1)) / math.sqrt(draws)
            dev = abs(mean - expected[k])
            if se == 0.0:
                if dev > 0:
                    failures.append((n, st.steps, name, dev))
                continue
            worst = max(worst, dev / se)
            if dev > 3 * se:
                failures.append((n, st.steps, name, dev / se))
    ok = report(4, "conditional expectations", not failures,
                 "states=20 draws=%d worst_dev=%.2fse fails=%d"
                 % (draws, worst, len(failures)))
    assert ok


# ------------------------------------------------------------------ criterion 5

def test_criterion_5_ode_residuals(report):
    worst = 0.0
    for t in np.linspace(0.01, 3.0, 300):
        r_q, r_x, r_y = k3_ode_residual(float(t))
        worst = max(worst, abs(r_q), abs(r_x), abs(r_y))
        rq4, rx4, ry4 = k4_ode_residual(float(t))
        worst = max(worst, abs(rq4), *map(abs, rx4), *map(abs, ry4))
    ok = report(5, "ODE residuals", worst < 1e-10, "worst=%.2e" % worst)
    assert ok


# ------------------------------------------------------------------ criterion 6

def test_criterion_6_k3_concentration(report):
    n, trials = 2000, 20
    cfg = harness.ExperimentConfig(process="K3", n_list=(n,), trials=trials,
                                   base_seed=6001, stop="t:0.3")
    recs = harness.run_experiment(cfg)
    by_step = {}
    for r in recs:
        for s in r["snapshots"]:
            by_step.setdefault(s["i"], []).append(s)
    worst_q = worst_x = worst_y = 0.0
    for i, group in sorted(by_step.items()):
        s0 = group[0]
        if s0["t"] == 0 or s0["t"] > 0.3:
            continue
        worst_q = max(worst_q,
                      abs(np.mean([s["Q"] for s in group]) / s0["q_pred"] - 1))
        worst_x = max(worst_x,
                      abs(np.mean([s["x_mean"] for s in group]) / s0["x_pred"] - 1))
        worst_y = max(worst_y,
                      abs(np.mean([s["y_mean"] for s in group]) / s0["y_pred"] - 1))
    ok = report(6, "K3 trajectory concentration",
                 worst_q <= 0.03 and worst_x <= 0.05 and worst_y <= 0.10,
                 "Q=%.1f%% X=%.1f%% Y=%.1f%% (tol 3/5/10)"
                 % (100 * worst_q, 100 * worst_x, 100 * worst_y))
    assert ok


# -------------------------------------------------------------- criteria 7+8

@pytest.fixture(scope="session")
def scaling_runs():
    cfg = harness.ExperimentConfig(process="K3", n_list=(500, 1000, 2000, 4000),
                                   trials=10, base_seed=7001, stop="full",
                                   greedy_repeats=8)
    return harness.run_experiment(cfg)


def test_criterion_7_m_scaling(report, scaling_runs):
    means = []
    for n in (500, 1000, 2000, 4000):
        rs = [r for r in scaling_runs if r["n"] == n]
        means.append(np.mean([r["M"] / (n ** 1.5 * math.sqrt(math.log(n)))
                              for r in rs]))
    spread = max(means) / min(means)
    ok = report(7, "M scaling", spread <= 1.15,
                 "ratios=%s spread=%.3f" % (["%.3f" % m for m in means], spread))
    assert ok


def test_criterion_8_alpha_delta_scaling(report, scaling_runs):
    a_means, d_means = [], []
    dominated = True
    for n in (500, 1000, 2000, 4000):
        rs = [r for r in scaling_runs if r["n"] == n]
        scale = math.sqrt(n * math.log(n))
        a_means.append(np.mean([r["alpha"] / scale for r in rs]))
        d_means.append(np.mean([r["max_degree"] / scale for r in rs]))
        dominated &= all(r["max_degree"] <= r["alpha"] for r in rs)
    a_spread = max(a_means) / min(a_means)
    d_spread = max(d_means) / min(d_means)
    ok = report(8, "alpha/Delta scaling",
                 a_spread <= 1.3 and d_spread <= 1.3 and dominated,
                 "alpha=%.3f..%.3f Delta=%.3f..%.3f Delta<=alpha=%s"
                 % (min(a_means), max(a_means), min(d_means), max(d_means),
                    dominated))
    assert ok


# ------------------------------------------------------------------ criterion 9

def test_criterion_9_concentration_suite(report):
    g_violations = 0
    for v in np.arange(0.05, 0.451, 0.05):
        v = float(v)
        for x in np.arange(-1.0, 1.001, 0.01):
            x = float(round(x, 10))
            if x < -1 or x > 1:
                continue
            g = g_func(x, v)
            if -1 <= x <= 0 and g > -v * x * x / 2 + 1e-15:
                g_violations += 1
            if 0 < x <= 1 and g > -(11.0 / 30.0) * v * x * x + 1e-15:
                g_violations += 1
    hoeff_worst = 0.0
    for mu in (0.05, 0.2, 0.4):
        for t in (0.01, 0.1, 0.3, 0.5):
            if t >= 1 - mu:
                continue
            for m in (1, 10, 1000):
                a = hoeffding_tail(mu, t, m)
                b = math.exp(m * g_func(t / mu, mu))
                if max(a, b) > 0:
                    hoeff_worst = max(hoeff_worst, abs(a - b) / max(a, b))
    trials = 100_000
    rng = np.random.default_rng(909090)
    sub_spec = MartingaleSpec(1.0, 2.0, 100, 30.0)
    probs = [2.0 / 3.0, 1.0 / 3.0]
    sub_freq = simulate_bounded_martingale(sub_spec, [-1.0, 2.0], probs,
                                           trials, rng, side="lower")
    sub_bound = submartingale_tail(sub_spec).lemma
    sup_spec = MartingaleSpec(0.5, 5.0, 200, 40.0)
    probs2 = [5.0 / 5.5, 0.5 / 5.5]
    sup_freq = simulate_bounded_martingale(sup_spec, [-0.5, 5.0], probs2,
                                           trials, rng, side="upper")
    sup_bound = supermartingale_tail(sup_spec).lemma

    def within(freq, bound):
        se = math.sqrt(max(freq * (1 - freq), 1e-9) / trials)
        return freq - 3 * se <= bound

    ok = report(9, "concentration suite",
                 g_violations == 0 and hoeff_worst <= 1e-12
                 and within(sub_freq, sub_bound) and within(sup_freq, sup_bound),
                 "g_viol=%d hoeff=%.1e sub=%.4f<=%.4f sup=%.4f<=%.4f"
                 % (g_violations, hoeff_worst, sub_freq, sub_bound,
                    sup_freq, sup_bound))
    assert ok


# ----------------------------------------------------------------- criterion 10

def test_criterion_10_k4_trajectory(report):
    n, trials = 400, 10
    cfg = harness.ExperimentConfig(process="K4", n_list=(n,), trials=trials,
                                   base_seed=1001, stop="t:0.25",
                                   k4_witness_pairs=50, k4_witness_triples=50)
    recs = harness.run_experiment(cfg)
    by_step = {}
    for r in recs:
        for s in r["snapshots"]:
            by_step.setdefault(s["i"], []).append(s)
    worst_q = 0.0
    worst_x = [0.0, 0.0, 0.0]
    for i, group in sorted(by_step.items()):
        s0 = group[0]
        if s0["t"] == 0 or s0["t"] > 0.25:
            continue
        worst_q = max(worst_q,
                      abs(np.mean([s["Q"] for s in group]) / s0["q_pred"] - 1))
        x_mean = np.mean([s["x_mean"] for s in group], axis=0)
        for f in range(3):
            if s0["x_pred"][f] > 0:
                worst_x[f] = max(worst_x[f], abs(x_mean[f] / s0["x_pred"][f] - 1))
    ok = report(10, "K4 trajectory shape",
                 worst_q <= 0.05 and all(w <= 0.15 for w in worst_x),
                 "Q=%.1f%% (tol 5) x_f=%s%% (tol 15)"
                 % (100 * worst_q, ["%.1f" % (100 * w) for w in worst_x]))
    assert ok


# ----------------------------------------------------------------- criterion 11

def test_criterion_11_determinism(report, tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("process=K3\nn_list=40\ntrials=3\nbase_seed=11011\n")
    cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "a")])
    cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "b")])
    same = ((tmp_path / "a" / "records.jsonl").read_bytes()
            == (tmp_path / "b" / "records.jsonl").read_bytes())
    ok = report(11, "byte-identical records", same)
    assert ok
