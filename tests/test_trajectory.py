import math

import numpy as np
import pytest

from conftest import k3_bad_event_scalar, k4_bad_event_scalar
from hfree.trajectory import (
    DEFAULT_P_COEFFS,
    k3_bad_event,
    k3_envelope,
    k3_envelope_f,
    k3_eval,
    k3_ode_residual,
    k4_bad_event,
    k4_centers,
    k4_envelope,
    k4_envelope_f,
    k4_eval,
    k4_ode_residual,
)


def test_k3_initial_conditions():
    q, x, y = k3_eval(0.0)
    assert (q, x, y) == (0.5, 1.0, 0.0)


def test_k3_eval_values():
    q, x, y = k3_eval(0.5)
    assert q == pytest.approx(math.exp(-1.0) / 2, rel=1e-15)
    assert x == pytest.approx(math.exp(-2.0), rel=1e-15)
    assert y == pytest.approx(2.0 * math.exp(-1.0), rel=1e-15)
    with pytest.raises(ValueError):
        k3_eval(-0.1)


def test_k3_y_peak():
    t_star = 1.0 / (2.0 * math.sqrt(2.0))
    y_star = k3_eval(t_star)[2]
    assert y_star == pytest.approx(math.sqrt(2.0) * math.exp(-0.5), rel=1e-12)
    assert y_star == pytest.approx(0.857763, abs=1e-6)
    grid = np.linspace(0.0, 2.0, 4001)
    ys = [k3_eval(t)[2] for t in grid]
    assert abs(grid[int(np.argmax(ys))] - t_star) < 1e-3


def test_k3_residual_grid():
    for t in np.linspace(0.01, 3.0, 300):
        r_q, r_x, r_y = k3_ode_residual(float(t))
        assert abs(r_q) < 1e-10 and abs(r_x) < 1e-10 and abs(r_y) < 1e-10


def test_k3_finite_difference_matches_ode():
    t, h = 0.3, 1e-5
    q, x, y = k3_eval(t)
    qp, xp, yp = k3_eval(t + h)
    qm, xm, ym = k3_eval(t - h)
    assert (qp - qm) / (2 * h) == pytest.approx(-y, abs=1e-8)
    assert (xp - xm) / (2 * h) == pytest.approx(-2 * x * y / q, abs=1e-8)
    assert (yp - ym) / (2 * h) == pytest.approx(-y * y / q + 2 * x / q, abs=1e-8)


def test_k3_envelope_at_zero():
    assert k3_envelope_f(0.0) == (1.0, 1.0, 1.0)
    g = k3_envelope(0.0, 64)
    assert g == pytest.approx((64 ** (-1 / 6),) * 3, rel=1e-12)


def test_k3_envelope_identities():
    for t in (0.1, 0.5, 1.0, 2.0):
        for n in (100, 10000):
            g_q, g_x, g_y = k3_envelope(t, n)
            assert g_x == pytest.approx(math.exp(-4 * t * t) * g_y, rel=1e-12)
            if t > 0:
                assert t * g_q <= g_y * (1 + 1e-12)


def test_k3_envelope_piecewise():
    f_q, _, _ = k3_envelope_f(1.0)
    assert f_q == pytest.approx(math.exp(81.0), rel=1e-12)
    f_q2, _, _ = k3_envelope_f(2.0)
    assert f_q2 == pytest.approx(math.exp(41 * 4 + 80) / 2.0, rel=1e-12)
    with pytest.raises(ValueError):
        k3_envelope(-1.0, 100)
    with pytest.raises(ValueError):
        k3_envelope(0.5, 1)


def test_k4_initial_conditions():
    q, xs, ys = k4_eval(0.0)
    assert q == 0.5
    assert xs == [0.5, 0.0, 0.0, 0.0, 0.0]
    assert ys == [1.0, 0.0, 0.0]


def test_k4_x4_closed_form():
    for t in (0.1, 0.3, 0.7):
        _, xs, _ = k4_eval(t)
        assert xs[4] == pytest.approx(40.0 * t ** 4 * math.exp(-16 * t ** 5),
                                      rel=1e-12)
    # peak of x_4 at t = (1/20)^{1/5}
    t_star = (1.0 / 20.0) ** 0.2
    grid = np.linspace(0.01, 1.5, 3000)
    vals = [k4_eval(float(t))[1][4] for t in grid]
    assert abs(grid[int(np.argmax(vals))] - t_star) < 1e-3


def test_k4_residual_grid():
    for t in np.linspace(0.01, 3.0, 300):
        r_q, rx, ry = k4_ode_residual(float(t))
        assert abs(r_q) < 1e-10
        assert all(abs(r) < 1e-10 for r in rx)
        assert all(abs(r) < 1e-10 for r in ry)


def test_k4_envelope_shapes():
    f_q, ff, hf = k4_envelope_f(0.5)
    assert f_q > 0 and len(ff) == 5 and len(hf) == 3
    band_q, bx, by = k4_envelope(0.5, 400)
    assert band_q == pytest.approx(f_q * 400 ** (29 / 15), rel=1e-12)
    assert bx[0] == pytest.approx(ff[0] * 400 ** (2 - 1 / 15), rel=1e-12)
    assert by[2] == pytest.approx(hf[2] * 400 ** (1 - 4 / 5 - 1 / 15), rel=1e-12)


def test_k4_envelope_piecewise():
    p1 = sum(DEFAULT_P_COEFFS)
    f_q, _, _ = k4_envelope_f(1.0)
    assert f_q == pytest.approx(math.exp(p1), rel=1e-12)


# ------------------------------------------------------------- bad events

def test_k3_bad_event_step_zero():
    n = 100
    rep = k3_bad_event(n, 0, n * (n - 1) // 2 - 0, [0], [n - 2], [0], [0])
    # Q at step 0 is C(n,2) = 4950, center 0.5 n^2 = 5000; deviation 50
    # well inside g_q n^2 = n^{11/6}
    assert rep == []


def test_k3_bad_event_q_violation():
    # band is g_q n^{-1/6} n^2; needs astronomically large n to bite
    n = 10 ** 15
    i = int(0.1 * n ** 1.5)
    rep = k3_bad_event(n, i, 0)
    assert len(rep) == 1
    assert rep[0].name == "Q"
    assert rep[0].observed == 0


def test_k3_bad_event_z_cap():
    n = 1000
    q, _, _ = k3_eval(0.0)
    zbig = int(math.log(n) ** 2) + 1
    rep = k3_bad_event(n, 0, n * (n - 1) // 2, ["p"], [n - 2], [0], [zbig])
    assert any(v.name.startswith("Z") for v in rep)


def test_k3_bad_event_matches_scalar_reference():
    rng = np.random.default_rng(2024)
    for n, i in [(60, 0), (60, 150), (200, 1400), (2000, 50_000)]:
        t = i / n ** 1.5
        _, x, y = k3_eval(t)
        _, g_x, g_y = k3_envelope(t, n)
        sq = math.sqrt(n)
        zcap = math.log(n) ** 2
        # the band edges themselves and their float neighbours, and
        # z == (ln n)^2 as a float count
        edges = []
        for c, g in ((x * n, g_x * n), (y * sq, g_y * sq)):
            for e in (c - g, c + g):
                edges += [e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf)]
        rows = [(("e", k), float(e), float(e), zcap) for k, e in enumerate(edges)]
        rows += [("z-", 0, 0, float(np.nextafter(zcap, 0))),
                 ("z=", 0, 0, zcap), ("z+", 0, 0, math.ceil(zcap))]
        # integer counts around the centers, some inside and some outside
        k = 300
        xs = rng.integers(0, n, k).tolist()
        ys = rng.integers(0, max(2, int(3 * (y + g_y) * sq)), k).tolist()
        zs = rng.integers(0, int(2 * zcap) + 2, k).tolist()
        rows += list(zip(range(k), xs, ys, zs))
        rng.shuffle(rows)
        q_count = int(rng.integers(0, n * (n - 1) // 2 + 1))
        labels, *counts = zip(*rows)
        fast = k3_bad_event(n, i, q_count, labels, *counts)
        ref = k3_bad_event_scalar(n, i, q_count, rows)
        assert fast == ref
        assert len(ref) > 10
        # integer count arrays report Python ints
        ints = k3_bad_event(n, i, q_count, np.arange(k), *map(np.array, (xs, ys, zs)))
        assert ints and all(type(v.observed) is int for v in ints)
        # edge rows in both flagged and unflagged states
        names = {v.name for v in ref}
        assert any(name.startswith("X ('e'") for name in names)
        assert "Z z=" in names and "Z z-" not in names
    assert k3_bad_event(60, 0, 1770) == k3_bad_event_scalar(60, 0, 1770)


def test_k4_bad_event_step_zero():
    n = 400
    rep = k4_bad_event(n, 0, n * (n - 1) // 2, [(0, 1)], [[(n - 2) * (n - 3) // 2, 0, 0, 0, 0]],
                       [(0, 1, 2)], [[n - 3, 0, 0, 0]])
    assert rep == []


def test_k4_bad_event_y3():
    n = 400
    rep = k4_bad_event(n, 0, n * (n - 1) // 2, triples=[(0, 1, 2)], y=[[n - 3, 0, 0, 16]])
    assert [v.name for v in rep] == ["Y3 0-1-2"]
    assert (rep[0].center, rep[0].allowed) == (0.0, 15.0)


def test_k4_y_band_one_sided():
    # Y counts far below center must not be flagged
    n = 400
    i = int(0.2 * n ** 1.6)
    rep = k4_bad_event(n, i, _q_count(n, i), triples=[(0, 1, 2)], y=[[0, 0, 0, 0]])
    assert not any(v.name.startswith("Y0") for v in rep)


def _q_count(n, i):
    t = i / n ** 1.6
    return int(k4_eval(t)[0] * n * n)


def test_k4_bad_event_matches_scalar_reference():
    # forced violations of every column, at the band edges and their float
    # neighbours, among random counts: the array scan reports what one test
    # per count reports, in the same order and with the same types
    rng = np.random.default_rng(419)
    for n, i in [(40, 0), (60, 300), (400, 3000), (400, 10_000), (3200, 200_000)]:
        t, q_center, x_centers, y_centers = k4_centers(n, i)
        band_q, bands_x, bands_y = k4_envelope(t, n)
        x_edges = [e for c, g in zip(x_centers, bands_x) for e in (c - g, c + g)]
        y_edges = [c + g for c, g in zip(y_centers, bands_y)] + [15.0]
        x_rows, y_rows = [], []
        for f, e in enumerate(x_edges):
            for v in (math.floor(e), math.ceil(e), math.ceil(e) + 1):
                row = rng.integers(0, n * n // 2, 5).tolist()
                row[f // 2] = max(v, 0)
                x_rows.append(row)
        for f, e in enumerate(y_edges):
            for v in (math.floor(e), math.ceil(e), math.ceil(e) + 1):
                row = rng.integers(0, n, 4).tolist()
                row[f] = max(v, 0)
                y_rows.append(row)
        x_rows += rng.integers(0, n * n // 2, (100, 5)).tolist()
        y_rows += rng.integers(0, 20, (100, 4)).tolist()
        rng.shuffle(x_rows)
        rng.shuffle(y_rows)
        pairs = np.sort(rng.integers(0, n, (len(x_rows), 2)), axis=1)
        triples = np.sort(rng.integers(0, n, (len(y_rows), 3)), axis=1)
        for q_count in (int(q_center), int(q_center + band_q) + 1):
            fast = k4_bad_event(n, i, q_count, pairs, np.array(x_rows), triples, np.array(y_rows))
            ref = k4_bad_event_scalar(
                n, i, q_count,
                [("%d-%d" % tuple(A), c) for A, c in zip(pairs.tolist(), x_rows)],
                [("%d-%d-%d" % tuple(A), c) for A, c in zip(triples.tolist(), y_rows)])
            assert fast == ref
            assert [type(v.observed) for v in fast] == [type(v.observed) for v in ref]
            assert [type(v.center) for v in fast] == [type(v.center) for v in ref]
            names = {v.name.split()[0] for v in ref}
            assert names >= {"X%d" % f for f in range(5)} | {"Y%d" % f for f in range(4)}
            assert ("Q" in names) == (q_count > q_center)
        # float counts at the band edges themselves and their float neighbours
        xf, yf = ([[float(v)] * w for e in edges
                   for v in (np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf))]
                  for edges, w in ((x_edges, 5), (y_edges, 4)))
        fast = k4_bad_event(n, i, 0, pairs[:len(xf)], xf, triples[:len(yf)], yf)
        ref = k4_bad_event_scalar(
            n, i, 0, [("%d-%d" % tuple(A), c) for A, c in zip(pairs.tolist(), xf)],
            [("%d-%d-%d" % tuple(A), c) for A, c in zip(triples.tolist(), yf)])
        assert fast == ref and len(ref) > len(xf)
    assert k4_bad_event(60, 0, 1770) == k4_bad_event_scalar(60, 0, 1770) == []
