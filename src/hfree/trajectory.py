"""Closed-form trajectories, error envelopes, and deviation detectors.

Scaled time is t = i / n^{3/2} for the triangle-free process and
t = i / n^{8/5} for the K4-free process (`time_scale`).  `k3_centers` and
`k4_centers` put the closed forms on the scale of the counts; the snapshot
records and the deviation scans both read them.  All logarithms are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .process import K3, K4


def time_scale(rule: int, n: int) -> float:
    """The steps per unit of scaled time: n^{3/2} (K3) or n^{8/5} (K4)."""
    return n ** 1.5 if rule == K3 else n ** 1.6


# ------------------------------------------------------------------ K3 forms

def k3_eval(t: float):
    """(q, x, y) at scaled time t: q = e^{-4t^2}/2, x = e^{-8t^2},
    y = 4t e^{-4t^2}."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    e4 = math.exp(-4.0 * t * t)
    return 0.5 * e4, e4 * e4, 4.0 * t * e4


def k3_ode_residual(t: float):
    """Residuals of  dq/dt = -y,  dx/dt = -2xy/q,  dy/dt = -y^2/q + 2x/q
    with the closed forms differentiated analytically.  Floating noise only."""
    q, x, y = k3_eval(t)
    e4 = math.exp(-4.0 * t * t)
    dq = -8.0 * t * 0.5 * e4
    dx = -16.0 * t * e4 * e4
    dy = (4.0 - 32.0 * t * t) * e4
    r_q = dq + y
    r_x = dx + 2.0 * x * y / q
    r_y = dy + y * y / q - 2.0 * x / q
    return r_q, r_x, r_y


def k3_envelope_f(t: float):
    """Raw error functions (f_q, f_x, f_y); f_q is piecewise at t = 1 and we
    take the t <= 1 branch at the seam."""
    base = math.exp(41.0 * t * t + 40.0 * t)
    f_q = base if t <= 1.0 else base / t
    f_x = math.exp(37.0 * t * t + 40.0 * t)
    return f_q, f_x, base


def k3_envelope(t: float, n: int):
    """(g_q, g_x, g_y) = f_* (t) * n^{-1/6}."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if n < 2:
        raise ValueError("n must be at least 2")
    scale = n ** (-1.0 / 6.0)
    f_q, f_x, f_y = k3_envelope_f(t)
    return f_q * scale, f_x * scale, f_y * scale


# ------------------------------------------------------------------ K4 forms

# (m, s) of the families x_f (f < 5) and y_f (f < 3)
_K4_FAMILIES = ((5, -1), (3, 0))


def _k4_term(f: int, m: int, s: int, k: int, t: float) -> float:
    """c_f t^f e^{-16 k t^5} with c_f = 2^{f+s} C(m,f); at k = m - f, member
    f of the family (m, s)."""
    return 2.0 ** (f + s) * math.comb(m, f) * t ** f * math.exp(-16.0 * k * t ** 5)


def k4_eval(t: float):
    """(q, [x_0..x_4], [y_0..y_2]) at scaled time t."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    xs, ys = ([_k4_term(f, m, s, m - f, t) for f in range(m)] for m, s in _K4_FAMILIES)
    return 0.5 * math.exp(-16.0 * t ** 5), xs, ys


def k4_ode_residual(t: float):
    """Residuals of the eight-equation K4 system:
    dq/dt = -x_4,  dx_0/dt = -5 x_0 x_4 / q,
    dx_f/dt = (6-f) x_{f-1}/q - (5-f) x_f x_4 / q,
    dy_0/dt = -3 y_0 x_4 / q,
    dy_f/dt = (4-f) y_{f-1}/q - (3-f) y_f x_4 / q."""
    _, xs, ys = k4_eval(t)
    r_q = 0.5 * (-80.0 * t ** 4) * math.exp(-16.0 * t ** 5) + xs[4]
    # divisions by q are carried out analytically (x_4/q = 80 t^4 and
    # z_{f-1}/q = 2 c_{f-1} t^{f-1} e^{-16(m-f)t^5}) so the residuals stay
    # finite where e^{-16 t^5} underflows
    x4_over_q = 80.0 * t ** 4
    res = ([], [])
    for r, zs, (m, s) in zip(res, (xs, ys), _K4_FAMILIES):
        for f, z in enumerate(zs):
            # d/dt [c_f t^f e^{-16(m-f)t^5}] = f c_f t^{f-1} e^{...} - 80(m-f) t^4 z_f,
            # with f c_f = m 2^{f+s} C(m-1, f-1)
            dz = -80.0 * (m - f) * t ** 4 * z
            rhs = -(m - f) * z * x4_over_q
            if f:
                dz += m * _k4_term(f - 1, m - 1, s + 1, m - f, t)
                rhs += (m + 1 - f) * _k4_term(f - 1, m, s + 1, m - f, t)
            r.append(dz - rhs)
    return (r_q, *res)


# The paper leaves p(t) unspecified beyond degree 5 with positive
# coefficients; this default mirrors the magnitude of the K3 exponents and is
# configurable everywhere it is used.
DEFAULT_P_COEFFS = (1.0, 40.0, 41.0, 41.0, 41.0, 41.0)


def _poly(coeffs, t):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def k4_envelope_f(t: float, p_coeffs=DEFAULT_P_COEFFS):
    """Raw K4 error functions (f_q, [f_0..f_4], [h_0..h_2]); the f_q piece
    divides by t^4 past t = 1, with the t <= 1 branch at the seam."""
    if len(p_coeffs) != 6 or any(c < 0 for c in p_coeffs):
        raise ValueError("p(t) needs six nonnegative coefficients")
    p = _poly(p_coeffs, t)
    t5 = t ** 5
    f_q = math.exp(p) if t <= 1.0 else math.exp(p) / t ** 4
    ff = [math.exp(p - 16.0 * (4 - f) * t5) for f in range(5)]
    hf = [math.exp(p - 16.0 * (2 - f) * t5) for f in range(3)]
    return f_q, ff, hf


def k4_envelope(t: float, n: int, p_coeffs=DEFAULT_P_COEFFS):
    """Absolute allowed deviations for the K4 tracked variables:
    (band_q, [band_{x_f}], [band_{y_f}]) with band_q = f_q n^{29/15},
    band_{x_f} = f_f n^{2 - 2f/5 - 1/15}, band_{y_f} = h_f n^{1 - 2f/5 - 1/15}."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if n < 2:
        raise ValueError("n must be at least 2")
    f_q, ff, hf = k4_envelope_f(t, p_coeffs)
    band_q = f_q * n ** (29.0 / 15.0)
    bands_x = [ff[f] * n ** (2.0 - 2.0 * f / 5.0 - 1.0 / 15.0) for f in range(5)]
    bands_y = [hf[f] * n ** (1.0 - 2.0 * f / 5.0 - 1.0 / 15.0) for f in range(3)]
    return band_q, bands_x, bands_y


# ----------------------------------------------------- centers on count scale

def k3_centers(n: int, i: int):
    """(t, centers, bands) at step i: t = i / n^{3/2}, the centers of the
    counts (Q, X, Y, Z) = (q n^2, x n, y sqrt(n), 0) and their allowed
    deviations (g_q n^2, g_x n, g_y sqrt(n), (ln n)^2)."""
    t = i / time_scale(K3, n)
    q, x, y = k3_eval(t)
    g_q, g_x, g_y = k3_envelope(t, n)
    sq = math.sqrt(n)
    return (t, (q * n * n, x * n, y * sq, 0.0),
            (g_q * n * n, g_x * n, g_y * sq, math.log(n) ** 2))


def k4_centers(n: int, i: int):
    """(t, Q, [X_0..X_4], [Y_0..Y_2]) at step i: t = i / n^{8/5} and the
    centers q n^2, x_f n^{2-2f/5} and y_f n^{1-2f/5} of the counts."""
    t = i / time_scale(K4, n)
    q, xs, ys = k4_eval(t)
    return (t, q * n * n, [xs[f] * n ** (2.0 - 0.4 * f) for f in range(5)],
            [ys[f] * n ** (1.0 - 0.4 * f) for f in range(3)])


# ------------------------------------------------------------ deviation scan

@dataclass
class Violation:
    name: str
    observed: float
    center: float
    allowed: float


@dataclass
class BadEventReport:
    step: int
    violations: list = field(default_factory=list)

    def __bool__(self):
        return bool(self.violations)


def k3_pair_flags(n: int, i: int, xs, ys, zs) -> np.ndarray:
    """(k, 3) boolean mask of the pair-count deviations k3_bad_event reports:
    columns X, Y, Z, flagged by abs(float(c) - center) >= band, elementwise
    in float64; for a count z >= 0 the Z test is z >= (ln n)^2."""
    _, centers, bands = k3_centers(n, i)
    c = np.stack([np.asarray(v, dtype=np.float64) for v in (xs, ys, zs)], axis=1)
    return np.abs(c - centers[1:]) >= bands[1:]


def k3_bad_event(n: int, i: int, q_count: int, labels=(), xs=(), ys=(),
                 zs=()) -> BadEventReport:
    """Check a snapshot against the deviation bands: |Q - q n^2| >= g_q n^2,
    |X| outside x n +- g_x n, |Y| outside y sqrt(n) +- g_y sqrt(n),
    |Z| >= (ln n)^2.  labels, xs, ys and zs hold one entry per tracked pair;
    violations come in that order, X, Y, Z within a pair."""
    _, centers, bands = k3_centers(n, i)
    rep = BadEventReport(step=i)
    if abs(q_count - centers[0]) >= bands[0]:
        rep.violations.append(Violation("Q", q_count, centers[0], bands[0]))
    counts = (xs, ys, zs)
    for p, k in zip(*(a.tolist() for a in np.nonzero(k3_pair_flags(n, i, *counts)))):
        # .item() makes a numpy count a Python number
        rep.violations.append(Violation("%s %s" % ("XYZ"[k], labels[p]),
                                        np.asarray(counts[k][p]).item(),
                                        centers[k + 1], bands[k + 1]))
    return rep


def k4_bad_event(n: int, i: int, q_count: int, pair_counts=(), triple_counts=(),
                 p_coeffs=DEFAULT_P_COEFFS) -> BadEventReport:
    """K4 analogue.  pair_counts yields (label, [5 counts]); triple_counts
    yields (label, [4 counts]).  The Y bands are one-sided and |Y_{A,3}| > 15
    is flagged outright."""
    t, q_center, x_centers, y_centers = k4_centers(n, i)
    band_q, bands_x, bands_y = k4_envelope(t, n, p_coeffs)
    rep = BadEventReport(step=i)
    if abs(q_count - q_center) >= band_q:
        rep.violations.append(Violation("Q", q_count, q_center, band_q))
    for label, counts in pair_counts:
        for f in range(5):
            if abs(counts[f] - x_centers[f]) >= bands_x[f]:
                rep.violations.append(
                    Violation("X%d %s" % (f, label), counts[f], x_centers[f], bands_x[f]))
    for label, counts in triple_counts:
        for f in range(3):
            if counts[f] > y_centers[f] + bands_y[f]:
                rep.violations.append(
                    Violation("Y%d %s" % (f, label), counts[f], y_centers[f], bands_y[f]))
        if counts[3] > 15:
            rep.violations.append(Violation("Y3 %s" % (label,), counts[3], 0.0, 15.0))
    return rep
