"""Closed-form trajectories, error envelopes, and deviation detectors.

Scaled time is t = i / n^{3/2} for the triangle-free process and
t = i / n^{8/5} for the K4-free process.  All logarithms are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


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

def k4_eval(t: float):
    """(q, [x_0..x_4], [y_0..y_2]) at scaled time t."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    t5 = t ** 5
    q = 0.5 * math.exp(-16.0 * t5)
    xs = [2.0 ** (f - 1) * math.comb(5, f) * t ** f * math.exp(-16.0 * (5 - f) * t5)
          for f in range(5)]
    ys = [2.0 ** f * math.comb(3, f) * t ** f * math.exp(-16.0 * (3 - f) * t5)
          for f in range(3)]
    return q, xs, ys


def k4_ode_residual(t: float):
    """Residuals of the eight-equation K4 system:
    dq/dt = -x_4,  dx_0/dt = -5 x_0 x_4 / q,
    dx_f/dt = (6-f) x_{f-1}/q - (5-f) x_f x_4 / q,
    dy_0/dt = -3 y_0 x_4 / q,
    dy_f/dt = (4-f) y_{f-1}/q - (3-f) y_f x_4 / q."""
    q, xs, ys = k4_eval(t)
    t5 = t ** 5
    dt5 = 80.0 * t ** 4  # d(16 t^5)/dt
    dq = 0.5 * (-dt5) * math.exp(-16.0 * t5)
    # d/dt [c t^f e^{-16(5-f)t^5}] = c (f t^{f-1} - 80(5-f) t^{f+4}) e^{...}
    dxs = []
    for f in range(5):
        c = 2.0 ** (f - 1) * math.comb(5, f)
        expo = math.exp(-16.0 * (5 - f) * t5)
        if f == 0:
            dxs.append(c * (-80.0 * 5 * t ** 4) * expo)
        else:
            dxs.append(c * (f * t ** (f - 1) - 80.0 * (5 - f) * t ** (f + 4)) * expo)
    dys = []
    for f in range(3):
        c = 2.0 ** f * math.comb(3, f)
        expo = math.exp(-16.0 * (3 - f) * t5)
        if f == 0:
            dys.append(c * (-80.0 * 3 * t ** 4) * expo)
        else:
            dys.append(c * (f * t ** (f - 1) - 80.0 * (3 - f) * t ** (f + 4)) * expo)
    x4 = xs[4]
    r_q = dq + x4
    # divisions by q are carried out analytically (x4/q = 80 t^4, and
    # x_{f-1}/q = 2 x_{f-1} e^{16 t^5}) so the residuals stay finite where
    # e^{-16 t^5} underflows
    x4_over_q = 80.0 * t ** 4

    def x_over_q(f):
        c = 2.0 ** (f - 1) * math.comb(5, f)
        return 2.0 * c * t ** f * math.exp(-16.0 * (4 - f) * t5)

    def y_over_q(f):
        c = 2.0 ** f * math.comb(3, f)
        return 2.0 * c * t ** f * math.exp(-16.0 * (2 - f) * t5)

    rx = [dxs[0] + 5.0 * xs[0] * x4_over_q]
    for f in range(1, 5):
        rx.append(dxs[f] - (6 - f) * x_over_q(f - 1) + (5 - f) * xs[f] * x4_over_q)
    ry = [dys[0] + 3.0 * ys[0] * x4_over_q]
    for f in range(1, 3):
        ry.append(dys[f] - (4 - f) * y_over_q(f - 1) + (3 - f) * ys[f] * x4_over_q)
    return r_q, rx, ry


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


def _k3_pair_bands(n: int, t: float):
    """Centers and allowed deviations of X, Y and Z for one pair at time t."""
    _, x, y = k3_eval(t)
    _, g_x, g_y = k3_envelope(t, n)
    sq = math.sqrt(n)
    return (x * n, y * sq, 0.0), (g_x * n, g_y * sq, math.log(n) ** 2)


def k3_pair_flags(n: int, i: int, xs, ys, zs) -> np.ndarray:
    """(k, 3) boolean mask of the pair-count deviations k3_bad_event reports:
    columns X, Y, Z, flagged by abs(float(c) - center) >= band for X and Y
    and float(z) >= (ln n)^2 for Z, elementwise in float64."""
    centers, bands = _k3_pair_bands(n, i / n ** 1.5)
    c = np.stack([np.asarray(v, dtype=np.float64) for v in (xs, ys, zs)], axis=1)
    flags = np.abs(c - centers) >= bands
    flags[:, 2] = c[:, 2] >= bands[2]
    return flags


def k3_bad_event(n: int, i: int, q_count: int, labels=(), xs=(), ys=(),
                 zs=()) -> BadEventReport:
    """Check a snapshot against the deviation bands: |Q - q n^2| >= g_q n^2,
    |X| outside x n +- g_x n, |Y| outside y sqrt(n) +- g_y sqrt(n),
    |Z| >= (ln n)^2.  labels, xs, ys and zs hold one entry per tracked pair;
    violations come in that order, X, Y, Z within a pair."""
    t = i / n ** 1.5
    q, _, _ = k3_eval(t)
    g_q, _, _ = k3_envelope(t, n)
    rep = BadEventReport(step=i)
    if abs(q_count - q * n * n) >= g_q * n * n:
        rep.violations.append(Violation("Q", q_count, q * n * n, g_q * n * n))
    counts = (xs, ys, zs)
    centers, bands = _k3_pair_bands(n, t)
    for p, k in zip(*(a.tolist() for a in np.nonzero(k3_pair_flags(n, i, *counts)))):
        # .item() makes a numpy count a Python number
        rep.violations.append(Violation("%s %s" % ("XYZ"[k], labels[p]),
                                        np.asarray(counts[k][p]).item(),
                                        centers[k], bands[k]))
    return rep


def k4_bad_event(n: int, i: int, q_count: int, pair_counts=(), triple_counts=(),
                 p_coeffs=DEFAULT_P_COEFFS) -> BadEventReport:
    """K4 analogue.  pair_counts yields (label, [5 counts]); triple_counts
    yields (label, [4 counts]).  The Y bands are one-sided and |Y_{A,3}| > 15
    is flagged outright."""
    t = i / n ** 1.6
    q, xs, ys = k4_eval(t)
    band_q, bands_x, bands_y = k4_envelope(t, n, p_coeffs)
    rep = BadEventReport(step=i)
    if abs(q_count - q * n * n) >= band_q:
        rep.violations.append(Violation("Q", q_count, q * n * n, band_q))
    for label, counts in pair_counts:
        for f in range(5):
            center = xs[f] * n ** (2.0 - 2.0 * f / 5.0)
            if abs(counts[f] - center) >= bands_x[f]:
                rep.violations.append(
                    Violation("X%d %s" % (f, label), counts[f], center, bands_x[f]))
    for label, counts in triple_counts:
        for f in range(3):
            center = ys[f] * n ** (1.0 - 2.0 * f / 5.0)
            if counts[f] > center + bands_y[f]:
                rep.violations.append(
                    Violation("Y%d %s" % (f, label), counts[f], center, bands_y[f]))
        if counts[3] > 15:
            rep.violations.append(Violation("Y3 %s" % (label,), counts[3], 0.0, 15.0))
    return rep
