"""Hoeffding-style tail bounds for bounded sub/supermartingales.

A sequence A_0, A_1, ... is (eta, N)-bounded when every increment lies in
[-eta, N].  The two lemma-level bounds share the form exp(-a^2 / (3 eta m N));
the proofs behind them give strictly sharper constants, and both versions are
returned so callers can quote either.  A vectorized simulator of bounded
i.i.d.-increment walks serves as the empirical validator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# walks simulated per batch: bounds the (batch, m) index array of the
# simulator at CHUNK * m int64 entries
CHUNK = 20000


@dataclass(frozen=True)
class MartingaleSpec:
    """Parameters for a tail evaluation: per-step bounds eta (down) and
    big_n (up), step count m, deviation threshold a."""
    eta: float
    big_n: float
    m: int
    a: float

    def __post_init__(self):
        if not (self.eta > 0 and self.big_n > 0 and self.m > 0 and self.a > 0):
            raise ValueError("eta, N, m, a must all be positive")


class TailBounds(NamedTuple):
    lemma: float
    sharp: float


def g_func(x: float, v: float) -> float:
    """g(x, v) = (v + xv) ln(v/(v+xv)) + (vbar - xv) ln(vbar/(vbar - xv)),
    vbar = 1 - v.  Strictly concave in x with g(0) = g'(0) = 0."""
    if not 0.0 < v < 0.5:
        raise ValueError("v must lie in (0, 1/2)")
    vbar = 1.0 - v
    lo = v + x * v
    hi = vbar - x * v
    if lo < 0.0 or hi <= 0.0:
        raise ValueError("x=%g outside the domain for v=%g" % (x, v))
    if x == 0.0:
        return 0.0
    # lo == 0 (x = -1): the lo*log(v/lo) term vanishes in the limit
    first = 0.0 if lo == 0.0 else lo * math.log(v / lo)
    return first + hi * math.log(vbar / hi)


def hoeffding_tail(mu: float, t: float, m: int) -> float:
    """Hoeffding's supermartingale tail bound
    ([mu/(mu+t)]^{mu+t} [mubar/(mubar-t)]^{mubar-t})^m for increments in
    [-mu, 1-mu].  Identically exp(m * g(t/mu, mu))."""
    if not 0.0 < mu < 1.0:
        raise ValueError("mu must lie in (0, 1)")
    if not 0.0 < t < 1.0 - mu:
        raise ValueError("t must lie in (0, 1 - mu)")
    if m < 1:
        raise ValueError("m must be positive")
    mubar = 1.0 - mu
    per_step = (mu / (mu + t)) ** (mu + t) * (mubar / (mubar - t)) ** (mubar - t)
    return per_step ** m


def submartingale_tail(spec: MartingaleSpec) -> TailBounds:
    """Bounds on Pr[A_m <= -a] for an (eta, N)-bounded submartingale.
    Needs eta <= N/2 and a < eta m."""
    eta, N, m, a = spec.eta, spec.big_n, spec.m, spec.a
    if eta > N / 2.0:
        raise ValueError("lemma requires eta <= N/2")
    if a >= eta * m:
        raise ValueError("lemma requires a < eta m")
    lemma = math.exp(-a * a / (3.0 * eta * m * N))
    sharp = math.exp(-a * a / (2.0 * m * eta * (N + eta)))
    return TailBounds(lemma, sharp)


def supermartingale_tail(spec: MartingaleSpec) -> TailBounds:
    """Bounds on Pr[A_m >= a] for an (eta, N)-bounded supermartingale.
    Needs eta <= N/10 and a < eta m."""
    eta, N, m, a = spec.eta, spec.big_n, spec.m, spec.a
    if eta > N / 10.0:
        raise ValueError("lemma requires eta <= N/10")
    if a >= eta * m:
        raise ValueError("lemma requires a < eta m")
    lemma = math.exp(-a * a / (3.0 * eta * m * N))
    sharp = math.exp(-(11.0 / 30.0) * a * a / (m * eta * (N + eta)))
    return TailBounds(lemma, sharp)


def simulate_bounded_martingale(spec: MartingaleSpec, values, probs, trials: int,
                                rng, side: str = "upper") -> float:
    """Empirical tail frequency of an i.i.d.-increment walk.

    values/probs give a discrete increment law with support inside
    [-eta, N]; side "upper" counts A_m >= a (supermartingale direction, mean
    must be <= 0), side "lower" counts A_m <= -a (submartingale direction,
    mean must be >= 0).
    """
    values = np.asarray(values, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if values.shape != probs.shape or values.ndim != 1:
        raise ValueError("values and probs must be matching 1-d arrays")
    if np.any(probs < 0) or not math.isclose(float(probs.sum()), 1.0, rel_tol=1e-9):
        raise ValueError("probs must be a distribution")
    tol = 1e-12
    if values.min() < -spec.eta - tol or values.max() > spec.big_n + tol:
        raise ValueError("increment support must lie in [-eta, N]")
    mean = float(values @ probs)
    if side == "upper":
        if mean > tol:
            raise ValueError("supermartingale validation needs mean <= 0")
    elif side == "lower":
        if mean < -tol:
            raise ValueError("submartingale validation needs mean >= 0")
    else:
        raise ValueError("side must be 'upper' or 'lower'")
    hits = 0
    for done in range(0, trials, CHUNK):
        batch = min(CHUNK, trials - done)
        idx = rng.choice(len(values), size=(batch, spec.m), p=probs)
        sums = values[idx].sum(axis=1)
        if side == "upper":
            hits += int(np.count_nonzero(sums >= spec.a))
        else:
            hits += int(np.count_nonzero(sums <= -spec.a))
    return hits / trials
