"""Per-pair open/partial/complete vertex counts for the triangle-free process.

For a non-edge pair {u,v} a third vertex w is *open* if both {u,w} and {v,w}
are open, *partial* if exactly one of them is an edge and the other is open,
and *complete* if both are edges.  The counts |X_{u,v}|, |Y_{u,v}|,
|Z_{u,v}| are computed three ways:

- `oracle_counts_matrix`: every pair at once, as matrix products of the
  status matrix.  The harness's full mode recounts every non-edge pair this
  way at each snapshot.
- `sampled_counts`: a fixed witness family, from two rows of the status
  matrix per pair (the harness's sampled mode).
- `PairLedger`: n x n count matrices maintained step by step, with the exact
  conditional-expectation identities of the one-step changes as rationals.
  It is the audit of those identities and of the recounts above (acceptance
  criteria 1, 2 and 4, the pair-ledger demo); no experiment run uses it.

The ledger and the oracles address a pair by (u, v) in the status matrix S,
`sampled_counts` by its code u*n+v.  Ledger counts freeze the moment a pair
becomes an edge.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .process import CLOSED, EDGE, OPEN, ProcessState

# the two values of the harness's ledger_mode; a PairLedger is always full
FULL = "full"
SAMPLED = "sampled"

# classes used internally
_X, _Y, _Z, _NONE = 0, 1, 2, 3

# _CLASS[s1, s2]: one-hot (x, y, z) class of a vertex whose pairs to the two
# ends of a pair have statuses s1 and s2; all zero for CLOSED and NO_PAIR
_CLASS = np.zeros((4, 4, 3), dtype=np.int32)
_CLASS[OPEN, OPEN, _X] = 1
_CLASS[OPEN, EDGE, _Y] = _CLASS[EDGE, OPEN, _Y] = 1
_CLASS[EDGE, EDGE, _Z] = 1
# _MOVE[s_new][:, s2]: change of that class when s1 goes from OPEN to s_new
_MOVE = (_CLASS - _CLASS[OPEN]).transpose(0, 2, 1)
# 1 where a pair's counts still move: OPEN or CLOSED, not EDGE or NO_PAIR
_LIVE = np.array([1, 0, 1, 0], dtype=np.int32)


class PairCounts(NamedTuple):
    x: int
    y: int
    z: int


def _classify(s1: int, s2: int) -> int:
    if s1 == OPEN:
        if s2 == OPEN:
            return _X
        if s2 == EDGE:
            return _Y
    elif s1 == EDGE:
        if s2 == OPEN:
            return _Y
        if s2 == EDGE:
            return _Z
    return _NONE


class PairLedger:
    """Incrementally maintained PairCounts for every pair: x, y and z are
    symmetric n x n int32 matrices, zero on the diagonal."""

    def __init__(self, state: ProcessState, mode: str = FULL):
        if state.steps != 0:
            raise ValueError("ledger must be initialized on a fresh state")
        if mode != FULL:
            raise ValueError("unknown ledger mode %r (a PairLedger is full mode only)"
                             % (mode,))
        n = self.n = state.n
        self.q = state.npairs
        self.applied = 0
        self._xyz = np.zeros((3, n, n), dtype=np.int32)
        self.x, self.y, self.z = self._xyz
        self.x[:] = n - 2
        np.fill_diagonal(self.x, 0)
        # statuses as replayed so far; equals state.S between steps
        self._s = state.S.copy()

    def counts(self, u: int, v: int) -> PairCounts:
        return PairCounts(int(self.x[u, v]), int(self.y[u, v]), int(self.z[u, v]))

    def apply_edge(self, outcome, state: ProcessState):
        """Fold the most recent step into the ledger.

        The step's status changes (the edge, then each closed pair) are
        replayed one at a time; a change not yet replayed still reads OPEN.
        A change of {a,b} re-classifies vertex b for every pair {a,w} and
        vertex a for every pair {b,w}, as one vector update over w; pairs
        that are edges (the one just added too) stay frozen.
        """
        if outcome.step != state.steps or self.applied != outcome.step - 1:
            raise ValueError("outcome is not the most recent step")
        self.applied = outcome.step
        self.q -= 1 + len(outcome.closed_ids)
        s, xyz = self._s, self._xyz
        ends, ws = np.divmod(outcome.closed_ids, self.n)
        changes = [(*outcome.edge, EDGE)] + [(a, b, CLOSED) for a, b in
                                              zip(ends.tolist(), ws.tolist())]
        for a, b, s_new in changes:
            s[a, b] = s[b, a] = s_new
            for p, r in ((a, b), (b, a)):
                # every live pair {p,w}: vertex r moves from class
                # (OPEN, s[r,w]) to (s_new, s[r,w])
                d = _MOVE[s_new][:, s[r]] * _LIVE[s[p]]
                xyz[:, p, :] += d
                xyz[:, :, p] += d


# -------------------------------------------------------------------- oracle

def recompute_oracle(state: ProcessState, u: int, v: int) -> PairCounts:
    """Brute-force PairCounts from scratch.  Test oracle for the ledger."""
    if state.has_edge(u, v):
        raise ValueError("pair {%d,%d} is an edge" % (u, v))
    x = y = z = 0
    for w in range(state.n):
        if w == u or w == v:
            continue
        c = _classify(state.status_of(u, w), state.status_of(v, w))
        if c == _X:
            x += 1
        elif c == _Y:
            y += 1
        elif c == _Z:
            z += 1
    return PairCounts(x, y, z)


def oracle_counts_matrix(state: ProcessState):
    """Vectorized oracle: n x n int32 matrices (x, y, z) of the counts of all
    pairs, from the status matrix alone (diagonal entries meaningless).

    With O = (S == OPEN) and E = (S == EDGE) as 0/1 matrices, X = O O,
    Y = O E + (O E)^T and Z = E E.  The products run in float32; they are
    exact because every entry and every partial sum is an integer of at most
    n - 2 < 2^24."""
    s = state.status_matrix()
    o = (s == OPEN).astype(np.float32)
    e = (s == EDGE).astype(np.float32)
    oe = o @ e
    return ((o @ o).astype(np.int32), (oe + oe.T).astype(np.int32),
            (e @ e).astype(np.int32))


def sampled_counts(state: ProcessState, codes):
    """Recompute (x, y, z) for the pairs with the given codes u*n+v from the
    two rows of the status matrix each names."""
    s = state.status_matrix()
    us, vs = np.divmod(np.asarray(codes), state.n)
    su = s[us]
    sv = s[vs]
    uo = su == OPEN
    ue = su == EDGE
    vo = sv == OPEN
    ve = sv == EDGE
    return tuple(np.count_nonzero(m, axis=1).astype(np.int32)
                 for m in (uo & vo, (uo & ve) | (ue & vo), ue & ve))


# --------------------------------------------- exact conditional expectations

def expected_open_loss(ledger: PairLedger, state: ProcessState, u: int, v: int) -> Fraction:
    """Exact E[one-step loss of x] for pair {u,v}:
    sum over open w of (2 + |Y_{u,w}| + |Y_{v,w}| - |Z_{u,v}|) / q."""
    if state.has_edge(u, v):
        raise ValueError("pair is an edge")
    s = state.S
    w = (s[u] == OPEN) & (s[v] == OPEN)  # NO_PAIR excludes w = u, v
    total = (np.count_nonzero(w) * (2 - int(ledger.z[u, v]))
             + int(ledger.y[u, w].sum()) + int(ledger.y[v, w].sum()))
    return Fraction(total, ledger.q)


def expected_partial_loss(ledger: PairLedger, state: ProcessState, u: int, v: int) -> Fraction:
    """Exact E[one-step loss of y] for pair {u,v}: sum over partial w of
    |Y_{w*,w}| / q, where w* is the endpoint whose pair to w is open."""
    if state.has_edge(u, v):
        raise ValueError("pair is an edge")
    s = state.S
    total = (int(ledger.y[u, (s[u] == OPEN) & (s[v] == EDGE)].sum())
             + int(ledger.y[v, (s[u] == EDGE) & (s[v] == OPEN)].sum()))
    return Fraction(total, ledger.q)


def expected_partial_gain(ledger: PairLedger, u: int, v: int) -> Fraction:
    """Exact E[one-step gain of y] for pair {u,v}: 2 x / q."""
    return Fraction(2 * int(ledger.x[u, v]), ledger.q)


def expected_q_drop(ledger: PairLedger, state: ProcessState) -> Fraction:
    """Exact E[Q(i) - Q(i+1)] = 1 + (sum of y over open pairs) / q."""
    # S and y are symmetric: every open pair is counted twice
    return 1 + Fraction(int(ledger.y[state.S == OPEN].sum()) // 2, ledger.q)
