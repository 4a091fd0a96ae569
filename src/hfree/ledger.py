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
- `PairLedger`: maintained incrementally step by step, with the exact
  conditional-expectation identities of the one-step changes as rationals.
  It is the audit of those identities and of the recounts above (acceptance
  criteria 1, 2 and 4, the pair-ledger demo); no experiment run uses it.

Ledger counts freeze the moment a pair becomes an edge.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .process import EDGE, OPEN, ProcessState, pair_index, pair_of

FULL = "full"
SAMPLED = "sampled"

# classes used internally
_X, _Y, _Z, _NONE = 0, 1, 2, 3


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
    """Incrementally maintained PairCounts for every non-edge pair (full
    mode) or a fixed witness family (sampled mode)."""

    def __init__(self, state: ProcessState, mode: str = FULL,
                 witness_ids=None):
        if state.steps != 0:
            raise ValueError("ledger must be initialized on a fresh state")
        if mode not in (FULL, SAMPLED):
            raise ValueError("unknown ledger mode %r" % mode)
        self.n = state.n
        self.mode = mode
        self.q = state.npairs
        self.applied = 0
        if mode == FULL:
            self.x = np.full(state.npairs, state.n - 2, dtype=np.int32)
            self.y = np.zeros(state.npairs, dtype=np.int32)
            self.z = np.zeros(state.npairs, dtype=np.int32)
            self.witness_ids = None
        else:
            if witness_ids is None:
                raise ValueError("sampled mode needs witness pair ids")
            self.witness_ids = np.asarray(sorted(witness_ids), dtype=np.int64)
            k = len(self.witness_ids)
            self.x = np.full(k, state.n - 2, dtype=np.int32)
            self.y = np.zeros(k, dtype=np.int32)
            self.z = np.zeros(k, dtype=np.int32)

    # ---------------------------------------------------------------- access

    def counts(self, u: int, v: int) -> PairCounts:
        pid = pair_index(self.n, u, v)
        if self.mode == FULL:
            return PairCounts(int(self.x[pid]), int(self.y[pid]), int(self.z[pid]))
        k = int(np.searchsorted(self.witness_ids, pid))
        if k >= len(self.witness_ids) or self.witness_ids[k] != pid:
            raise KeyError("pair {%d,%d} is not a witness" % (u, v))
        return PairCounts(int(self.x[k]), int(self.y[k]), int(self.z[k]))

    # ---------------------------------------------------------------- update

    def apply_edge(self, outcome, state: ProcessState):
        """Fold the most recent step into the ledger.

        Each status transition of a pair {a,b} re-classifies vertex b with
        respect to every tracked pair {a,z} and vertex a with respect to
        every {b,z}; pairs that are already edges stay frozen.
        """
        if outcome.step != state.steps or self.applied != outcome.step - 1:
            raise ValueError("outcome is not the most recent step")
        self.applied = outcome.step
        n_closed = len(outcome.closed_ids)
        self.q -= 1 + n_closed
        if self.mode == SAMPLED:
            return  # counts refreshed from adjacency at snapshot time
        n = self.n
        status = state.status
        edge_pid = pair_index(n, *outcome.edge)
        changed_ids = {edge_pid}
        changed_ids.update(int(i) for i in outcome.closed_ids)
        changed_pairs = [outcome.edge] + [pair_of(n, int(i)) for i in outcome.closed_ids]
        affected = set()
        for a, b in changed_pairs:
            for w in range(n):
                if w == a or w == b:
                    continue
                affected.add((pair_index(n, a, w), b))
                affected.add((pair_index(n, b, w), a))
        x, y, z = self.x, self.y, self.z
        for pid, w in affected:
            if status[pid] == EDGE:
                continue  # frozen (covers the pair just added as well)
            a, b = pair_of(n, pid)
            id1 = pair_index(n, a, w)
            id2 = pair_index(n, b, w)
            s1n = status[id1]
            s2n = status[id2]
            s1o = OPEN if id1 in changed_ids else s1n
            s2o = OPEN if id2 in changed_ids else s2n
            old = _classify(s1o, s2o)
            new = _classify(s1n, s2n)
            if old == new:
                continue
            if old == _X:
                x[pid] -= 1
            elif old == _Y:
                y[pid] -= 1
            elif old == _Z:
                z[pid] -= 1
            if new == _X:
                x[pid] += 1
            elif new == _Y:
                y[pid] += 1
            elif new == _Z:
                z[pid] += 1

    def recount(self, state: ProcessState):
        """Sampled mode: recompute witness counts from the current statuses.
        Returns a mask of witnesses that are still non-edges."""
        if self.mode != SAMPLED:
            raise ValueError("recount is a sampled-mode operation")
        x, y, z, nonedge = sampled_counts(state, self.witness_ids)
        # frozen witnesses keep their last pre-edge values
        self.x[nonedge] = x[nonedge]
        self.y[nonedge] = y[nonedge]
        self.z[nonedge] = z[nonedge]
        self.q = state.open_count
        self.applied = state.steps
        return nonedge


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


def sampled_counts(state: ProcessState, pair_ids):
    """Recompute (x, y, z) for the given pair ids from the current statuses,
    zero at pairs that are edges.  Returns (x, y, z, nonedge_mask)."""
    n = state.n
    pair_ids = np.asarray(pair_ids, dtype=np.int64)
    s = state.status_matrix()
    # row u of the upper triangle starts at pair id u*(2n-u-1)/2
    rows = np.arange(n, dtype=np.int64)
    starts = rows * (2 * n - rows - 1) // 2
    us = np.searchsorted(starts, pair_ids, side="right") - 1
    vs = pair_ids - starts[us] + us + 1
    nonedge = s[us, vs] != EDGE
    su = s[us]
    sv = s[vs]
    uo = su == OPEN
    ue = su == EDGE
    vo = sv == OPEN
    ve = sv == EDGE
    x, y, z = (np.where(nonedge, np.count_nonzero(m, axis=1), 0).astype(np.int32)
               for m in (uo & vo, (uo & ve) | (ue & vo), ue & ve))
    return x, y, z, nonedge


# --------------------------------------------- exact conditional expectations

def _require_full(ledger: PairLedger):
    if ledger.mode != FULL:
        raise ValueError("operation needs neighbors' counts: full mode only")


def expected_open_loss(ledger: PairLedger, state: ProcessState, u: int, v: int) -> Fraction:
    """Exact E[one-step loss of x] for pair {u,v}:
    sum over open w of (2 + |Y_{u,w}| + |Y_{v,w}| - |Z_{u,v}|) / q."""
    _require_full(ledger)
    if state.has_edge(u, v):
        raise ValueError("pair is an edge")
    n = state.n
    status = state.status
    zc = int(ledger.z[pair_index(n, u, v)])
    total = 0
    for w in range(n):
        if w == u or w == v:
            continue
        id1 = pair_index(n, u, w)
        id2 = pair_index(n, v, w)
        if status[id1] == OPEN and status[id2] == OPEN:
            total += 2 + int(ledger.y[id1]) + int(ledger.y[id2]) - zc
    return Fraction(total, ledger.q)


def expected_partial_loss(ledger: PairLedger, state: ProcessState, u: int, v: int) -> Fraction:
    """Exact E[one-step loss of y] for pair {u,v}: sum over partial w of
    |Y_{w*,w}| / q, where w* is the endpoint whose pair to w is open."""
    _require_full(ledger)
    if state.has_edge(u, v):
        raise ValueError("pair is an edge")
    n = state.n
    status = state.status
    total = 0
    for w in range(n):
        if w == u or w == v:
            continue
        id1 = pair_index(n, u, w)
        id2 = pair_index(n, v, w)
        s1 = status[id1]
        s2 = status[id2]
        if s1 == OPEN and s2 == EDGE:
            total += int(ledger.y[id1])
        elif s1 == EDGE and s2 == OPEN:
            total += int(ledger.y[id2])
    return Fraction(total, ledger.q)


def expected_partial_gain(ledger: PairLedger, u: int, v: int) -> Fraction:
    """Exact E[one-step gain of y] for pair {u,v}: 2 x / q."""
    _require_full(ledger)
    return Fraction(2 * int(ledger.x[pair_index(ledger.n, u, v)]), ledger.q)


def expected_q_drop(ledger: PairLedger, state: ProcessState) -> Fraction:
    """Exact E[Q(i) - Q(i+1)] = 1 + (sum of y over open pairs) / q."""
    _require_full(ledger)
    open_ids = np.nonzero(state.status == OPEN)[0]
    return 1 + Fraction(int(ledger.y[open_ids].sum()), ledger.q)
