"""H-free random greedy graph process (H a clique on 3 or 4 vertices).

Starting from the empty graph on n vertices, each step adds one pair chosen
uniformly at random from the pairs that are still *open*: non-edges whose
addition keeps the graph free of the forbidden clique.  Every vertex pair is
always in exactly one of three states -- edge, open, or closed -- and the
process ends when no open pair remains.

The hot loop is engineered around two ideas:
  * a dense array of open pair ids with swap-remove deletion, giving O(1)
    uniform sampling and O(1) closure;
  * closure detection local to the new edge (neighbor scans for the triangle
    rule, a candidate-set probe for the K4 rule).
"""

from __future__ import annotations

import math
from array import array

import numpy as np

K3 = 3
K4 = 4

OPEN = 0
EDGE = 1
CLOSED = 2
# sentinel used on the diagonal of status matrices; never a real pair status
NO_PAIR = 3


class ProcessTerminated(Exception):
    """Signals that no open pair remains.  Not a fault."""


def pair_index(n: int, u: int, v: int) -> int:
    """Flat index of the unordered pair {u,v} in the row-major upper triangle."""
    if u > v:
        u, v = v, u
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


def pair_of(n: int, idx: int):
    """Inverse of pair_index."""
    # largest u with u*(2n-u-1)/2 <= idx
    b = 2 * n - 1
    u = (b - math.isqrt(b * b - 8 * idx)) // 2
    while (u + 1) * (2 * n - u - 2) // 2 <= idx:
        u += 1
    while u * (2 * n - u - 1) // 2 > idx:
        u -= 1
    v = idx - u * (2 * n - u - 1) // 2 + u + 1
    return u, v


class StepOutcome:
    """One step's result: the chosen edge and the pairs it closed."""

    __slots__ = ("edge", "closed_ids", "step")

    def __init__(self, edge, closed_ids, step):
        self.edge = edge
        self.closed_ids = closed_ids  # np.ndarray of pair ids
        self.step = step              # step count after this step


class RunResult:
    __slots__ = ("M", "state", "completed")

    def __init__(self, M, state, completed):
        self.M = M
        self.state = state
        self.completed = completed


class ProcessState:
    """Evolving graph plus pair-status partition and open-pair sampler."""

    def __init__(self, n: int, rule: int = K3):
        if n < 2:
            raise ValueError("need at least 2 vertices, got n=%d" % n)
        if rule not in (K3, K4):
            raise ValueError("forbidden clique order must be 3 or 4, got %r" % (rule,))
        self.n = n
        self.rule = rule
        self.steps = 0
        npairs = n * (n - 1) // 2
        self.npairs = npairs
        self.status = np.zeros(npairs, dtype=np.uint8)  # all OPEN
        self.open_count = npairs
        self._open_list = array("i", range(npairs))
        self._open_pos = array("i", range(npairs))
        self._words = (n + 63) // 64
        self.adj_bits = np.zeros((n, self._words), dtype=np.uint64)
        self._nbr = [np.empty(8, dtype=np.int64) for _ in range(n)]
        self._deg = [0] * n
        self.edge_log: list[tuple[int, int]] = []

    # ------------------------------------------------------------------ views

    def status_of(self, u: int, v: int) -> int:
        return int(self.status[pair_index(self.n, u, v)])

    def has_edge(self, u: int, v: int) -> bool:
        return self.status_of(u, v) == EDGE

    def degree(self, v: int) -> int:
        return self._deg[v]

    def neighbors(self, v: int) -> np.ndarray:
        return self._nbr[v][: self._deg[v]]

    def adjacency_sets(self):
        return [set(self.neighbors(v).tolist()) for v in range(self.n)]

    def max_degree(self) -> int:
        return max(self._deg)

    def open_pair_ids(self) -> np.ndarray:
        return np.nonzero(self.status == OPEN)[0]

    def status_matrix(self) -> np.ndarray:
        """n x n matrix of pair statuses, NO_PAIR on the diagonal."""
        n = self.n
        m = np.full((n, n), NO_PAIR, dtype=np.uint8)
        iu = np.triu_indices(n, 1)
        m[iu] = self.status
        m.T[iu] = self.status
        return m

    def _row_int(self, v: int) -> int:
        return int.from_bytes(self.adj_bits[v].tobytes(), "little")

    # ------------------------------------------------------------------ probe

    def is_closed_probe(self, u: int, v: int) -> bool:
        """Would adding {u,v} complete a forbidden clique?  Pure function of
        the adjacency; used as oracle against the stored status."""
        if self.has_edge(u, v):
            raise ValueError("pair {%d,%d} is an edge" % (u, v))
        common = self.adj_bits[u] & self.adj_bits[v]
        if self.rule == K3:
            return bool(common.any())
        # K4: need two adjacent common neighbors
        cbits = int.from_bytes(common.tobytes(), "little")
        if cbits.bit_count() < 2:
            return False
        w = cbits
        while w:
            lsb = w & -w
            vert = lsb.bit_length() - 1
            if self._row_int(vert) & cbits:
                return True
            w ^= lsb
        return False

    # ------------------------------------------------------------------ steps

    def _remove_open(self, pid: int):
        lst = self._open_list
        pos = self._open_pos
        p = pos[pid]
        last = self.open_count - 1
        moved = lst[last]
        lst[p] = moved
        pos[moved] = p
        pos[pid] = -1
        self.open_count = last

    def _add_neighbor(self, a: int, b: int):
        buf = self._nbr[a]
        d = self._deg[a]
        if d == len(buf):
            grown = np.empty(2 * d, dtype=np.int64)
            grown[:d] = buf
            self._nbr[a] = buf = grown
        buf[d] = b
        self._deg[a] = d + 1

    def _set_bit(self, a: int, b: int):
        self.adj_bits[a, b >> 6] |= np.uint64(1 << (b & 63))

    def _k3_newly_closed(self, u: int, v: int) -> np.ndarray:
        """Pairs closed by adding {u,v} under the triangle rule: {u,w} for
        w ~ v and {v,w} for w ~ u, kept only if currently open."""
        n = self.n
        if self._deg[u] + self._deg[v] < 16:
            # scalar path: numpy overhead swamps tiny neighbor lists
            status = self.status
            out = []
            for x, y in ((u, v), (v, u)):
                nbr = self._nbr[y]
                for k in range(self._deg[y]):
                    w = int(nbr[k])
                    lo, hi = (x, w) if x < w else (w, x)
                    pid = lo * (2 * n - lo - 1) // 2 + (hi - lo - 1)
                    if status[pid] == OPEN:
                        out.append(pid)
            return np.asarray(out, dtype=np.int64)
        parts = []
        for x, y in ((u, v), (v, u)):
            d = self._deg[y]
            if d:
                ws = self._nbr[y][:d]
                lo = np.minimum(ws, x)
                hi = np.maximum(ws, x)
                ids = lo * (2 * n - lo - 1) // 2 + (hi - lo - 1)
                parts.append(ids[self.status[ids] == OPEN])
        if not parts:
            return np.empty(0, dtype=np.int64)
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def _k4_newly_closed(self, u: int, v: int) -> np.ndarray:
        """Candidate pairs are confined to N(u) ∪ N(v) ∪ {u,v}; each open
        candidate is rechecked with the clique-completion probe."""
        cand = {u, v}
        cand.update(self.neighbors(u).tolist())
        cand.update(self.neighbors(v).tolist())
        verts = sorted(cand)
        n = self.n
        out = []
        for i, a in enumerate(verts):
            for b in verts[i + 1:]:
                pid = pair_index(n, a, b)
                if self.status[pid] == OPEN and self.is_closed_probe(a, b):
                    out.append(pid)
        return np.asarray(out, dtype=np.int64)

    def step(self, rng) -> StepOutcome:
        """Add one uniformly random open pair; close what it forbids."""
        if self.open_count == 0:
            raise ProcessTerminated("no open pairs at step %d" % self.steps)
        r = int(rng.integers(self.open_count))
        pid = self._open_list[r]
        u, v = pair_of(self.n, pid)
        self._remove_open(pid)
        self.status[pid] = EDGE
        if self.rule == K3:
            closed_ids = self._k3_newly_closed(u, v)
            self._set_bit(u, v)
            self._set_bit(v, u)
        else:
            self._set_bit(u, v)
            self._set_bit(v, u)
            closed_ids = self._k4_newly_closed(u, v)
        self._add_neighbor(u, v)
        self._add_neighbor(v, u)
        if len(closed_ids):
            self.status[closed_ids] = CLOSED
            for cid in closed_ids.tolist():
                self._remove_open(cid)
        self.steps += 1
        self.edge_log.append((u, v))
        return StepOutcome((u, v), closed_ids, self.steps)

    def run(self, rng, stop: int | None = None) -> RunResult:
        """Run until no open pair remains (or a step cap, applied between
        steps).  With no cap the final graph is maximal H-free."""
        while self.open_count and (stop is None or self.steps < stop):
            self.step(rng)
        return RunResult(self.steps, self, self.open_count == 0)
