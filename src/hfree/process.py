"""H-free random greedy graph process (H a clique on 3 or 4 vertices).

Starting from the empty graph on n vertices, each step adds one pair chosen
uniformly at random from the pairs that are still *open*: non-edges whose
addition keeps the graph free of the forbidden clique.  Every vertex pair is
always in exactly one of three states -- edge, open, or closed -- and the
process ends when no open pair remains.

The graph state is one symmetric n x n uint8 matrix S of pair statuses,
NO_PAIR on the diagonal; rows of S are the neighbourhoods, and closure is
found from the two rows of the new edge's ends.  S costs n^2 bytes: 4 MB at
n=2000, 100 MB at n=10^4.  A pair {u,v} is addressed by (u, v) in S or by
its flat code u*n+v in S.ravel(); each step reports the codes of the pairs
it closed.

Every pair comes from one draw path.  It draws BLOCK codes from a lazily
compacted list of open pair codes u*n+v (u<v) with one rng call, keeps them
in draw order in `_pending`, and hands out those still open; a new block is
drawn, and the list compacted if fewer than half of it is open, only once
the carried ones are used up.  Each code is an independent uniform draw
from the list as it was when its block was drawn, and every pair open now
was open then and is in that list once, so the first carried code still
open is uniform over the open pairs now.  `choose` takes that code.

`advance` runs many steps.  Under the K3 rule it adds the longest run of
the live carried codes whose pairs share no vertex as one batch, with one
set of row operations on S: a K3 pair closes only through a new edge at one
of its ends, so each pair of the run is still open at its turn, and the
batch closes what its steps would close one at a time.  K3 `add_edge` is
the same batch with one pair.  Under the K4 rule a new edge away from a
pair can close it, so K4 steps stay one at a time.  Either way the edges
depend on the seed alone: not on where a caller caps the steps, nor on
whether they go through `step` or `advance`.
"""

from __future__ import annotations

import numpy as np

K3 = 3
K4 = 4

OPEN = 0
EDGE = 1
CLOSED = 2
# sentinel used on the diagonal of status matrices; never a real pair status
NO_PAIR = 3
# open-list codes drawn per rng call, once the carried ones are used up
BLOCK = 64


class ProcessTerminated(Exception):
    """Signals that no open pair remains.  Not a fault."""


def _upper_codes(n: int) -> np.ndarray:
    """Codes u*n+v of the pairs u < v, in row-major order; this order fixes
    which pair a draw from the open list picks."""
    cols = np.arange(n, dtype=np.int32)
    return np.concatenate([u * n + cols[u + 1:] for u in range(n)])


class StepOutcome:
    """One step's result: the chosen edge and the pairs it closed."""

    __slots__ = ("edge", "closed_ids", "step")

    def __init__(self, edge, closed_ids, step):
        self.edge = edge
        self.closed_ids = closed_ids  # np.ndarray of codes a*n+b into S
        self.step = step              # step count after this step


class ProcessState:
    """Evolving graph as an n x n pair-status matrix, plus the open-pair list."""

    def __init__(self, n: int, rule: int = K3):
        if n < 2:
            raise ValueError("need at least 2 vertices, got n=%d" % n)
        if rule not in (K3, K4):
            raise ValueError("forbidden clique order must be 3 or 4, got %r" % (rule,))
        self.n = n
        self.rule = rule
        self.steps = 0
        self.npairs = n * (n - 1) // 2
        self.S = np.zeros((n, n), dtype=np.uint8)  # all OPEN
        np.fill_diagonal(self.S, NO_PAIR)
        self.open_count = self.npairs
        self._open = _upper_codes(n)
        self._pending = self._open[:0]  # drawn codes not yet used, in draw order
        self.edge_log: list[tuple[int, int]] = []

    # ------------------------------------------------------------------ views

    def status_matrix(self) -> np.ndarray:
        """n x n matrix of pair statuses, NO_PAIR on the diagonal (read-only
        view of the live state)."""
        m = self.S.view()
        m.flags.writeable = False
        return m

    def status_of(self, u: int, v: int) -> int:
        return int(self.S[u, v])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.S[u, v] == EDGE)

    # ------------------------------------------------------------------ probe

    def is_closed_probe(self, u: int, v: int) -> bool:
        """Would adding {u,v} complete a forbidden clique?  Pure function of
        the adjacency; test oracle for the stored status."""
        S = self.S
        if S[u, v] == EDGE:
            raise ValueError("pair {%d,%d} is an edge" % (u, v))
        common = np.flatnonzero((S[u] == EDGE) & (S[v] == EDGE))
        if self.rule == K3:
            return len(common) > 0
        # K4: need two adjacent common neighbours
        return bool((S[np.ix_(common, common)] == EDGE).any())

    # ------------------------------------------------------------------ steps

    def _k4_newly_closed(self, u: int, v: int):
        """Open pairs that uv completes to a K4 minus that pair, with
        C = N(u) ∩ N(v): pairs inside C, and {u,b} with b ~ v and b adjacent
        to some vertex of C (and the mirror case {v,b})."""
        S = self.S
        eu = S[u] == EDGE
        ev = S[v] == EDGE
        c = np.flatnonzero(eu & ev)
        i, j = np.nonzero(np.triu(S[np.ix_(c, c)] == OPEN))
        ends, ws = [c[i]], [c[j]]
        for x, nbr_y in ((u, ev), (v, eu)):
            b = np.flatnonzero(nbr_y & (S[x] == OPEN))
            if len(b) and len(c):
                b = b[(S[np.ix_(b, c)] == EDGE).any(axis=1)]
                ends.append(np.full(len(b), x))
                ws.append(b)
        return np.concatenate(ends), np.concatenate(ws)

    def _live_codes(self, rng) -> np.ndarray:
        """The carried codes that are still open, in draw order.  Only when
        none is left is the open list compacted (if fewer than half of it is
        open) and a block of BLOCK codes drawn from it: the one rng call of
        the process.  Needs an open pair."""
        flat = self.S.reshape(-1)
        codes = self._pending[flat[self._pending] == OPEN]
        while not len(codes):
            lst = self._open
            if 2 * self.open_count < len(lst):
                live = lst[flat[lst] == OPEN]
                lst[:len(live)] = live
                self._open = lst = lst[:len(live)]
            codes = lst[rng.integers(len(lst), size=BLOCK)]
            codes = codes[flat[codes] == OPEN]
        return codes

    def choose(self, rng):
        """A uniformly random open pair (u, v), u < v: the first live drawn
        code; the rest are carried over."""
        if self.open_count == 0:
            raise ProcessTerminated("no open pairs at step %d" % self.steps)
        codes = self._live_codes(rng)
        self._pending = codes[1:]
        return divmod(int(codes[0]), self.n)

    def add_edge(self, u: int, v: int) -> StepOutcome:
        """Add the open pair {u,v} and close every pair it forbids."""
        n = self.n
        if not (0 <= u < n and 0 <= v < n) or self.S[u, v] != OPEN:
            raise ValueError("pair {%d,%d} is not open" % (u, v))
        if u > v:
            u, v = v, u
        if self.rule == K3:
            a, b = self._add_k3_batch(np.array([u]), np.array([v]))
        else:
            S = self.S
            S[u, v] = S[v, u] = EDGE
            a, b = self._k4_newly_closed(u, v)
            S[a, b] = S[b, a] = CLOSED
            self.open_count -= 1 + len(a)
            self.steps += 1
            self.edge_log.append((u, v))
        return StepOutcome((u, v), a * n + b, self.steps)

    def step(self, rng) -> StepOutcome:
        """Add one uniformly random open pair; close what it forbids."""
        return self.add_edge(*self.choose(rng))

    def _add_k3_batch(self, us, vs) -> tuple[np.ndarray, np.ndarray]:
        """Add the open pairs {us[i], vs[i]}, no two sharing a vertex, and
        close {u_i, w} for w ~ v_i and {v_i, w} for w ~ u_i, read from the 2k
        rows of the ends once the edges are in.  Returns the closed pairs as
        (a, w); a pair closed from both of its ends is listed twice, which
        needs k > 1."""
        n, S, k = self.n, self.S, len(us)
        S[us, vs] = S[vs, us] = EDGE
        ends = np.concatenate([us, vs])
        rows = S[ends]
        edge = rows == EDGE
        mask = rows == OPEN
        mask[:k] &= edge[k:]
        mask[k:] &= edge[:k]
        # a 1-D nonzero of the flat mask lists the pairs in the row-major
        # order of a 2-D nonzero at under half its cost at n=2000
        side, w = np.divmod(mask.ravel().nonzero()[0], n)
        a = ends[side]
        S[a, w] = S[w, a] = CLOSED
        closed = len(w)
        if k > 1:
            # a pair of two batch ends, {u_i, v_j} say, can be closed from both
            both = mask[:, ends]
            closed -= int(np.count_nonzero(both & both.T)) // 2
        self.open_count -= k + closed
        self.steps += k
        self.edge_log.extend(zip(us.tolist(), vs.tolist()))
        return a, w

    def advance(self, rng, max_steps: int | None = None) -> int:
        """Add up to max_steps uniformly random open pairs (no cap: until no
        open pair remains); returns the number added.  The same rng gives the
        same edges however the steps are split between calls."""
        start = self.steps
        end = start + (self.npairs if max_steps is None else max_steps)
        if self.rule == K4:
            while self.open_count and self.steps < end:
                self.step(rng)
            return self.steps - start
        while self.open_count and self.steps < end:
            codes = self._live_codes(rng)
            us, vs = np.divmod(codes, self.n)
            # the run ends at the first pair with an end seen earlier in it
            ends = np.stack([us, vs], axis=1).ravel()
            order = np.argsort(ends, kind="stable")
            sorted_ends = ends[order]
            again = order[1:][sorted_ends[1:] == sorted_ends[:-1]]
            k = min(int(again.min()) // 2 if len(again) else len(codes), end - self.steps)
            self._pending = codes[k:]
            self._add_k3_batch(us[:k], vs[:k])
        return self.steps - start
