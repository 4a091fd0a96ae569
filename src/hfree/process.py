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
it closed.  Sampling uses a lazily compacted list of open pair codes u*n+v
(u<v): a draw that lands on an entry which is no longer open is redrawn, and
the list is compacted once fewer than half of its entries are open, so a
step makes at most two draws on average.

`advance` runs many steps.  Under the K3 rule it draws BLOCK codes from the
open list with one rng call, drops those no longer open, and adds the
longest run of the rest whose pairs share no vertex as one batch, with one
set of row operations on S: a K3 pair closes only through a new edge at one
of its ends, so each pair of the run is still open at its turn, and the
batch closes what its steps would close one at a time.  The codes after the
run are kept, in order, in `_pending`, and the next batch or `choose` takes
them first; a new block is drawn, and the list compacted, only once they are
used up.  So the edges depend on the seed alone, not on where a caller caps
the steps.  Under the K4 rule a new edge away from a pair can close it, so
K4 steps stay one at a time.
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
# open-list codes `advance` draws per rng call, once the carried ones are used up
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


class RunResult:
    __slots__ = ("M", "state", "completed")

    def __init__(self, M, state, completed):
        self.M = M
        self.state = state
        self.completed = completed


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

    def _k3_newly_closed(self, u: int, v: int):
        """Open pairs {u,w} for w ~ v and {v,w} for w ~ u, as (ends, ws)."""
        S = self.S
        mask = (S[[v, u]] == EDGE) & (S[[u, v]] == OPEN)
        # a 1-D nonzero of the flat mask lists the pairs in the row-major
        # order of a 2-D nonzero at under half its cost at n=2000
        side, w = np.divmod(mask.ravel().nonzero()[0], self.n)
        return np.array([u, v])[side], w

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

    def _open_list(self) -> np.ndarray:
        """The open list, compacted first if fewer than half of it is open."""
        lst = self._open
        if 2 * self.open_count < len(lst):
            live = lst[self.S.reshape(-1)[lst] == OPEN]
            lst[:len(live)] = live
            self._open = lst = lst[:len(live)]
        return lst

    def choose(self, rng):
        """A uniformly random open pair (u, v), u < v: the first still-open
        code carried over from `advance`, else one rng.integers draw per try."""
        if self.open_count == 0:
            raise ProcessTerminated("no open pairs at step %d" % self.steps)
        flat = self.S.reshape(-1)
        if len(self._pending):
            live = np.flatnonzero(flat[self._pending] == OPEN)
            if len(live):
                code = int(self._pending[live[0]])
                self._pending = self._pending[live[0] + 1:]
                return divmod(code, self.n)
            self._pending = self._pending[:0]
        lst = self._open_list()
        while True:
            code = int(lst[int(rng.integers(len(lst)))])
            if flat[code] == OPEN:
                return divmod(code, self.n)

    def add_edge(self, u: int, v: int) -> StepOutcome:
        """Add the open pair {u,v} and close every pair it forbids."""
        n = self.n
        if not (0 <= u < n and 0 <= v < n) or self.S[u, v] != OPEN:
            raise ValueError("pair {%d,%d} is not open" % (u, v))
        if u > v:
            u, v = v, u
        S = self.S
        S[u, v] = S[v, u] = EDGE
        a, b = (self._k3_newly_closed if self.rule == K3 else self._k4_newly_closed)(u, v)
        S[a, b] = S[b, a] = CLOSED
        closed_ids = a * n + b
        self.open_count -= 1 + len(closed_ids)
        self.steps += 1
        self.edge_log.append((u, v))
        return StepOutcome((u, v), closed_ids, self.steps)

    def step(self, rng) -> StepOutcome:
        """Add one uniformly random open pair; close what it forbids."""
        return self.add_edge(*self.choose(rng))

    def _add_k3_batch(self, us, vs):
        """Add the open pairs {us[i], vs[i]}, no two sharing a vertex, and
        close {u_i, w} for w ~ v_i and {v_i, w} for w ~ u_i, read from the 2k
        rows of the ends once the edges are in."""
        n, S, k = self.n, self.S, len(us)
        S[us, vs] = S[vs, us] = EDGE
        ends = np.concatenate([us, vs])
        rows = S[ends]
        edge = rows == EDGE
        mask = rows == OPEN
        mask[:k] &= edge[k:]
        mask[k:] &= edge[:k]
        side, w = np.divmod(mask.ravel().nonzero()[0], n)
        a = ends[side]
        S[a, w] = S[w, a] = CLOSED
        # a pair of two batch ends, {u_i, v_j} say, can be closed from both
        both = mask[:, ends]
        self.open_count -= k + len(w) - int(np.count_nonzero(both & both.T)) // 2
        self.steps += k
        self.edge_log.extend(zip(us.tolist(), vs.tolist()))

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
        flat = self.S.reshape(-1)
        while self.open_count and self.steps < end:
            codes = self._pending
            if not len(codes):
                lst = self._open_list()
                codes = lst[rng.integers(len(lst), size=BLOCK)]
            codes = codes[flat[codes] == OPEN]
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

    def run(self, rng, stop: int | None = None) -> RunResult:
        """Run until no open pair remains (or a step cap, applied between
        steps).  With no cap the final graph is maximal H-free."""
        self.advance(rng, None if stop is None else stop - self.steps)
        return RunResult(self.steps, self, self.open_count == 0)
