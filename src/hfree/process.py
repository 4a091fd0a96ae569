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

`advance` runs many steps.  Each pass takes the live carried codes and
adds the longest run of them that can go in as one batch, with one set of
row operations on S; the rest stay carried over.  Under the K3 rule the run
ends at the first pair sharing a vertex with an earlier one: a K3 pair
closes only through a new edge at one of its ends, so each pair of the run
is still open at its turn, and the batch closes what its steps would close
one at a time.  Under the K4 rule the run also ends at the first pair
c_j = {u_j, v_j} with an earlier pair of the run inside
C_j = N(u_j) ∩ N(v_j), read before the run (no run edge touches u_j or v_j,
so the run does not change C_j).  A K4-minus-c_j witness has five pairs;
four touch u_j or v_j, which no other run edge touches, so an earlier run
edge could close c_j only as the fifth, inside C_j, which the cut rules
out.  Every pair the run closes has a witness holding a run edge, and that
edge's local rule, read once the whole run is in, finds it.  `add_edge` is
the same batch with one pair, for either rule.  The edges depend on the
seed alone: not on where a caller caps the steps, nor on whether they go
through `step` or `advance`.
"""

from __future__ import annotations

from typing import NamedTuple

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
# largest n whose pair codes u*n+v, all below n*n, fit the int32 code arrays
N_MAX = 46340


class ProcessTerminated(Exception):
    """Signals that no open pair remains.  Not a fault."""


def _upper_codes(n: int) -> np.ndarray:
    """Codes u*n+v of the pairs u < v, in row-major order; this order fixes
    which pair a draw from the open list picks."""
    cols = np.arange(n, dtype=np.int32)
    return np.concatenate([u * n + cols[u + 1:] for u in range(n)])


def _spans(starts, counts) -> np.ndarray:
    """starts[i], starts[i] + 1, ..., starts[i] + counts[i] - 1 for each i,
    concatenated."""
    stops = counts.cumsum()
    return np.arange(stops[-1] if len(stops) else 0) + (starts + counts - stops).repeat(counts)


class StepOutcome(NamedTuple):
    """One step's result: the chosen edge and the pairs it closed."""

    edge: tuple
    closed_ids: np.ndarray  # codes a*n+b into S
    step: int               # step count after this step


class ProcessState:
    """Evolving graph as an n x n pair-status matrix, plus the open-pair list."""

    def __init__(self, n: int, rule: int = K3):
        if not 2 <= n <= N_MAX:
            raise ValueError("need 2 <= n <= %d (int32 pair codes), got n=%d" % (N_MAX, n))
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
        a, b = self._add(np.array([u]), np.array([v]))
        return StepOutcome((u, v), a * n + b, self.steps)

    def step(self, rng) -> StepOutcome:
        """Add one uniformly random open pair; close what it forbids."""
        return self.add_edge(*self.choose(rng))

    def _add(self, us, vs, C=None) -> tuple[np.ndarray, np.ndarray]:
        """Add the open pairs {us[j], vs[j]}, a run as `advance` cuts it (C:
        its K4 rows N(us[j]) ∩ N(vs[j]), if read), and close what they forbid.
        Returns the closed pairs as (a, b), under K3 some of them twice."""
        S = self.S
        S[us, vs] = S[vs, us] = EDGE
        if self.rule == K3:
            a, b, repeats = self._k3_closed(us, vs)
        else:
            a, b, repeats = self._k4_closed(us, vs, C)
        S[a, b] = S[b, a] = CLOSED
        self.open_count -= len(us) + len(a) - repeats
        self.steps += len(us)
        self.edge_log.extend(zip(us.tolist(), vs.tolist()))
        return a, b

    def _k3_closed(self, us, vs) -> tuple[np.ndarray, np.ndarray, int]:
        """(a, w, repeats): the pairs {u_i, w} with w ~ v_i and {v_i, w} with
        w ~ u_i, read from the 2k rows of the ends once the edges are in; a
        pair closed from both of its ends (k > 1) is listed twice, and
        repeats counts those."""
        n, k = self.n, len(us)
        ends = np.concatenate([us, vs])
        rows = self.S[ends]
        edge = rows == EDGE
        mask = rows == OPEN
        mask[:k] &= edge[k:]
        mask[k:] &= edge[:k]
        # a 1-D nonzero of the flat mask lists the pairs in the row-major
        # order of a 2-D nonzero at under half its cost at n=2000
        side, w = np.divmod(mask.ravel().nonzero()[0], n)
        repeats = 0
        if k > 1:
            # a pair of two batch ends, {u_i, v_j} say, can be closed from both
            both = mask[:, ends]
            repeats = int(np.count_nonzero(both & both.T)) // 2
        return ends[side], w, repeats

    def _common(self, us, vs) -> np.ndarray:
        """k x n bool rows C[j] = N(us[j]) ∩ N(vs[j])."""
        return (self.S[us] == EDGE) & (self.S[vs] == EDGE)

    def _k4_closed(self, us, vs, C) -> tuple[np.ndarray, np.ndarray, int]:
        """The open pairs of the K4-minus-a-pair witnesses of the new edges
        {us[j], vs[j]}, read once they are in: the pairs inside C[j], and
        {u_j, w} with w ~ v_j and w adjacent to a vertex of C[j] (and the
        mirror case {v_j, w}), each once.  An edge with C[j] empty closes
        nothing.  C is read here if not given: the new edges leave it as is."""
        n, S, k = self.n, self.S, len(us)
        if C is None:
            C = self._common(us, vs)
        # C as entries (j, c[e]) in row-major order; row j holds the
        # entries stop[j] - size[j] .. stop[j] - 1
        cj, c = np.divmod(C.ravel().nonzero()[0], n)
        if not len(c):
            return c, c, 0
        size = np.bincount(cj, minlength=k)
        stop = size.cumsum()
        # the pairs inside C[j]: each entry with the later ones of its row
        later = stop[cj] - np.arange(len(c)) - 1
        a = c[np.arange(len(c)).repeat(later)]
        b = c[_spans(np.arange(1, len(c) + 1), later)]
        keep = S[a, b] == OPEN
        a, b = a[keep], b[keep]
        # {x, w} open, x an end of edge j with C[j] not empty and w ~ y, its
        # other end: it closes if w is adjacent to some entry of row j
        rows = size.nonzero()[0]
        ends = np.concatenate([us[rows], vs[rows]])
        mask = (S[np.concatenate([vs[rows], us[rows]])] == EDGE) & (S[ends] == OPEN)
        side, w = np.divmod(mask.ravel().nonzero()[0], n)
        j = rows[side % len(rows)]
        cand = np.arange(len(w)).repeat(size[j])
        hit = np.zeros(len(w), dtype=bool)
        hit[cand[S[w[cand], c[_spans(stop[j] - size[j], size[j])]] == EDGE]] = True
        x, w = ends[side[hit]], w[hit]
        codes = np.concatenate([a * n + b, np.minimum(x, w) * n + np.maximum(x, w)])
        if k > 1:
            # two edges of the batch can close the same pair.  A stable
            # sort, as advance already runs: the first call of np.unique or
            # of the default sort adds 0.3-2 MB of resident memory
            codes.sort(kind="stable")
            codes = np.concatenate([codes[:1], codes[1:][codes[1:] != codes[:-1]]])
        return (*np.divmod(codes, n), 0)

    def advance(self, rng, max_steps: int | None = None) -> int:
        """Add up to max_steps uniformly random open pairs (no cap: until no
        open pair remains); returns the number added.  The same rng gives the
        same edges however the steps are split between calls."""
        start = self.steps
        end = start + (self.npairs if max_steps is None else max_steps)
        while self.open_count and self.steps < end:
            codes = self._live_codes(rng)
            us, vs = np.divmod(codes, self.n)
            # the run ends at the first pair with an end seen earlier in it
            ends = np.stack([us, vs], axis=1).ravel()
            order = np.argsort(ends, kind="stable")
            sorted_ends = ends[order]
            again = order[1:][sorted_ends[1:] == sorted_ends[:-1]]
            k = min(int(again.min()) // 2 if len(again) else len(codes), end - self.steps)
            us, vs, C = us[:k], vs[:k], None
            if self.rule == K4:
                # and at the first pair with an earlier pair inside its C
                C = self._common(us, vs)
                inside = np.tril(C[:, us] & C[:, vs], -1).any(axis=1)
                if inside.any():
                    k = int(inside.argmax())
                    us, vs, C = us[:k], vs[:k], C[:k]
            self._add(us, vs, C)
            self._pending = codes[k:]
        return self.steps - start
