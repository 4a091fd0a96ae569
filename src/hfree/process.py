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
it closed.  The edges go, in the order added, into one int32 (steps, 2)
log that doubles as it fills.

Every pair comes from one draw path.  It draws BLOCK ids into a list of
open pair codes u*n+v (u<v) with one rng call, keeps their codes in draw
order in `_pending`, and hands out those still open.  Until fewer than half
of the pairs are open the list is every pair in row-major order, so it is
never held: `pair_codes` maps the ids to their codes.  Only once the
carried codes are used up is a new block drawn, the list first replaced by
its live codes if fewer than half of it is open: the first time read from
the upper triangle of S, later by dropping the closed codes of the list.
Each code is an independent uniform draw from the list as it was when its
block was drawn, and every pair open now was open then and is in that list
once, so the first carried code still open is uniform over the open pairs
now.  `choose` takes that code.

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
# entries of S, or of the open list, that a compaction reads per chunk
CHUNK = 1 << 16
# largest n whose pair codes u*n+v, all below n*n, fit the int32 code arrays
N_MAX = 46340


class ProcessTerminated(Exception):
    """Signals that no open pair remains.  Not a fault."""


def pair_codes(n: int, ids) -> np.ndarray:
    """Codes u*n+v of the pairs u < v numbered ids in row-major order, the
    order that fixes which pair a draw from the open list picks; sorted ids
    give sorted codes."""
    rows = np.arange(n)
    starts = rows * (2 * n - rows - 1) // 2  # the id of the pair (u, u+1)
    us = np.searchsorted(starts, ids, side="right") - 1
    return us * n + ids - starts[us] + us + 1


def status_code(S, ends, out=None) -> tuple[np.ndarray, np.ndarray]:
    """(rows, code) for k members whose i-th vertices are ends[i]: the rows
    S[ends[0]], S[ends[1]], ... gathered into out (new if None), and code,
    a view of the last k of them turned into the k x n uint8
    code[j] = S[ends[0][j]] + 4 S[ends[1][j]] + 16 S[ends[2][j]] + ...,
    which codes the statuses of every end at once (each is below 4).  The
    rows before code are free, e.g. for a bool mask.  "clip" (the ends are
    in range) spares the copy that "raise" makes."""
    idx = np.concatenate(ends)
    m = len(idx)
    rows = np.take(S, idx, axis=0, out=out if out is None else out[:m], mode="clip")
    k = m // len(ends)
    code = rows[m - k:]
    while m > k:
        m -= k
        code *= 4
        code += rows[m - k:m]
    return rows, code


# EDGES_INTO[m][code], the class rule of every snapshot count: a vertex whose
# m statuses to a member have `status_code` code is in class f, its number of
# EDGE statuses, or dropped in class m + 1 if one is CLOSED or NO_PAIR
EDGES_INTO = {m: np.array([d.count(EDGE) if set(d) <= {OPEN, EDGE} else m + 1 for d in
                           ([code >> 2 * i & 3 for i in range(m)] for code in range(4 ** m))])
              for m in (2, 3)}
# for each m: the live codes (no CLOSED or NO_PAIR status) and their classes,
# as Python ints, as an np.int64 code would widen the uint8 compare
_LIVE_CODES = {m: [(c, int(f)) for c, f in enumerate(into) if f <= m]
               for m, into in EDGES_INTO.items()}


# for each code of a triple's ends (u, v, c): the digit of its one OPEN
# status if it is of class 2 under EDGES_INTO[3] (edges to two ends, an open
# pair to the third), else -1.  A vertex w with a class-2 code closes {the
# end at that digit, w}; _CLOSING lists the class-2 codes
_OPEN_DIGIT = np.array([[code >> 2 * i & 3 for i in range(3)].index(OPEN) if f == 2 else -1
                        for code, f in enumerate(EDGES_INTO[3])])
_CLOSING = np.flatnonzero(_OPEN_DIGIT >= 0).tolist()


def edge_counts(S, ends) -> np.ndarray:
    """k x (m + 1) uint16 for k members of m vertices whose i-th vertices are
    ends[i]: entry [j, f] counts the vertices of EDGES_INTO class f for member
    j.  Each member's row counts of its 2^m live codes are added up by class;
    exact, as a row holds n <= N_MAX < 2^16 entries."""
    m = len(ends)
    rows, code = status_code(S, ends)
    mask = rows[:len(code)].view(bool)
    counts = np.zeros((m + 1, len(code)), dtype=np.uint16)
    row = np.empty(len(code), dtype=np.uint16)
    for c, f in _LIVE_CODES[m]:
        np.equal(code, c, out=mask)
        counts[f] += mask.view(np.uint8).sum(axis=1, dtype=np.uint16, out=row)
    return counts.T


class StepOutcome(NamedTuple):
    """One step's result: the chosen edge and the pairs it closed."""

    edge: tuple
    closed_ids: np.ndarray  # codes a*n+b into S
    step: int               # step count after this step


class ProcessState:
    """Evolving graph as an n x n pair-status matrix, plus the open-pair list
    once it is first compacted, and the edge log."""

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
        self._open = None  # the open list; None while it is every pair
        self._pending = np.zeros(0, dtype=np.int32)  # drawn codes not yet used, in draw order
        self._rows = np.empty((2 * BLOCK, n), dtype=np.uint8)  # rows of S read per pass
        self._log = np.empty((BLOCK, 2), dtype=np.int32)  # edge_log and its free tail

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

    @property
    def edge_log(self) -> np.ndarray:
        """The edges (u, v), u < v, in the order added: a read-only int32
        (steps, 2) view of the live log."""
        log = self._log[:self.steps]
        log.flags.writeable = False
        return log

    # ------------------------------------------------------------------ steps

    def _live_codes(self, rng) -> np.ndarray:
        """The carried codes that are still open, in draw order.  Only when
        none is left is the open list replaced by its live codes (if fewer
        than half of it is open) and a block of BLOCK codes drawn from it:
        the one rng call of the process.  Needs an open pair."""
        flat = self.S.reshape(-1)
        codes = self._pending[flat[self._pending] == OPEN]
        while not len(codes):
            if 2 * self.open_count < (self.npairs if self._open is None else len(self._open)):
                self._compact()
            lst = self._open
            if lst is None:
                codes = pair_codes(self.n, rng.integers(self.npairs, size=BLOCK))
            else:
                codes = lst[rng.integers(len(lst), size=BLOCK)]
            codes = codes[flat[codes] == OPEN]
        return codes

    def _compact(self):
        """Replace the open list by its live codes, in order: one int32
        array of open_count entries, read about CHUNK entries at a time, so
        that no temporary of the list's size is made.  The first time they
        are read from the upper triangle of S into a new array, later moved
        to the front of the list, which is then shrunk in place (realloc
        keeps the front without a copy; no view of the list is ever kept)."""
        n, flat, lst = self.n, self.S.reshape(-1), self._open
        pos = 0
        if lst is None:
            lst = np.empty(self.open_count, dtype=np.int32)
            rows = max(1, CHUNK // n)
            for u in range(0, n - 1, rows):
                live = np.flatnonzero(np.triu(self.S[u:u + rows] == OPEN, u + 1)) + u * n
                lst[pos:pos + len(live)] = live
                pos += len(live)
        else:
            for start in range(0, len(lst), CHUNK):
                part = lst[start:start + CHUNK]
                live = part[flat[part] == OPEN]
                lst[pos:pos + len(live)] = live
                pos += len(live)
            lst.resize(pos, refcheck=False)
        self._open = lst

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
        start = self.steps
        self.steps += len(us)
        if self.steps > len(self._log):
            log = np.empty((2 * self.steps, 2), dtype=np.int32)
            log[:start] = self._log[:start]
            self._log = log
        self._log[start:self.steps, 0] = us
        self._log[start:self.steps, 1] = vs
        return a, b

    def _k3_closed(self, us, vs) -> tuple[np.ndarray, np.ndarray, int]:
        """(a, w, repeats): the pairs {u_i, w} with w ~ v_i and {v_i, w} with
        w ~ u_i, read from the 2k rows of the ends, gathered into the kept
        buffer once the edges are in; a pair closed from both of its ends
        (k > 1) is listed twice, and repeats counts those."""
        n, k = self.n, len(us)
        ends = np.concatenate([us, vs])
        rows, both = status_code(self.S, (us, vs), self._rows)
        # row j < k marks the w with {u_j, w} open and {v_j, w} an edge, row
        # k + j the same with u_j and v_j swapped
        mask = rows.view(bool)
        np.equal(both, 4 * EDGE + OPEN, out=mask[:k])
        np.equal(both, 4 * OPEN + EDGE, out=mask[k:])
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
        """k x n bool rows C[j] = N(us[j]) ∩ N(vs[j]), a view of the kept
        buffer."""
        rows, both = status_code(self.S, (us, vs), self._rows)
        return np.equal(both, 4 * EDGE + EDGE, out=rows[:len(us)].view(bool))

    def _k4_closed(self, us, vs, C) -> tuple[np.ndarray, np.ndarray, int]:
        """The pairs the new edges {us[j], vs[j]} close, each once and in code
        order, read once they are in.  For each new triangle {u_j, v_j, c},
        c in C[j], a vertex w of class 2 under `EDGES_INTO[3]` (edges to two
        of its vertices, an open pair to the third) closes that open pair:
        these are the open pairs of the K4-minus-a-pair witnesses of the new
        edges.  C is read here if not given (the new edges leave it as is),
        and read before the kept buffer, which may hold it, takes one status
        code per entry (j, c) of C.  If the 3 nnz(C) rows do not fit, the
        buffer doubles past them, as the edge log does: a new buffer at each
        new largest C would fault in all its pages each time."""
        n = self.n
        if C is None:
            C = self._common(us, vs)
        cj, c = np.divmod(C.ravel().nonzero()[0], n)
        if 3 * len(c) > len(self._rows):
            self._rows = np.empty((6 * len(c), n), dtype=np.uint8)
        ends = (us[cj], vs[cj], c)
        rows, code = status_code(self.S, ends, self._rows)
        hits, one = rows[:len(c)].view(bool), rows[len(c):2 * len(c)].view(bool)
        np.equal(code, _CLOSING[0], out=hits)
        for value in _CLOSING[1:]:
            hits |= np.equal(code, value, out=one)
        at = hits.ravel().nonzero()[0]
        e, w = np.divmod(at, n)
        # the end at the OPEN digit of each hit's code
        x = np.stack(ends)[_OPEN_DIGIT[code.ravel()[at]], e]
        codes = np.minimum(x, w) * n + np.maximum(x, w)
        # a pair can close through several triangles.  A stable sort, as
        # advance already runs: the first call of np.unique or of the default
        # sort adds 0.3-2 MB of resident memory
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
