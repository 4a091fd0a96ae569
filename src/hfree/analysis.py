"""Post-run graph analysis: independence number and Ramsey-ratio summaries.

A graph is its n x n bool adjacency matrix E; for a process state that is
`state.status_matrix() == EDGE`, and `graph_from_edges` builds one from an
edge list.  The exact solver is a bitmask branch-and-bound capped at small
n, bounded by |avail| - nu with nu from a greedy matching found in the pick
scan; the greedy solver is a randomized min-degree-first bound at any scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .process import K3, K4
from .trajectory import time_scale

EXACT_CAP = 60


@dataclass
class AlphaResult:
    value: int
    exact: bool
    witness: list


def graph_from_edges(n: int, edges) -> np.ndarray:
    """n x n bool adjacency matrix of the given edges."""
    adj = np.zeros((n, n), dtype=bool)
    e = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
    adj[e, e[:, ::-1]] = True  # (u, v) and (v, u) of each row (u, v)
    return adj


def _check_independent(adj, witness):
    w = np.asarray(witness, dtype=np.intp)
    if adj[np.ix_(w, w)].any():
        raise AssertionError("witness is not independent")


def independence_exact(adj, cap: int = EXACT_CAP) -> AlphaResult:
    """Exact independence number by branch and bound on bitmasks.  A node
    is cut when its size plus |avail| - nu cannot beat the best, nu a greedy
    matching in avail, since an independent set holds at most one end of
    each matched pair."""
    n = len(adj)
    if n > cap:
        raise ValueError("n=%d exceeds exact cap %d; use independence_greedy" % (n, cap))
    masks = [sum(1 << w for w in np.flatnonzero(row).tolist()) for row in adj]
    best_size, best_mask = 0, 0

    def expand(avail, cur_mask, cur_size):
        nonlocal best_size, best_mask
        # one scan in ascending order: a max-degree branch vertex, and each
        # unmatched vertex matched to its lowest unmatched neighbour
        m = unmatched = avail
        pick, pick_deg, nu = -1, 0, 0
        while m:
            lsb = m & -m
            v = lsb.bit_length() - 1
            nbrs = masks[v] & avail
            d = nbrs.bit_count()
            if d > pick_deg:
                pick, pick_deg = v, d
            w = nbrs & unmatched
            if w and unmatched & lsb:
                unmatched ^= lsb | (w & -w)
                nu += 1
            m ^= lsb
        size = cur_size + avail.bit_count()
        if pick_deg == 0:  # no edge left: take all of avail
            if size > best_size:
                best_size, best_mask = size, cur_mask | avail
            return
        if size - nu <= best_size:
            return
        bit = 1 << pick
        expand(avail & ~(masks[pick] | bit), cur_mask | bit, cur_size + 1)
        expand(avail & ~bit, cur_mask, cur_size)

    expand((1 << n) - 1, 0, 0)
    witness = [v for v in range(n) if best_mask >> v & 1]
    _check_independent(adj, witness)
    return AlphaResult(best_size, True, witness)


def independence_greedy(adj, rng, repeats: int = 32) -> AlphaResult:
    """Best of `repeats` randomized min-degree-first greedy runs; a lower
    bound on the true independence number.

    Each pick draws uniformly among the live vertices of least live degree,
    listed in ascending order, then drops the pick and its live neighbours.
    A dropped vertex's degree is set to 2n; later drops lower it by at most
    its degree, so it stays above n - 1, the largest live degree."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1, got %d" % repeats)
    n = len(adj)
    deg0 = adj.sum(axis=1)
    best = []
    for _ in range(repeats):
        deg = deg0.copy()
        alive = np.ones(n, dtype=bool)
        left = n
        chosen = []
        while left:
            # .nonzero()[0], not np.flatnonzero: at n=60 the wrapper costs
            # more than the search
            cands = (deg == deg.min()).nonzero()[0]
            v = int(cands[int(rng.integers(len(cands)))])
            chosen.append(v)
            drop = adj[v] & alive
            drop[v] = True
            drop = drop.nonzero()[0]
            alive[drop] = False
            left -= len(drop)
            deg -= adj[drop].sum(axis=0)
            deg[drop] = 2 * n
        if len(chosen) > len(best):
            best = chosen
    _check_independent(adj, best)
    return AlphaResult(len(best), False, sorted(best))


# per rule: the scales of M, alpha and the largest degree, as functions of
# n and ln n, and the implied Ramsey ratio n / (the paper's bound at
# t = alpha + 1): R(3,t) = Theta(t^2/log t), R(4,t) = Omega(t^{5/2}/log^2 t)
_SCALES = {
    "K3": (lambda n, lg: time_scale(K3, n) * math.sqrt(lg),
           lambda n, lg: math.sqrt(n * lg),
           lambda n, lg: math.sqrt(n * lg),
           lambda n, t: n * math.log(t) / t ** 2),
    "K4": (lambda n, lg: time_scale(K4, n) * lg ** 0.2,
           lambda n, lg: n ** 0.4 * lg ** 0.8,
           lambda n, lg: n ** 0.6 * lg ** 0.2,
           lambda n, t: n * math.log(t) ** 2 / t ** 2.5),
}


def ramsey_summary(records):
    """Per (rule, n) summary of the scaling ratios, each record normalised
    by its rule's scales.  Each record needs keys rule, n, M, alpha,
    max_degree; rows come back sorted by rule, then n."""
    if not records:
        raise ValueError("no records to summarize")
    groups: dict[tuple, list] = {}
    for rec in records:
        groups.setdefault((rec["rule"], rec["n"]), []).append(rec)
    rows = []
    for rule, n in sorted(groups):
        recs = groups[rule, n]
        m_scale, a_scale, d_scale, ramsey = _SCALES[rule]
        lg = math.log(n)
        m_ratio = [r["M"] / m_scale(n, lg) for r in recs]
        rows.append({
            "rule": rule,
            "n": n,
            "trials": len(recs),
            "mean_M_ratio": float(np.mean(m_ratio)),
            "std_M_ratio": float(np.std(m_ratio)),
            "mean_alpha_ratio": float(np.mean([r["alpha"] / a_scale(n, lg) for r in recs])),
            "mean_delta_ratio": float(np.mean([r["max_degree"] / d_scale(n, lg)
                                               for r in recs])),
            "implied_ramsey_ratio": float(np.mean([ramsey(n, r["alpha"] + 1)
                                                   for r in recs])),
        })
    return rows


SUMMARY_COLUMNS = ["rule", "n", "trials", "mean_M_ratio", "std_M_ratio",
                   "mean_alpha_ratio", "mean_delta_ratio", "implied_ramsey_ratio"]

