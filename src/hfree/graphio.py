"""Edge-log and graph6 export."""

from __future__ import annotations

import numpy as np


def edge_log_text(n: int, rule: int, seed, edges) -> str:
    """Edge list as text: header 'n=<n> rule=K<order> seed=<seed>' then one
    edge per line 'u v' with u < v, 0-based."""
    lines = ["n=%d rule=K%d seed=%s" % (n, rule, seed)]
    for u, v in edges:
        if u > v:
            u, v = v, u
        lines.append("%d %d" % (u, v))
    return "\n".join(lines) + "\n"


def write_edge_log(path, n, rule, seed, edges):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(edge_log_text(n, rule, seed, edges))


def parse_edge_log(text: str):
    lines = text.strip().splitlines()
    head = dict(kv.split("=") for kv in lines[0].split())
    n = int(head["n"])
    rule = int(head["rule"].lstrip("K"))
    edges = [tuple(map(int, ln.split())) for ln in lines[1:]]
    return n, rule, head["seed"], edges


def graph6_line(n: int, edges) -> str:
    """graph6 encoding (printable ASCII) of a simple graph on n vertices."""
    if n < 0 or n > 258047:
        raise ValueError("graph6 export supports 0 <= n <= 258047")
    if n <= 62:
        head = bytes([n + 63])
    else:
        head = bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    lo, hi = np.minimum(e[:, 0], e[:, 1]), np.maximum(e[:, 0], e[:, 1])
    bad = np.flatnonzero((lo == hi) | (lo < 0) | (hi >= n))
    if len(bad):
        raise ValueError("bad edge (%d,%d)" % tuple(e[bad[0]]))
    # bits run column by column over the upper triangle: (u, v) for u < v
    # is bit v(v-1)/2 + u
    bits = np.zeros(-(-n * (n - 1) // 12) * 6, dtype=np.uint8)
    bits[hi * (hi - 1) // 2 + lo] = 1
    body = bits.reshape(-1, 6) @ np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8) + 63
    return (head + body.tobytes()).decode("ascii")


def write_graph6(path, graphs):
    """graphs: iterable of (n, edges)."""
    with open(path, "w", encoding="utf-8") as fh:
        for n, edges in graphs:
            fh.write(graph6_line(n, edges) + "\n")
