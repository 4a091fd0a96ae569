"""Edge-log and graph6 export.  Edges are an (m, 2) integer array or a
sequence of (u, v) pairs."""

from __future__ import annotations

import numpy as np

# edges formatted per string by write_edge_log
LOG_CHUNK = 4096


def _edges(edges) -> np.ndarray:
    return np.asarray(edges, dtype=np.int64).reshape(-1, 2)


def _edge_lines(edges) -> str:
    """One line 'u v' per edge, u < v."""
    e = np.sort(_edges(edges), axis=1)
    return ("%d %d\n" * len(e)) % tuple(e.ravel().tolist())


def edge_log_text(n: int, rule: int, seed, edges) -> str:
    """Edge list as text: header 'n=<n> rule=K<order> seed=<seed>' then one
    edge per line 'u v' with u < v, 0-based."""
    return "n=%d rule=K%d seed=%s\n" % (n, rule, seed) + _edge_lines(edges)


def write_edge_log(path, n, rule, seed, edges):
    """edge_log_text to path, formatted LOG_CHUNK edges at a time (edges:
    an array or a list)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(edge_log_text(n, rule, seed, edges[:LOG_CHUNK]))
        for start in range(LOG_CHUNK, len(edges), LOG_CHUNK):
            fh.write(_edge_lines(edges[start:start + LOG_CHUNK]))


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
    e = _edges(edges)
    lo, hi = e.min(axis=1), e.max(axis=1)
    bad = np.flatnonzero((lo == hi) | (lo < 0) | (hi >= n))
    if len(bad):
        raise ValueError("bad edge (%d,%d)" % tuple(e[bad[0]]))
    # bits run column by column over the upper triangle: (u, v) for u < v
    # is bit v(v-1)/2 + u, six to a character, the first one its 32 bit
    pos = hi * (hi - 1) // 2 + lo
    body = np.zeros(-(-n * (n - 1) // 12), dtype=np.uint8)
    np.bitwise_or.at(body, pos // 6, 32 >> (pos % 6))
    body += 63
    return (head + body.tobytes()).decode("ascii")


def write_graph6(fh, n: int, edges):
    """The graph6 line of the graph, newline-terminated, to the open text
    file fh."""
    fh.write(graph6_line(n, edges) + "\n")
