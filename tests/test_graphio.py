import itertools

import numpy as np
import pytest

from hfree.graphio import (
    LOG_CHUNK,
    edge_log_text,
    graph6_line,
    parse_edge_log,
    write_edge_log,
    write_graph6,
)
from hfree.process import ProcessState


def test_edge_log_format():
    text = edge_log_text(5, 3, 42, [(0, 1), (3, 2)])
    assert text == "n=5 rule=K3 seed=42\n0 1\n2 3\n"


def test_edge_log_roundtrip(tmp_path):
    path = tmp_path / "run.edges"
    edges = [(0, 4), (1, 2), (2, 3)]
    write_edge_log(path, 6, 4, 1234, edges)
    n, rule, seed, parsed = parse_edge_log(path.read_text())
    assert (n, rule, seed) == (6, 4, "1234")
    assert parsed == edges


def test_edge_log_from_an_array_in_chunks(tmp_path):
    rng = np.random.default_rng(4)
    edges = rng.integers(0, 1000, size=(2 * LOG_CHUNK + 5, 2)).astype(np.int32)
    want = "n=1000 rule=K3 seed=7\n" + "".join(
        "%d %d\n" % (min(u, v), max(u, v)) for u, v in edges.tolist())
    assert edge_log_text(1000, 3, 7, edges) == want
    for m in (0, 1, LOG_CHUNK, len(edges)):
        path = tmp_path / ("run%d.edges" % m)
        write_edge_log(path, 1000, 3, 7, edges[:m])
        assert path.read_text() == edge_log_text(1000, 3, 7, edges[:m].tolist())


def _graph6_dense(n, edges):
    """Reference graph6 body: one uint8 per pair, packed by a product."""
    bits = np.zeros(-(-n * (n - 1) // 12) * 6, dtype=np.uint8)
    for u, v in edges:
        u, v = min(u, v), max(u, v)
        bits[v * (v - 1) // 2 + u] = 1
    body = bits.reshape(-1, 6) @ np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8) + 63
    return body.tobytes().decode("ascii")


def test_graph6_body_matches_dense_reference():
    rng = np.random.default_rng(5)
    for n in (0, 1, 2, 3, 62, 63, 64, 100, 300):
        m = n * (n - 1) // 2
        pairs = np.array(list(itertools.combinations(range(n), 2)), dtype=np.int32).reshape(-1, 2)
        edges = pairs[rng.random(m) < 0.3]
        # either orientation, and an edge given twice, set the same bit
        edges = np.concatenate([edges, edges[:3, ::-1]])
        line = graph6_line(n, edges)
        assert line == line[:1 if n <= 62 else 4] + _graph6_dense(n, edges)
        assert line == graph6_line(n, edges.tolist())


def _decode_graph6(line):
    data = [ord(c) - 63 for c in line]
    if data[0] == 63:
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    else:
        n = data[0]
        body = data[1:]
    bits = []
    for val in body:
        for k in range(5, -1, -1):
            bits.append((val >> k) & 1)
    edges = []
    i = 0
    for v in range(1, n):
        for u in range(v):
            if bits[i]:
                edges.append((u, v))
            i += 1
    return n, edges


def test_graph6_known_values():
    # frozen reference encodings for tiny graphs
    assert graph6_line(2, [(0, 1)]) == "A_"
    assert graph6_line(3, [(0, 1), (0, 2), (1, 2)]) == "Bw"
    assert graph6_line(5, []) == "D??"


def test_graph6_roundtrip():
    rng = np.random.default_rng(9)
    for n in (1, 7, 30, 63, 100):
        edges = sorted(e for e in itertools.combinations(range(n), 2)
                       if rng.random() < 0.2)
        n2, decoded = _decode_graph6(graph6_line(n, edges))
        assert n2 == n
        assert sorted(decoded) == sorted(edges)


def test_graph6_header_large_n():
    line = graph6_line(100, [])
    assert line.startswith(chr(126))
    assert len(line) == 4 + (100 * 99 // 2 + 5) // 6


def test_graph6_bad_input():
    with pytest.raises(ValueError):
        graph6_line(4, [(0, 0)])
    with pytest.raises(ValueError):
        graph6_line(4, [(0, 5)])
    with pytest.raises(ValueError):
        graph6_line(-1, [])


def test_write_graph6_from_run(tmp_path, rng):
    st = ProcessState(12, 3)
    st.advance(rng)
    path = tmp_path / "graphs.g6"
    with open(path, "w", encoding="utf-8") as fh:
        write_graph6(fh, 12, st.edge_log)
    line = path.read_text().strip()
    n, edges = _decode_graph6(line)
    assert n == 12
    assert sorted(edges) == sorted(tuple(sorted(e)) for e in st.edge_log)
