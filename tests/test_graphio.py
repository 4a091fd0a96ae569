import itertools

import numpy as np
import pytest

from hfree.graphio import (
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
    write_graph6(path, [(12, st.edge_log)])
    line = path.read_text().strip()
    n, edges = _decode_graph6(line)
    assert n == 12
    assert sorted(edges) == sorted(tuple(sorted(e)) for e in st.edge_log)
