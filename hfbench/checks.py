"""Output checks for the benchmark, computed with numpy apart from hfree.

Every check reads what `hfree run --edge-logs` wrote -- `records.jsonl`, the
per-run edge logs and `final_graphs.g6` -- and recomputes what it tests from
the logged edges alone.  Nothing here imports hfree, and nothing compares
against a stored copy of an earlier output.

`check_output` returns, per run id, the list of failed checks.  Each failure
is a `(check_name, message)` pair, so the self-test can tell which checker
rejected a corrupted input.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

# M / (n^{3/2} sqrt(ln n)) must land in this band.  The paper proves
# M = Theta(n^{3/2} sqrt(log n)); the sharp constant is 1/(2 sqrt 2) ~ 0.354
# and runs at n = 60...2000 read 0.41-0.45, so the band is deliberately broad.
M_RATIO_BAND = (0.30, 0.60)


def read_records(out_dir):
    """(config dict, list of records) from records.jsonl."""
    config, records = None, []
    with open(os.path.join(out_dir, "records.jsonl"), encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            if "run_id" in obj:
                records.append(obj)
            else:
                config = obj["config"]
    return config, records


def read_edge_log(path):
    """(header dict, (m, 2) int array) from an edge log."""
    with open(path, encoding="utf-8") as fh:
        head = dict(kv.split("=", 1) for kv in fh.readline().split())
        edges = np.loadtxt(fh, dtype=np.int64, ndmin=2).reshape(-1, 2)
    return head, edges


def read_graph6(path):
    """Adjacency matrices, one per line of a graph6 file."""
    graphs = []
    with open(path, "rb") as fh:
        for line in fh:
            data = np.frombuffer(line.strip(), dtype=np.uint8).astype(np.int64) - 63
            if data[0] == 63:
                n = (data[1] << 12) | (data[2] << 6) | data[3]
                body = data[4:]
            else:
                n, body = data[0], data[1:]
            n = int(n)
            bits = np.unpackbits((body << 2).astype(np.uint8)[:, None], axis=1)[:, :6]
            bits = bits.ravel()[: n * (n - 1) // 2].astype(bool)
            # graph6 lists the upper triangle column by column: (0,1), (0,2),
            # (1,2), (0,3), ...; tril_indices walks the same order transposed
            v, u = np.tril_indices(n, -1)
            adj = np.zeros((n, n), dtype=bool)
            adj[u[bits], v[bits]] = True
            adj |= adj.T
            graphs.append(adj)
    return graphs


def adjacency(n, edges):
    adj = np.zeros((n, n), dtype=bool)
    adj[edges[:, 0], edges[:, 1]] = True
    adj[edges[:, 1], edges[:, 0]] = True
    return adj


def _f32(a):
    # counts stay below 2^24, so float32 BLAS products are exact
    return a.astype(np.float32)


def closure_counts(adj, rule):
    """Matrix whose (a, b) entry is nonzero iff adding {a, b} would complete
    a forbidden clique.  K3: common neighbours.  K4: edges {c, d} with both
    a and b in N(c) & N(d)."""
    a = _f32(adj)
    if rule == 3:
        return a @ a
    c, d = np.nonzero(np.triu(adj, 1))
    s = _f32(adj[c] & adj[d])
    return s.T @ s


def open_pairs(adj, rule):
    """Boolean matrix of the open pairs: non-edges whose addition completes
    no forbidden clique (empty diagonal)."""
    opened = ~adj & (closure_counts(adj, rule) == 0)
    np.fill_diagonal(opened, False)
    return opened


def open_count(adj, rule):
    return int(np.count_nonzero(np.triu(open_pairs(adj, rule), 1)))


def xyz_stats(adj):
    """x_max, y_max, z_max, x_mean, y_mean over all non-edge pairs, with
    X = O.O, Y = O.E + E.O and Z = E.E (K3 open/edge matrices)."""
    o, e = _f32(open_pairs(adj, 3)), _f32(adj)
    iu = np.triu_indices(adj.shape[0], 1)
    sel = ~adj[iu]
    x = (o @ o)[iu][sel].astype(np.int64)
    y = (o @ e + e @ o)[iu][sel].astype(np.int64)
    z = (e @ e)[iu][sel].astype(np.int64)
    return {"x_max": int(x.max()), "y_max": int(y.max()), "z_max": int(z.max()),
            "x_mean": int(x.sum()) / len(x), "y_mean": int(y.sum()) / len(y)}


# --------------------------------------------------------------- the checks

def check_edge_log(rec, rule, head, edges):
    n = rec["n"]
    out = []
    if (int(head["n"]), head["rule"], head["seed"]) != (n, "K%d" % rule, str(rec["seed"])):
        out.append(("edge_log", "header %r does not match the record" % head))
    if len(edges) != rec["steps"]:
        out.append(("edge_log", "%d logged edges, steps=%d" % (len(edges), rec["steps"])))
    if len(np.unique(edges[:, 0] * n + edges[:, 1])) != len(edges):
        out.append(("edge_log", "an edge is logged twice"))
    return out


def check_final_graph(rec, rule, adj):
    n = rec["n"]
    out = []
    deg = adj.sum(axis=1)
    if int(deg.max()) != rec["max_degree"]:
        out.append(("max_degree", "largest degree %d, record says %d"
                    % (deg.max(), rec["max_degree"])))
    w = np.asarray(rec["alpha_witness"], dtype=np.int64)
    if (len(w) != rec["alpha"] or len(np.unique(w)) != len(w)
            or (len(w) and (w.min() < 0 or w.max() >= n))
            or adj[np.ix_(w, w)].any()):
        out.append(("alpha_witness", "witness is not %d independent vertices" % rec["alpha"]))
    closure = closure_counts(adj, rule)
    if rule == 3:
        if np.any(closure[adj]):
            out.append(("clique_free", "the final graph has a triangle"))
        if rec["completed"]:
            maximal = adj | (closure > 0)
            np.fill_diagonal(maximal, True)
            if not maximal.all():
                out.append(("maximal", "a non-edge has no common neighbour"))
            lo, hi = M_RATIO_BAND
            ratio = rec["M"] / (n ** 1.5 * math.sqrt(math.log(n)))
            if rec["M"] != rec["steps"] or not lo <= ratio <= hi:
                out.append(("m_ratio", "M=%r gives ratio %.4f" % (rec["M"], ratio)))
        if rec["alpha"] < rec["max_degree"]:
            out.append(("alpha_degree", "alpha %d < max degree %d"
                        % (rec["alpha"], rec["max_degree"])))
    elif np.any(closure[adj]):
        out.append(("clique_free", "the final graph contains a K4"))
    return out


def check_snapshots(rec, rule, edges, every):
    """Q at the first, middle and last snapshot (every snapshot when
    `every`), and with `every` also the X/Y/Z statistics."""
    n = rec["n"]
    snaps = rec["snapshots"]
    picks = range(len(snaps)) if every else sorted({0, len(snaps) // 2, len(snaps) - 1})
    out = []
    adj = np.zeros((n, n), dtype=bool)
    done = 0
    for k in picks:
        s = snaps[k]
        i = s["i"]
        if not done <= i <= len(edges):
            out.append(("snapshot_q", "snapshot at i=%d is outside the log" % i))
            break
        adj |= adjacency(n, edges[done:i])
        done = i
        q = open_count(adj, rule)
        if s["Q"] != q:
            out.append(("snapshot_q", "i=%d: Q=%d, recomputed %d" % (i, s["Q"], q)))
        if every:
            want = xyz_stats(adj)
            for key, val in want.items():
                got = s[key]
                same = (math.isclose(got, val, rel_tol=1e-9, abs_tol=1e-12)
                        if isinstance(val, float) else got == val)
                if not same:
                    out.append(("snapshot_xyz", "i=%d: %s=%r, recomputed %r"
                                % (i, key, got, val)))
    return out


def check_output(out_dir, verify_text=None):
    """Check one `hfree run --edge-logs` output directory.

    K3 records made with `ledger_mode = full` get the all-pairs X/Y/Z check
    at every snapshot; records with n up to `exact_alpha_cap` must carry
    `alpha_exact >= alpha`.  `verify_text` is the captured stdout of
    `hfree verify` on the same records, if it was run.
    Returns {run_id: [(check, message), ...]}.
    """
    config, records = read_records(out_dir)
    rule = 3 if config["process"] == "K3" else 4
    full_ledger = rule == 3 and config["ledger_mode"] == "full"
    g6_path = os.path.join(out_dir, "final_graphs.g6")
    graphs = read_graph6(g6_path) if os.path.exists(g6_path) else []
    failures = {}
    for k, rec in enumerate(records):
        out = failures.setdefault(rec["run_id"], [])
        path = os.path.join(out_dir, "edges", rec["run_id"] + ".edges")
        if not os.path.exists(path):
            out.append(("edge_log", "no edge log"))
            continue
        head, edges = read_edge_log(path)
        if len(edges) and (edges.min() < 0 or edges.max() >= rec["n"]
                           or np.any(edges[:, 0] >= edges[:, 1])):
            out.append(("edge_log", "edge out of range or not written as u < v"))
            continue
        out += check_edge_log(rec, rule, head, edges)
        adj = adjacency(rec["n"], edges)
        if k >= len(graphs) or not np.array_equal(graphs[k], adj):
            out.append(("graph6", "final_graphs.g6 line %d differs from the edge log" % k))
        out += check_final_graph(rec, rule, adj)
        out += check_snapshots(rec, rule, edges, every=full_ledger)
        if rec["n"] <= config["exact_alpha_cap"] and (rec["alpha_exact"] is None
                                                      or rec["alpha_exact"] < rec["alpha"]):
            out.append(("alpha_exact", "alpha_exact %r < alpha %d"
                        % (rec["alpha_exact"], rec["alpha"])))
        if verify_text is not None and ("PASS %s reproduces exactly" % rec["run_id"]
                                        not in verify_text.splitlines()):
            out.append(("verify", "hfree verify did not reproduce the record"))
    if verify_text is not None and ("%d/%d records reproduced" % (len(records), len(records))
                                    not in verify_text):
        for out in failures.values():
            out.append(("verify", "hfree verify summary is not all reproduced"))
    return failures
