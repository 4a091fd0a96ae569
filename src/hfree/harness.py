"""Experiment orchestration: config parsing, seeded trials, snapshotting,
envelope auditing, and persistence.

A trial runs the process and snapshots it every `snapshot_stride` steps.  A
K3 snapshot counts X/Y/Z from the status matrix at that moment: in full
ledger mode for every non-edge pair (`ledger.oracle_counts_matrix`), in
sampled mode for a fixed witness family (`ledger.sampled_counts`); either
way a pair is named by its code u*n+v.  Nothing is updated between
snapshots; the incremental `PairLedger` is the audit of these counts in the
tests, not part of a run.

Records are line-delimited JSON, one completed trial per line, with the
resolved configuration echoed on the first line.  Given the same config and
base seed the record files are byte-identical; wall-clock timings therefore
live in a sidecar file, never in the records.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import json
import math
import os
import time

import numpy as np

from . import analysis, graphio, k4stats, ledger as ledger_mod, trajectory
from .process import BLOCK, EDGE, K3, K4, N_MAX, ProcessState

MASK64 = (1 << 64) - 1
SEED_STRIDE = 0x9E3779B97F4A7C15  # odd constant for per-trial seed derivation
# the generator each process's records name: SeedSequence(seed).spawn(3) gives
# the process, witness and greedy-alpha streams, and the process draws its
# open-list codes in blocks of process.BLOCK
RNG_NAMES = {p: "numpy.PCG64/SeedSequence.spawn3/%s-block%d" % (p, BLOCK)
             for p in ("K3", "K4")}
# largest n a K3 config may run with ledger_mode = full (n x n counts per snapshot)
N_LEDGER_MAX = 2000


def mix64(x: int) -> int:
    """One round of the splitmix64 finalizer."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def trial_seed(base_seed: int, trial_index: int) -> int:
    return mix64((base_seed ^ (trial_index * SEED_STRIDE)) & MASK64)


@dataclasses.dataclass
class ExperimentConfig:
    process: str = "K3"                 # K3 | K4
    n_list: tuple = (100,)
    trials: int = 1
    base_seed: int = 0
    snapshot_stride: str | int = "auto"  # steps between snapshots
    ledger_mode: str = "auto"            # auto | full | sampled
    witness_pairs: int = 200
    stop: str = "full"                   # full | paper | t:<float> | steps:<int>
    mu: float = 1.0 / 32.0
    k4_witness_pairs: int = 50
    k4_witness_triples: int = 50
    exact_alpha_cap: int = analysis.EXACT_CAP
    greedy_repeats: int = 32
    workers: int = 1

    def __post_init__(self):
        if self.process not in ("K3", "K4"):
            raise ValueError("process must be K3 or K4")
        self.n_list = tuple(int(n) for n in self.n_list)
        if not self.n_list:
            raise ValueError("n_list must be nonempty")
        if len(set(self.n_list)) != len(self.n_list):
            raise ValueError("n_list repeats an n: %s" % (self.n_list,))
        n_min = 4 if self.process == "K4" else 2  # K4 witnesses need disjoint pairs
        if min(self.n_list) < n_min:
            raise ValueError("n_list needs every n >= %d for process %s, got %s"
                             % (n_min, self.process, self.n_list))
        if max(self.n_list) > N_MAX:
            raise ValueError("n_list needs every n <= %d (int32 pair codes), got %s"
                             % (N_MAX, self.n_list))
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.greedy_repeats < 1:
            raise ValueError("config key greedy_repeats: must be >= 1, got %d"
                             % self.greedy_repeats)
        for name in ("witness_pairs", "k4_witness_pairs", "k4_witness_triples"):
            if getattr(self, name) < 0:
                raise ValueError("config key %s: must be >= 0, got %d"
                                 % (name, getattr(self, name)))
        stride = self.snapshot_stride
        if stride != "auto" and not (isinstance(stride, int) and stride >= 1):
            raise ValueError("snapshot_stride must be 'auto' or an int >= 1, got %r"
                             % (stride,))
        if self.ledger_mode not in ("auto", ledger_mod.FULL, ledger_mod.SAMPLED):
            raise ValueError("ledger_mode must be auto, full or sampled, got %r"
                             % (self.ledger_mode,))
        _stop_arg(self.stop)
        if not 0 < self.mu < math.inf:
            raise ValueError("config key mu: must be finite and positive, got %r"
                             % (self.mu,))
        if self.workers < 1:
            raise ValueError("config key workers: must be >= 1, got %d" % self.workers)
        if (self.process == "K3" and self.ledger_mode == ledger_mod.FULL
                and max(self.n_list) > N_LEDGER_MAX):
            raise ValueError("config key ledger_mode: full allows n <= %d, got n=%d; "
                             "use ledger_mode = sampled"
                             % (N_LEDGER_MAX, max(self.n_list)))

    @property
    def rule(self) -> int:
        return K3 if self.process == "K3" else K4

    def to_dict(self):
        d = dataclasses.asdict(self)
        d["n_list"] = list(self.n_list)
        return d


_LIST_KEYS = {"n_list"}
_INT_KEYS = {"trials", "base_seed", "witness_pairs", "k4_witness_pairs",
             "k4_witness_triples", "exact_alpha_cap", "greedy_repeats", "workers"}
_FLOAT_KEYS = {"mu"}
_STR_KEYS = {"process", "ledger_mode", "stop", "snapshot_stride"}


def parse_config(text: str, overrides=None) -> ExperimentConfig:
    """Flat key=value config; '#' starts a comment, lists are comma-separated."""
    kv = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError("bad config line: %r" % raw)
        key, val = (s.strip() for s in line.split("=", 1))
        kv[key] = val
    if overrides:
        kv.update({k: str(v) for k, v in overrides.items() if v is not None})
    args = {}
    for key, val in kv.items():
        if key not in _LIST_KEYS | _INT_KEYS | _FLOAT_KEYS | _STR_KEYS:
            raise ValueError("unknown config key %r" % key)
        try:
            if key in _LIST_KEYS:
                args[key] = tuple(int(s) for s in val.split(",") if s.strip())
            elif key in _INT_KEYS or (key == "snapshot_stride" and val != "auto"):
                args[key] = int(val)
            elif key in _FLOAT_KEYS:
                args[key] = float(val)
            else:
                args[key] = val
        except ValueError:
            raise ValueError("config key %s: bad value %r" % (key, val)) from None
    return ExperimentConfig(**args)


def load_config(path, overrides=None) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), overrides)


# ---------------------------------------------------------------- resolution

def resolve_stride(cfg: ExperimentConfig, n: int) -> int:
    if cfg.snapshot_stride == "auto":
        return max(1, round(trajectory.time_scale(cfg.rule, n) / 100.0))
    return int(cfg.snapshot_stride)


def _stop_arg(spec: str):
    """The number of a 't:<float>' or 'steps:<int>' stop spec (None for
    'full' and 'paper'); ValueError naming the key for anything else."""
    if spec in ("full", "paper"):
        return None
    kind, _, arg = spec.partition(":")
    try:
        val = {"t": float, "steps": int}[kind](arg)
    except (KeyError, ValueError):
        val = None
    if val is None or not 0 <= val < math.inf:
        raise ValueError("config key stop: bad value %r (full | paper | "
                         "t:<float >= 0> | steps:<int >= 0>)" % (spec,))
    return val


def resolve_stop(cfg: ExperimentConfig, n: int):
    spec = cfg.stop
    if spec == "full":
        return None
    if spec == "paper":
        if cfg.rule == K3:
            return math.ceil(cfg.mu * math.sqrt(math.log(n)) * trajectory.time_scale(K3, n))
        return math.ceil(cfg.mu * trajectory.time_scale(K4, n) * math.log(n) ** 0.2)
    if spec.startswith("t:"):
        return round(_stop_arg(spec) * trajectory.time_scale(cfg.rule, n))
    return _stop_arg(spec)


def resolve_ledger_mode(cfg: ExperimentConfig, n: int) -> str:
    mode = cfg.ledger_mode
    if mode == "auto":
        return ledger_mod.FULL if n <= 64 else ledger_mod.SAMPLED
    return mode


# -------------------------------------------------------------------- trials

def _k3_snapshot(state, n, witness_codes):
    """Snapshot of Q and the X/Y/Z counts of the tracked non-edge pairs:
    every pair recounted from S (witness_codes None, full mode), or the
    sorted witness codes (sampled mode).  Pairs are labelled by code u*n+v."""
    i = state.steps
    t, (q_pred, x_pred, y_pred, _), _ = trajectory.k3_centers(n, i)
    if witness_codes is None:
        # codes of the non-edge pairs u < v, in row-major order
        labels = np.flatnonzero(np.triu(state.status_matrix() != EDGE, 1))
        xs, ys, zs = (m.ravel()[labels] for m in ledger_mod.oracle_counts_matrix(state))
    else:
        labels = witness_codes[state.status_matrix().ravel()[witness_codes] != EDGE]
        xs, ys, zs = ledger_mod.sampled_counts(state, labels)
    report = trajectory.k3_bad_event(n, i, state.open_count, labels, xs, ys, zs)
    return {
        "i": i,
        "t": t,
        "Q": state.open_count,
        "x_mean": float(xs.mean()) if len(xs) else 0.0,
        "x_max": int(xs.max()) if len(xs) else 0,
        "y_mean": float(ys.mean()) if len(ys) else 0.0,
        "y_max": int(ys.max()) if len(ys) else 0,
        "z_max": int(zs.max()) if len(zs) else 0,
        "q_pred": q_pred,
        "x_pred": x_pred,
        "y_pred": y_pred,
        "violations": len(report.violations),
    }


def _k4_snapshot(state, n, pairs, triples):
    """Snapshot of Q and the mean witness counts of the pairs (k x 2) and
    triples (k x 3) that are not frozen."""
    i = state.steps
    t, q_pred, x_pred, y_pred = trajectory.k4_centers(n, i)
    sm = state.status_matrix()
    x, frozen = k4stats.k4_witness_counts(sm, pairs)
    pairs, x = pairs[~frozen], x[~frozen]
    y, frozen = k4stats.k4_triple_counts(sm, triples)
    triples, y = triples[~frozen], y[~frozen]
    report = trajectory.k4_bad_event(
        n, i, state.open_count,
        [("%d-%d" % tuple(A), c) for A, c in zip(pairs.tolist(), x.tolist())],
        [("%d-%d-%d" % tuple(A), c) for A, c in zip(triples.tolist(), y.tolist())])
    return {
        "i": i,
        "t": t,
        "Q": state.open_count,
        "q_pred": q_pred,
        "x_mean": x.mean(axis=0).tolist() if len(x) else [0.0] * 5,
        "x_pred": x_pred,
        "y_mean": y.mean(axis=0).tolist() if len(y) else [0.0] * 4,
        "y_pred": y_pred,
        "y3_max": int(y[:, 3].max()) if len(y) else 0,
        "witness_pairs": len(x),
        "witness_triples": len(y),
        "violations": len(report.violations),
    }


def _pair_codes(n, ids):
    """Codes u*n+v of the pairs u < v numbered 0, 1, 2, ... in row-major
    order; sorted ids give sorted codes."""
    rows = np.arange(n)
    starts = rows * (2 * n - rows - 1) // 2  # the id of the pair (u, u+1)
    us = np.searchsorted(starts, ids, side="right") - 1
    return us * n + ids - starts[us] + us + 1


def _draw_vertex_sets(rng, n, size, count):
    """count x size array of sorted vertex sets, each drawn without replacement."""
    sets = np.array([rng.choice(n, size=size, replace=False) for _ in range(count)],
                    dtype=np.intp).reshape(count, size)
    sets.sort(axis=1)
    return sets


def run_trial(cfg: ExperimentConfig, n: int, trial: int, global_index: int,
              phases: dict | None = None):
    """One deterministic trial: (record, edge_log).  The record is a plain
    JSON-serializable dict; edge_log is the trial's edges in the order added.
    A `phases` dict receives the wall seconds spent in the process, the
    snapshots and alpha (process_s, snapshot_s, alpha_s), and the steps."""
    clock = time.perf_counter
    spent = {"process_s": 0.0, "snapshot_s": 0.0, "alpha_s": 0.0}
    seed = trial_seed(cfg.base_seed, global_index)
    rng, witness_rng, alpha_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3))
    rule = cfg.rule
    state = ProcessState(n, rule)
    stride = resolve_stride(cfg, n)
    stop = resolve_stop(cfg, n)
    snapshots = []
    if rule == K4:
        family = (_draw_vertex_sets(witness_rng, n, 2, cfg.k4_witness_pairs),
                  _draw_vertex_sets(witness_rng, n, 3, cfg.k4_witness_triples))
    elif resolve_ledger_mode(cfg, n) == ledger_mod.SAMPLED:
        k = min(cfg.witness_pairs, state.npairs)
        family = (_pair_codes(n, np.sort(witness_rng.choice(state.npairs, size=k,
                                                            replace=False))),)
    else:
        family = (None,)  # full mode: every pair
    take = _k3_snapshot if rule == K3 else _k4_snapshot

    def snapshot():
        t0 = clock()
        snapshots.append(take(state, n, *family))
        spent["snapshot_s"] += clock() - t0

    snapshot()
    while state.open_count and (stop is None or state.steps < stop):
        left = stride - state.steps % stride
        t0 = clock()
        state.advance(rng, left if stop is None else min(left, stop - state.steps))
        spent["process_s"] += clock() - t0
        if state.steps % stride == 0:
            snapshot()
    if snapshots[-1]["i"] != state.steps:
        snapshot()

    completed = state.open_count == 0
    t0 = clock()
    adj = state.status_matrix() == EDGE
    deg = np.count_nonzero(adj, axis=1)
    delta = int(deg.max())
    greedy = analysis.independence_greedy(adj, alpha_rng, cfg.greedy_repeats)
    alpha, witness = greedy.value, greedy.witness
    if rule == K3 and delta > alpha:
        # in a triangle-free graph every neighborhood is independent; take
        # the lowest-numbered vertex of largest degree
        alpha, witness = delta, np.flatnonzero(adj[deg.argmax()]).tolist()
    alpha_exact = None
    if n <= cfg.exact_alpha_cap:
        alpha_exact = analysis.independence_exact(adj, cfg.exact_alpha_cap).value
    spent["alpha_s"] += clock() - t0
    if phases is not None:
        phases.update(spent, steps=state.steps)
    record = {
        "run_id": "n%d-t%d" % (n, trial),
        "n": n,
        "rule": cfg.process,
        "trial": trial,
        "seed": seed,
        "rng": RNG_NAMES[cfg.process],
        "steps": state.steps,
        "completed": completed,
        "M": state.steps if completed else None,
        "snapshots": snapshots,
        "alpha": alpha,
        "alpha_witness": witness,
        "alpha_exact": alpha_exact,
        "max_degree": delta,
        "violations_total": int(sum(s["violations"] for s in snapshots)),
    }
    return record, state.edge_log


def _timed_trial(cfg, n, trial, gidx):
    t0 = time.perf_counter()
    phases = {}
    rec, edge_log = run_trial(cfg, n, trial, gidx, phases)
    return rec, edge_log, time.perf_counter() - t0, phases


def _trial_job(args):
    cfg_dict, n, trial, gidx = args
    return _timed_trial(ExperimentConfig(**cfg_dict), n, trial, gidx)


def run_experiment(cfg: ExperimentConfig, out_dir=None, edge_logs=False):
    """All trials over cfg.n_list; records persisted incrementally when
    out_dir is given (records.jsonl + timings.txt sidecar).  With edge_logs
    each trial's edges also go to edges/<run_id>.edges and its final graph
    to final_graphs.g6, one line per trial."""
    jobs = []
    gidx = 0
    for n in cfg.n_list:
        for trial in range(cfg.trials):
            jobs.append((n, trial, gidx))
            gidx += 1
    fh = timing_fh = g6_fh = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        fh = open(os.path.join(out_dir, "records.jsonl"), "w", encoding="utf-8")
        fh.write(json.dumps({"config": cfg.to_dict()}, sort_keys=True) + "\n")
        fh.flush()
        timing_fh = open(os.path.join(out_dir, "timings.txt"), "w", encoding="utf-8")
        if edge_logs:
            logs_dir = os.path.join(out_dir, "edges")
            os.makedirs(logs_dir, exist_ok=True)
            g6_fh = open(os.path.join(out_dir, "final_graphs.g6"), "w", encoding="utf-8")
    records = []

    def emit(rec, edge_log, elapsed, phases):
        records.append(rec)
        if fh is not None:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
            fh.flush()
            timing_fh.write("%s %.3fs process=%.3fs snapshot=%.3fs alpha=%.3fs steps=%d\n"
                            % (rec["run_id"], elapsed, phases["process_s"],
                               phases["snapshot_s"], phases["alpha_s"], phases["steps"]))
            timing_fh.flush()
        if g6_fh is not None:
            graphio.write_edge_log(os.path.join(logs_dir, rec["run_id"] + ".edges"),
                                   rec["n"], cfg.rule, rec["seed"], edge_log)
            g6_fh.write(graphio.graph6_line(rec["n"], edge_log) + "\n")
            g6_fh.flush()

    try:
        if cfg.workers <= 1:
            for n, trial, g in jobs:
                emit(*_timed_trial(cfg, n, trial, g))
        else:
            cfg_dict = cfg.to_dict()
            with concurrent.futures.ProcessPoolExecutor(cfg.workers) as pool:
                futs = [pool.submit(_trial_job, (cfg_dict, n, trial, g))
                        for n, trial, g in jobs]
                for fut in futs:  # completion order (n, trial): submission order
                    emit(*fut.result())
    finally:
        for f in (fh, timing_fh, g6_fh):
            if f is not None:
                f.close()
    return records


def load_records(path):
    """Read a records.jsonl file (or directory containing one).  Returns
    (config_dict, records)."""
    if os.path.isdir(path):
        path = os.path.join(path, "records.jsonl")
    config = None
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            if "config" in obj and "run_id" not in obj:
                config = obj["config"]
            else:
                records.append(obj)
    return config, records


# ------------------------------------------------------------------ plotting

def write_csv(path, columns, rows, comment=None):
    """A CSV file: '# <comment>' if given, the header, then one line per row
    with floats as repr and everything else as str.  Returns path."""
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            fh.write("# %s\n" % comment)
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")
    return path


K3_TRAJ_COLUMNS = ["n", "run_id", "i", "t", "Q", "Q_pred", "X_mean", "X_pred",
                   "Y_mean", "Y_pred", "Z_max", "violations"]
K4_TRAJ_COLUMNS = (["n", "run_id", "i", "t", "Q", "Q_pred"]
                   + ["X%d_mean" % f for f in range(5)] + ["X%d_pred" % f for f in range(5)]
                   + ["Y%d_mean" % f for f in range(4)] + ["Y%d_pred" % f for f in range(3)]
                   + ["Y3_max", "violations"])
# per rule: its CSV, its columns, and a snapshot's values between Q_pred and
# violations
_TRAJ_CSV = {
    "K3": ("trajectory.csv", K3_TRAJ_COLUMNS,
           lambda s: [s[k] for k in ("x_mean", "x_pred", "y_mean", "y_pred", "z_max")]),
    "K4": ("k4_trajectory.csv", K4_TRAJ_COLUMNS,
           lambda s: s["x_mean"] + s["x_pred"] + s["y_mean"] + s["y_pred"] + [s["y3_max"]]),
}


def emit_plotdata(records, out_dir, config=None):
    """Per-step trajectory CSVs plus the Ramsey summary CSV."""
    if not records:
        raise ValueError("no records")
    os.makedirs(out_dir, exist_ok=True)
    echo = "config: %s" % json.dumps(config or {}, sort_keys=True)
    paths = []
    for rule, (name, columns, middle) in _TRAJ_CSV.items():
        rows = [[r["n"], r["run_id"], s["i"], s["t"], s["Q"], s["q_pred"], *middle(s),
                 s["violations"]] for r in records if r["rule"] == rule for s in r["snapshots"]]
        if rows:
            paths.append(write_csv(os.path.join(out_dir, name), columns, rows, echo))
    done = [r for r in records if r["completed"]]
    if done:
        cols = analysis.SUMMARY_COLUMNS
        rows = ([row[c] for c in cols] for row in analysis.ramsey_summary(done))
        paths.append(write_csv(os.path.join(out_dir, "summary.csv"), cols, rows, echo))
    return paths
