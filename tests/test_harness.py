import dataclasses
import json
import math

import numpy as np
import pytest

from conftest import has_clique, k3_bad_event_scalar, sampled_counts_loop, upper_codes
from hfree import analysis, cli, harness, process, trajectory
from hfree.ledger import FULL, PairLedger
from hfree.process import EDGE, ProcessState
from hfree.harness import (
    ExperimentConfig,
    load_records,
    mix64,
    parse_config,
    resolve_ledger_mode,
    resolve_stop,
    resolve_stride,
    run_experiment,
    run_trial,
    trial_seed,
)


def test_mix64_reference_vectors():
    # trial_seed(0, k) walks the splitmix64 stream seeded with 0
    assert trial_seed(0, 1) == 0xE220A8397B1DCDAF
    assert trial_seed(0, 2) == 0x6E789E6AA1B965F4
    assert trial_seed(0, 3) == 0x06C45D188009454F
    assert mix64(0) == 0
    assert trial_seed(7, 3) != trial_seed(7, 4)


def test_parse_config():
    cfg = parse_config("""
# comment
process = K4
n_list = 50, 100   # trailing comment
trials = 3
base_seed = 17
mu = 0.5
stop = t:0.2
""")
    assert cfg.process == "K4"
    assert cfg.n_list == (50, 100)
    assert cfg.trials == 3
    assert cfg.mu == 0.5
    assert cfg.stop == "t:0.2"


def test_parse_config_overrides_and_errors():
    cfg = parse_config("process=K3\nn_list=10\n", {"base_seed": 5, "trials": None})
    assert cfg.base_seed == 5
    with pytest.raises(ValueError):
        parse_config("bogus_key=1\n")
    with pytest.raises(ValueError):
        parse_config("process=K5\n")
    with pytest.raises(ValueError):
        parse_config("process=K3\nn_list=\n")
    with pytest.raises(ValueError):
        parse_config("no equals sign here\n")
    with pytest.raises(ValueError, match="snapshot_stride"):
        parse_config("process=K3\nn_list=20\nsnapshot_stride=0\n")
    with pytest.raises(ValueError, match="snapshot_stride"):
        ExperimentConfig(n_list=(20,), snapshot_stride=-3)
    with pytest.raises(ValueError, match="n_list"):
        parse_config("process=K3\nn_list=20, 20\ntrials=2\n")
    # a value that does not convert names its key and the value
    for line, key in [("trials = abc", "trials"), ("mu = x", "mu"),
                      ("n_list = 20, 3x", "n_list"),
                      ("snapshot_stride = often", "snapshot_stride")]:
        with pytest.raises(ValueError, match=key) as err:
            parse_config("process=K3\n" + line + "\n")
        assert repr(line.split("=")[1].strip()) in str(err.value)
    # values that convert but cannot run fail at parse time, naming the key
    for text, key in [("process=K3\nn_list = 12, 1\n", "n_list"),
                      ("process=K3\nn_list=20\nstop = t:abc\n", "stop"),
                      ("process=K3\nn_list=20\nstop = steps:-1\n", "stop"),
                      ("process=K3\nn_list=20\nstop = t:nan\n", "stop"),
                      ("process=K3\nn_list=20\nstop = often\n", "stop"),
                      ("process=K4\nn_list=20\nledger_mode = fool\n", "ledger_mode"),
                      ("process=K3\nn_list=20\nledger_mode = fool\n", "ledger_mode"),
                      ("process=K3\nn_list=20\ngreedy_repeats = 0\n", "greedy_repeats"),
                      ("process=K3\nn_list=20\ngreedy_repeats = -4\n", "greedy_repeats"),
                      ("process=K3\nn_list=20, 80\nwitness_pairs = -1\n", "witness_pairs"),
                      ("process=K4\nn_list=20\nk4_witness_pairs = -3\n",
                       "k4_witness_pairs"),
                      ("process=K4\nn_list=20\nk4_witness_triples = -1\n",
                       "k4_witness_triples"),
                      ("process=K3\nn_list = 20, 2001\nledger_mode = full\n",
                       "ledger_mode"),
                      ("process=K4\nn_list = 20, 3\n", "n_list"),
                      ("process=K4\nn_list = 2\n", "n_list"),
                      # pair codes u*n+v above int32; nothing is allocated
                      ("process=K3\nn_list = 20, 46341\n", "n_list"),
                      ("process=K4\nn_list = 46341\nledger_mode = sampled\n", "n_list"),
                      ("process=K3\nn_list=20\nmu = nan\nstop = paper\n", "mu"),
                      ("process=K3\nn_list=20\nmu = inf\nstop = paper\n", "mu"),
                      ("process=K3\nn_list=20\nworkers = 0\n", "workers"),
                      ("process=K3\nn_list=20\nworkers = -2\n", "workers")]:
        with pytest.raises(ValueError, match=key):
            parse_config(text)
    # the smallest legal values still parse
    cfg = parse_config("process=K3\nn_list=20\ngreedy_repeats=1\nwitness_pairs=0\n"
                       "k4_witness_pairs=0\nk4_witness_triples=0\n")
    assert (cfg.greedy_repeats, cfg.witness_pairs) == (1, 0)
    # the cap is the largest n that may run full; K4 never builds a ledger
    assert parse_config("process=K3\nn_list=20, %d\nledger_mode=full\n"
                        % harness.N_LEDGER_MAX).n_list == (20, harness.N_LEDGER_MAX)
    big = harness.N_LEDGER_MAX + 1
    assert parse_config("process=K4\nn_list=20, %d\nledger_mode=full\n"
                        % big).n_list == (20, big)
    # the smallest n a K4 config may list
    assert parse_config("process=K4\nn_list=4\n").n_list == (4,)
    for stop in ("full", "paper", "t:0", "t:0.25", "steps:0", "steps:40"):
        assert parse_config("process=K3\nn_list=2\nstop=%s\n" % stop).stop == stop


def test_config_keys_round_trip():
    # every field away from its default, written as key = value text, parses
    # back to an equal config; snapshot_stride as an int and as auto
    fields = dict(process="K4", n_list=(12, 30), trials=3, base_seed=77,
                  snapshot_stride=7, ledger_mode="sampled", witness_pairs=11,
                  stop="t:0.3", mu=0.125, k4_witness_pairs=9, k4_witness_triples=8,
                  exact_alpha_cap=20, greedy_repeats=5, workers=2)
    default = ExperimentConfig()
    assert set(fields) == {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert all(value != getattr(default, key) for key, value in fields.items())
    for stride in (7, "auto"):
        cfg = ExperimentConfig(**dict(fields, snapshot_stride=stride))
        text = "".join("%s = %s\n" % (key, ", ".join(map(str, value))
                                       if isinstance(value, list) else value)
                       for key, value in cfg.to_dict().items())
        assert parse_config(text) == cfg


def test_parse_config_rejects_a_repeated_key(tmp_path, capsys):
    # the file may give a key once; an override still replaces its value
    text = "process=K3\nn_list=10\ntrials = 2\ntrials = 5\n"
    with pytest.raises(ValueError, match="trials"):
        parse_config(text)
    assert parse_config("process=K3\nn_list=10\ntrials=2\n", {"trials": 5}).trials == 5
    (tmp_path / "twice.cfg").write_text(text)
    assert cli.main(["run", "--config", str(tmp_path / "twice.cfg"),
                     "--out", str(tmp_path / "out"), "--trials", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not (tmp_path / "out").exists()
    assert len(captured.err.splitlines()) == 1 and "trials" in captured.err


def test_resolvers():
    cfg = ExperimentConfig(process="K3", n_list=(100,), snapshot_stride="auto")
    assert resolve_stride(cfg, 100) == round(100 ** 1.5 / 100)
    cfg2 = ExperimentConfig(process="K3", n_list=(100,), snapshot_stride=25)
    assert resolve_stride(cfg2, 100) == 25
    assert resolve_stop(cfg, 100) is None
    cfgp = ExperimentConfig(process="K3", n_list=(100,), stop="paper")
    assert resolve_stop(cfgp, 100) == math.ceil(
        (1 / 32) * math.sqrt(math.log(100)) * 100 ** 1.5)
    cfgt = ExperimentConfig(process="K3", n_list=(100,), stop="t:0.1")
    assert resolve_stop(cfgt, 100) == round(0.1 * 100 ** 1.5)
    cfgs = ExperimentConfig(process="K3", n_list=(100,), stop="steps:42")
    assert resolve_stop(cfgs, 100) == 42
    with pytest.raises(ValueError):
        resolve_stop(ExperimentConfig(process="K3", n_list=(10,), stop="bogus"), 10)


def test_ledger_mode_resolution():
    cfg = ExperimentConfig(process="K3", n_list=(10,), ledger_mode="auto")
    assert resolve_ledger_mode(cfg, 50) == "full"
    assert resolve_ledger_mode(cfg, 500) == "sampled"
    with pytest.raises(ValueError):
        ExperimentConfig(process="K3", n_list=(harness.N_LEDGER_MAX + 1,),
                         ledger_mode="full")


def test_run_trial_record_shape():
    cfg = ExperimentConfig(process="K3", n_list=(20,), trials=1, base_seed=9)
    rec, _ = run_trial(cfg, 20, 0, 0)
    assert rec["run_id"] == "n20-t0"
    assert rec["completed"] and rec["M"] == rec["steps"]
    assert rec["rng"] == harness.RNG_NAMES["K3"]
    assert rec["snapshots"][0]["i"] == 0
    assert rec["snapshots"][0]["Q"] == 190
    assert rec["snapshots"][-1]["i"] == rec["steps"]
    assert rec["snapshots"][-1]["Q"] == 0
    assert rec["max_degree"] <= rec["alpha"]
    assert rec["alpha_exact"] is not None and rec["alpha"] <= rec["alpha_exact"]
    json.dumps(rec)  # must be serializable as-is


def test_full_mode_snapshots_match_incremental_ledger():
    # full-mode snapshots recount X/Y/Z from S; the incremental ledger,
    # replayed over the trial's own edges, must give the same statistics
    for n in (20, 40, 60):
        cfg = ExperimentConfig(process="K3", n_list=(n,), ledger_mode="full",
                               base_seed=n)
        for trial in range(3):
            rec, edge_log = run_trial(cfg, n, trial, trial)
            snaps = {s["i"]: s for s in rec["snapshots"]}
            st = ProcessState(n, 3)
            led = PairLedger(st, FULL)
            for step in range(len(edge_log) + 1):
                if step:
                    led.apply_edge(st.add_edge(*edge_log[step - 1]), st)
                snap = snaps.pop(step, None)
                if snap is None:
                    continue
                nonedge = np.triu(st.status_matrix() != EDGE, 1)
                xs, ys, zs = led.x[nonedge], led.y[nonedge], led.z[nonedge]
                rows = zip(np.flatnonzero(nonedge).tolist(), xs.tolist(),
                           ys.tolist(), zs.tolist())
                found = k3_bad_event_scalar(n, step, st.open_count, rows)
                assert (snap["x_max"], snap["y_max"], snap["z_max"],
                        snap["x_mean"], snap["y_mean"], snap["violations"]) == (
                    int(xs.max()), int(ys.max()), int(zs.max()),
                    float(xs.mean()), float(ys.mean()), len(found))
            assert not snaps and len(rec["snapshots"]) > 10


def test_k3_edge_log_does_not_depend_on_snapshot_stride():
    # advance stops at every snapshot and carries its unused draws over, so
    # the edges depend on the seed alone, under either rule
    for process, n, seed in (("K3", 40, 5), ("K3", 40, 6), ("K3", 100, 7),
                             ("K4", 40, 5), ("K4", 100, 7)):
        logs = []
        for stride in (1, "auto", 13):
            cfg = ExperimentConfig(process=process, n_list=(n,), base_seed=seed,
                                   snapshot_stride=stride, witness_pairs=20,
                                   k4_witness_pairs=5, k4_witness_triples=5)
            rec, edge_log = run_trial(cfg, n, 0, 0)
            assert rec["completed"] and len(edge_log) == rec["M"]
            logs.append(edge_log)
        assert np.array_equal(logs[0], logs[1]) and np.array_equal(logs[0], logs[2])


def test_run_trial_k4_record():
    cfg = ExperimentConfig(process="K4", n_list=(16,), trials=1, base_seed=3,
                           k4_witness_pairs=5, k4_witness_triples=5)
    rec, _ = run_trial(cfg, 16, 0, 0)
    assert rec["completed"]
    snap = rec["snapshots"][0]
    assert len(snap["x_mean"]) == 5 and len(snap["y_mean"]) == 4
    assert snap["x_mean"][0] == 14 * 13 // 2
    json.dumps(rec)


@pytest.mark.parametrize("rule, n, family", [
    ("K3", 80, dict(ledger_mode="sampled", witness_pairs=0)),
    ("K4", 30, dict(k4_witness_pairs=0, k4_witness_triples=0)),
])
def test_run_trial_with_empty_witness_families(rule, n, family):
    # every snapshot counts a family of k = 0 members
    cfg = ExperimentConfig(process=rule, n_list=(n,), base_seed=4, stop="t:0.3", **family)
    rec, _ = run_trial(cfg, n, 0, 0)
    assert rec["steps"] == resolve_stop(cfg, n) and len(rec["snapshots"]) > 1
    for snap in rec["snapshots"]:
        if rule == "K3":
            assert snap["x_mean"] == snap["y_mean"] == 0.0
            assert snap["x_max"] == snap["y_max"] == snap["z_max"] == 0
        else:
            assert snap["x_mean"] == [0.0] * 5 and snap["y_mean"] == [0.0] * 4
            assert snap["y3_max"] == 0
            assert snap["witness_pairs"] == snap["witness_triples"] == 0


def test_snapshot_preds_are_the_bad_event_centers():
    # a forced violation of each variable carries the center the scan used;
    # the record's *_pred entries must be those same floats
    big = 10 ** 100
    for process, n in (("K3", 80), ("K4", 400)):
        cfg = ExperimentConfig(process=process, n_list=(n,), base_seed=4, stop="t:0.3",
                               witness_pairs=5, k4_witness_pairs=2, k4_witness_triples=2)
        rec, _ = run_trial(cfg, n, 0, 0)
        assert len(rec["snapshots"]) > 20
        for s in rec["snapshots"]:
            if process == "K3":
                rep = trajectory.k3_bad_event(n, s["i"], big, ["p"], [big], [big], [0])
                want = [s["q_pred"], s["x_pred"], s["y_pred"]]
            else:
                rep = trajectory.k4_bad_event(n, s["i"], big, [(0, 1)], [[big] * 5],
                                              [(0, 1, 2)], [[big] * 4])
                want = [s["q_pred"], *s["x_pred"], *s["y_pred"], 0.0]
            assert [v.center for v in rep] == want


def test_sampled_mode_labels_are_codes_of_the_counted_pairs(monkeypatch):
    # at n > 64 a K3 trial counts a drawn witness family; each label that
    # reaches the scan is the code u*n+v, u < v, of a non-edge pair whose
    # X/Y/Z are the counts of the two rows it names at that step
    # pair_codes numbers every pair in row-major order
    for m in (2, 3, 4, 5, 62, 63, 64, 65, 90, 300):
        codes = upper_codes(m)
        assert np.array_equal(codes, process.pair_codes(m, np.arange(len(codes))))
    n = 90
    seen = []
    scan = trajectory.k3_bad_event

    def spy(n, i, q_count, labels, xs, ys, zs):
        seen.append((i, np.asarray(labels), xs, ys, zs))
        return scan(n, i, q_count, labels, xs, ys, zs)

    monkeypatch.setattr(trajectory, "k3_bad_event", spy)
    cfg = ExperimentConfig(process="K3", n_list=(n,), base_seed=5, witness_pairs=60)
    assert resolve_ledger_mode(cfg, n) == "sampled"
    rec, edge_log = run_trial(cfg, n, 0, 0)
    assert len(seen) == len(rec["snapshots"]) > 20
    family = seen[0][1]
    assert len(family) == 60 and np.all(np.diff(family) > 0)
    st = ProcessState(n, 3)
    for i, labels, *counts in seen:
        while st.steps < i:
            st.add_edge(*edge_log[st.steps])
        u, v = np.divmod(labels, n)
        assert np.all(u < v) and np.isin(labels, family).all()
        assert np.array_equal(labels, family[st.status_matrix()[divmod(family, n)] != EDGE])
        for got, want in zip(counts, sampled_counts_loop(st, labels)):
            assert np.array_equal(got, want)
    assert len(seen[-1][1]) < 60  # some witnesses became edges


def test_run_trial_edge_log_is_an_exact_int32_array():
    for rule, stop in (("K3", "full"), ("K3", "steps:70"), ("K4", "full")):
        cfg = ExperimentConfig(process=rule, n_list=(30,), stop=stop)
        rec, edge_log = run_trial(cfg, 30, 0, 0)
        assert edge_log.dtype == np.int32 and edge_log.shape == (rec["steps"], 2)
        assert edge_log.base is None  # a copy: pins neither the log's tail nor S
        assert np.all(edge_log[:, 0] < edge_log[:, 1])


def test_capped_run_has_no_m():
    cfg = ExperimentConfig(process="K3", n_list=(30,), trials=1, stop="steps:10")
    rec, _ = run_trial(cfg, 30, 0, 0)
    assert rec["steps"] == 10 and not rec["completed"] and rec["M"] is None


def test_delta_fallback_takes_lowest_max_degree_vertex(monkeypatch):
    """A greedy bound below the largest degree is replaced by the
    neighbourhood of the lowest-numbered vertex of largest degree."""
    monkeypatch.setattr(analysis, "independence_greedy",
                        lambda adj, rng, repeats: analysis.AlphaResult(1, False, [0]))
    cfg = ExperimentConfig(process="K3", n_list=(40,), trials=3, base_seed=2)
    ties = 0
    for g in range(3):
        rec, edge_log = run_trial(cfg, 40, g, g)
        nbrs = [set() for _ in range(40)]
        for u, v in edge_log:
            nbrs[u].add(v)
            nbrs[v].add(u)
        deg = [len(a) for a in nbrs]
        assert rec["alpha"] == rec["max_degree"] == max(deg) > 1
        assert rec["alpha_witness"] == sorted(nbrs[deg.index(max(deg))])
        ties += deg.count(max(deg)) > 1
    assert ties  # some trial has several vertices of largest degree


def test_experiment_persistence_and_determinism(tmp_path):
    cfg = ExperimentConfig(process="K3", n_list=(12, 16), trials=2, base_seed=21)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    recs1 = run_experiment(cfg, out1)
    recs2 = run_experiment(cfg, out2)
    assert (out1 / "records.jsonl").read_bytes() == (out2 / "records.jsonl").read_bytes()
    # the sidecar: run id, trial seconds, then per-phase seconds and steps
    lines = (out1 / "timings.txt").read_text().splitlines()
    assert len(lines) == 4
    for line, rec in zip(lines, recs1):
        run_id, total, *phases, steps = line.split()
        assert run_id == rec["run_id"] and steps == "steps=%d" % rec["steps"]
        assert [p.split("=")[0] for p in phases] == ["process", "snapshot", "alpha"]
        secs = [float(p.split("=")[1].rstrip("s")) for p in phases]
        # each figure is rounded to the ms
        assert min(secs) >= 0 and sum(secs) <= float(total.rstrip("s")) + 0.002
    config, loaded = load_records(out1)
    assert config["base_seed"] == 21
    assert loaded == recs1 == recs2
    assert [r["run_id"] for r in recs1] == ["n12-t0", "n12-t1", "n16-t0", "n16-t1"]
    # distinct trials use distinct seeds
    assert len({r["seed"] for r in recs1}) == 4


def test_emit_plotdata(tmp_path):
    cfg = ExperimentConfig(process="K3", n_list=(14,), trials=2, base_seed=8)
    recs = run_experiment(cfg, tmp_path / "out")
    config, _ = load_records(tmp_path / "out")
    paths = harness.emit_plotdata(recs, tmp_path / "plot", config)
    traj = (tmp_path / "plot" / "trajectory.csv").read_text().splitlines()
    assert traj[0].startswith("# config:")
    assert traj[1] == ",".join(harness.K3_TRAJ_COLUMNS)
    n_snap = sum(len(r["snapshots"]) for r in recs)
    assert len(traj) == 2 + n_snap
    assert any(p.endswith("summary.csv") for p in paths)
    with pytest.raises(ValueError):
        harness.emit_plotdata([], tmp_path / "plot2")


def test_emit_plotdata_rows_parse_back(tmp_path):
    # K3 and K4 records in one call: every row has a field per column, and
    # every field reads back as the snapshot or summary value it came from
    recs = (run_experiment(ExperimentConfig(process="K3", n_list=(14, 70), trials=2,
                                            base_seed=8))
            + run_experiment(ExperimentConfig(process="K4", n_list=(16,), trials=2,
                                              base_seed=8, k4_witness_pairs=3,
                                              k4_witness_triples=3)))
    harness.emit_plotdata(recs, tmp_path, {"k": 1})
    want = {"trajectory.csv": [], "k4_trajectory.csv": [], "summary.csv": [
        [row[c] for c in analysis.SUMMARY_COLUMNS] for row in analysis.ramsey_summary(recs)]}
    for rec in recs:
        for s in rec["snapshots"]:
            head = [rec["n"], rec["run_id"], s["i"], s["t"], s["Q"], s["q_pred"]]
            if rec["rule"] == "K3":
                want["trajectory.csv"].append(head + [s[k] for k in (
                    "x_mean", "x_pred", "y_mean", "y_pred", "z_max", "violations")])
            else:
                want["k4_trajectory.csv"].append(
                    head + s["x_mean"] + s["x_pred"] + s["y_mean"] + s["y_pred"]
                    + [s["y3_max"], s["violations"]])
    columns = {"trajectory.csv": harness.K3_TRAJ_COLUMNS,
               "k4_trajectory.csv": harness.K4_TRAJ_COLUMNS,
               "summary.csv": analysis.SUMMARY_COLUMNS}
    for name, rows in want.items():
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[:2] == ['# config: {"k": 1}', ",".join(columns[name])]
        assert len(lines) - 2 == len(rows) > 1
        for line, row in zip(lines[2:], rows):
            fields = line.split(",")
            assert len(fields) == len(columns[name]) == len(row)
            # floats are written as repr, so they read back exactly
            assert [type(v)(f) for f, v in zip(fields, row)] == row


def test_bounds_rejects_bad_spec_in_one_line(capsys):
    assert cli.main(["bounds", "--eta", "1", "--big-n", "2", "--m", "0", "--a", "30"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "positive" in captured.err


def test_verify_rejects_max_trials_below_one(tmp_path, capsys):
    # a cap below 1 would replay fewer records than asked (or none) and
    # still report success
    run_experiment(ExperimentConfig(process="K3", n_list=(10,), trials=2, base_seed=3),
                   tmp_path)
    for k in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--records", str(tmp_path), "--max-trials", k])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.splitlines()[-1] == (
            "hfree verify: error: argument --max-trials: need an integer >= 1, got %r" % k)
    assert cli.main(["verify", "--records", str(tmp_path), "--max-trials", "1"]) == 0
    assert "1/1 records reproduced" in capsys.readouterr().out


def test_cli_end_to_end(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("process=K3\nn_list=12\ntrials=2\nbase_seed=4\n")
    out = tmp_path / "out"
    rc = cli.main(["run", "--config", str(cfg_path), "--out", str(out),
                   "--edge-logs"])
    assert rc == 0
    assert (out / "records.jsonl").exists()
    assert (out / "final_graphs.g6").exists()
    assert (out / "edges" / "n12-t0.edges").exists()
    rc = cli.main(["plot-data", "--records", str(out), "--out", str(tmp_path / "pd")])
    assert rc == 0
    rc = cli.main(["verify", "--records", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "2/2 records reproduced" in captured.out
    rc = cli.main(["bounds", "--eta", "1", "--big-n", "2", "--m", "100",
                   "--a", "30"])
    assert rc == 0
    assert "submartingale" in capsys.readouterr().out


def test_verify_rejects_config_it_cannot_build(tmp_path, capsys):
    # records whose config line holds a key this version does not know, or a
    # value it rejects, fail with one line naming the key, not a traceback
    cfg = ExperimentConfig(process="K3", n_list=(10,), base_seed=3)
    run_experiment(cfg, tmp_path / "ok")
    lines = (tmp_path / "ok" / "records.jsonl").read_text().splitlines()
    for name, change in [("beta", {"beta": 0.5}),
                         ("n_list", {"process": "K4", "n_list": [3]})]:
        config = dict(json.loads(lines[0])["config"], **change)
        path = tmp_path / (name + ".jsonl")
        path.write_text("\n".join([json.dumps({"config": config})] + lines[1:]) + "\n")
        assert cli.main(["verify", "--records", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and name in captured.err


@pytest.mark.parametrize("rule", ["K3", "K4"])
def test_verify_round_trip_over_several_n(tmp_path, capsys, rule):
    # each record carries the seed of its global index in trial_jobs, and
    # verify replays every record with that seed
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("process=%s\nn_list=12, 20\ntrials=2\nbase_seed=9\n" % rule)
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    config, recs = load_records(tmp_path)
    cfg = ExperimentConfig(**config)
    index = {(n, trial): g for n, trial, g in harness.trial_jobs(cfg)}
    assert [(r["n"], r["trial"]) for r in recs] == list(index)
    assert sorted(index.values()) == [0, 1, 2, 3]
    for rec in recs:
        assert rec["seed"] == trial_seed(cfg.base_seed, index[rec["n"], rec["trial"]])
    capsys.readouterr()
    assert cli.main(["verify", "--records", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "4/4 records reproduced"


def test_verify_fails_records_that_are_not_trials_of_their_config(tmp_path, capsys):
    # a record whose n is not in n_list, whose trial is not below trials, or
    # that lacks a trial has no seed in its config: one FAIL line each, not
    # a traceback, and not a replay with the seed of another trial (n10-t1
    # would take the global index of n12-t0)
    run_experiment(ExperimentConfig(process="K3", n_list=(10, 12), base_seed=3), tmp_path)
    lines = (tmp_path / "records.jsonl").read_text().splitlines()
    first = json.loads(lines[1])
    untried = {k: v for k, v in first.items() if k != "trial"}
    strays = [dict(first, n=11, run_id="n11-t0"), dict(first, trial=1, run_id="n10-t1"),
              dict(untried, run_id="n10-t")]
    path = tmp_path / "strays.jsonl"
    path.write_text("\n".join(lines + [json.dumps(r) for r in strays]) + "\n")
    assert cli.main(["verify", "--records", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "PASS n10-t0 reproduces exactly",
        "PASS n12-t0 reproduces exactly",
        "FAIL n11-t0 is not a trial of its config",
        "FAIL n10-t1 is not a trial of its config",
        "FAIL n10-t is not a trial of its config",
        "2/5 records reproduced"]


def test_run_rejects_bad_config_in_one_line(tmp_path, capsys):
    # a value the config rejects names its key; a missing config file, or a
    # missing or unreadable records file for verify and plot-data, names the file
    (tmp_path / "bad.cfg").write_text("process = K4\nn_list = 3\n")
    (tmp_path / "bad.jsonl").write_text("not json\n")
    out = ["--out", str(tmp_path / "out")]
    for argv, key in ((["run", "--config", str(tmp_path / "bad.cfg")] + out, "n_list"),
                      (["run", "--config", str(tmp_path / "missing.cfg")] + out, "missing.cfg"),
                      (["verify", "--records", str(tmp_path / "missing.jsonl")], "missing.jsonl"),
                      (["plot-data", "--records", str(tmp_path / "missing.jsonl")] + out,
                       "missing.jsonl"),
                      (["verify", "--records", str(tmp_path / "bad.jsonl")], "bad.jsonl")):
        rc = cli.main(argv)
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert len(captured.err.splitlines()) == 1 and key in captured.err
    assert not (tmp_path / "out").exists()


def test_stray_record_lines_are_one_line_errors(tmp_path, capsys):
    # a line that is neither the config nor a record (no run_id, not a dict,
    # or both keys), is no JSON at all (blank, or a truncated record), or is
    # a second config (two runs' records joined), fails verify and plot-data
    # with one line naming it, not a KeyError traceback, the decoder's
    # position inside that line, or a replay under the last config
    run_experiment(ExperimentConfig(process="K3", n_list=(10,), base_seed=3), tmp_path)
    lines = (tmp_path / "records.jsonl").read_text().splitlines()
    config = json.loads(lines[0])
    strays = [(json.dumps(stray), "line 3 is neither the config nor a record")
              for stray in ({"n": 12, "trial": 0}, {}, [1], dict(config, run_id="n10-t0"))]
    strays += [("", "line 3: Expecting value"),
               (lines[1][:-1], "line 3: Expecting ',' delimiter"),
               (json.dumps({"config": dict(config["config"], base_seed=4)}),
                "line 3: a second config line")]
    for stray, msg in strays:
        path = tmp_path / "stray.jsonl"
        path.write_text("\n".join(lines + [stray]) + "\n")
        with pytest.raises(ValueError) as exc:
            load_records(path)
        assert str(exc.value) == msg
        for argv in (["verify", "--records", str(path)],
                     ["plot-data", "--records", str(path), "--out", str(tmp_path / "plots")]):
            assert cli.main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == ["cannot read records %s: %s" % (path, msg)]
    assert not (tmp_path / "plots").exists()


def test_verify_rejects_records_of_an_older_generator(tmp_path, capsys):
    # records drawn with another generator cannot be replayed: one line
    # naming both generators, not one FAIL per record; the old name is what
    # K4 records carried before K4 steps drew in blocks
    old = "numpy.PCG64/SeedSequence.spawn3"
    for process in ("K3", "K4"):
        cfg = ExperimentConfig(process=process, n_list=(10,), trials=2, base_seed=3)
        run_experiment(cfg, tmp_path / process)
        lines = (tmp_path / process / "records.jsonl").read_text().splitlines()
        path = tmp_path / (process + "-old.jsonl")
        path.write_text("\n".join(lines[:1] + [json.dumps(dict(json.loads(line), rng=old))
                                                for line in lines[1:]]) + "\n")
        assert cli.main(["verify", "--records", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert old in captured.err and harness.RNG_NAMES[process] in captured.err


def test_cli_seed_override(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("process=K3\nn_list=10\ntrials=1\nbase_seed=4\n")
    cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "a")])
    cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "b"),
              "--seed", "5"])
    _, ra = load_records(tmp_path / "a")
    _, rb = load_records(tmp_path / "b")
    assert ra[0]["seed"] != rb[0]["seed"]


def test_edge_log_replay_matches_seed(tmp_path):
    # the exported edge log is the trial's own graph: reproducible from the
    # recorded seed, consistent with the record and with final_graphs.g6
    from hfree.graphio import graph6_line, parse_edge_log
    for name, text in [("k3", "process=K3\nn_list=15\ntrials=1\nbase_seed=77\n"),
                       ("k4", "process=K4\nn_list=14\ntrials=1\nbase_seed=5\n"
                              "stop=t:0.3\nk4_witness_pairs=5\nk4_witness_triples=5\n")]:
        cfg_path = tmp_path / (name + ".cfg")
        cfg_path.write_text(text)
        out = tmp_path / name
        cli.main(["run", "--config", str(cfg_path), "--out", str(out), "--edge-logs"])
        _, recs = load_records(out)
        rec = recs[0]
        n, rule, seed, edges = parse_edge_log(
            (out / "edges" / (rec["run_id"] + ".edges")).read_text())
        assert n == rec["n"] and int(seed) == rec["seed"]
        assert len(edges) == rec["steps"]
        assert (out / "final_graphs.g6").read_text() == graph6_line(n, edges) + "\n"
        adj = [set() for _ in range(n)]
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        assert not has_clique(adj, range(n), rule)
        if rule == 3:
            assert rec["completed"] and len(edges) == rec["M"]
            assert max(len(a) for a in adj) == rec["max_degree"]
            # maximal: every non-edge has a common neighbour
            assert all(v in adj[u] or adj[u] & adj[v]
                       for u in range(n) for v in range(u + 1, n))
        else:
            assert not rec["completed"] and rec["steps"] == round(0.3 * n ** 1.6)


def test_workers_match_serial(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("process=K3\nn_list=16\ntrials=2\nbase_seed=3\n")
    outs = []
    for workers in ("1", "2"):
        out = tmp_path / ("w" + workers)
        cli.main(["run", "--config", str(cfg_path), "--out", str(out),
                  "--edge-logs", "--workers", workers])
        outs.append(out)
    a, b = outs
    ra = (a / "records.jsonl").read_text().splitlines()
    rb = (b / "records.jsonl").read_text().splitlines()
    # the config line echoes workers; every record line must match
    assert dict(json.loads(ra[0])["config"], workers=2) == json.loads(rb[0])["config"]
    assert ra[1:] == rb[1:] and len(ra) == 3
    names = sorted(p.name for p in (a / "edges").iterdir())
    assert names == ["n16-t0.edges", "n16-t1.edges"]
    assert names == sorted(p.name for p in (b / "edges").iterdir())
    for rel in ["final_graphs.g6"] + ["edges/" + f for f in names]:
        assert (a / rel).read_bytes() == (b / rel).read_bytes()
    # timings come from inside each trial, not from the wait on its future
    for line in (b / "timings.txt").read_text().splitlines():
        assert float(line.split()[1].rstrip("s")) > 0
