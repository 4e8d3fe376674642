import contextlib
import hashlib
import io
import json
import os
import stat
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from endiff.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["audit", "--suite", "bogus"])
    assert exc.value.code == 2
    assert "bogus" in capsys.readouterr().err


def test_landscape_writes_tables(tmp_path, capsys):
    code, out, _ = run_cli(["landscape", "--family", "simple",
                            "--out", str(tmp_path)], capsys)
    assert code == 0
    csv = (tmp_path / "landscape_simple.csv").read_text().splitlines()
    assert csv[0] == "z_sq,f,delta"
    first = csv[1].split(",")
    assert first[0] == "0.00" and float(first[1]) == 2.0 and float(first[2]) == 0.0
    manifest = json.loads((tmp_path / "manifest_landscape.json").read_text())
    assert manifest["command"] == "landscape"
    assert manifest["outputs"]


def test_synth_then_train_then_eval(tmp_path, capsys):
    data = tmp_path / "data"
    code, out, _ = run_cli(["synth", "--per-block", "15", "--blocks", "2",
                            "--feat-dim", "4", "--feat-shift", "2.0",
                            "--seed", "1", "--out", str(data)], capsys)
    assert code == 0
    for name in ("features", "labels", "edges", "split"):
        assert (data / f"{name}.txt").exists()

    run = tmp_path / "run"
    code, out, _ = run_cli([
        "train", "--features", str(data / "features.txt"),
        "--labels", str(data / "labels.txt"),
        "--edges", str(data / "edges.txt"),
        "--split", str(data / "split.txt"),
        "--epochs", "5", "--hidden", "4", "--layers", "1",
        "--out", str(run)], capsys)
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert "test_metric" in summary
    assert (run / "checkpoint.json").exists()
    hist = (run / "history.csv").read_text().splitlines()
    assert hist[0] == "epoch,train_loss,val_metric,test_metric"
    assert len(hist) == 6
    manifest = json.loads((run / "manifest_train.json").read_text())
    assert len(manifest["input_digests"]) == 4

    code, out, _ = run_cli([
        "eval", "--features", str(data / "features.txt"),
        "--labels", str(data / "labels.txt"),
        "--edges", str(data / "edges.txt"),
        "--split", str(data / "split.txt"),
        "--checkpoint", str(run / "checkpoint.json"),
        "--out", str(tmp_path / "eval")], capsys)
    assert code == 0
    values = json.loads(out.strip().splitlines()[-1])
    assert values["metric"] == "accuracy"
    assert 0.0 <= values["test"] <= 1.0


# The benchmark's synth flags (perfbench/workloads.py, size "full").
BENCH_SYNTH = ["--blocks", "4", "--per-block", "500", "--p-in", "0.02", "--p-out", "0.002",
               "--feat-dim", "16", "--feat-shift", "1.0"]

# sha256 of the files `synth` writes with BENCH_SYNTH, as the scalar-draw
# generator (dense_oracles.sbm_generate_loop) makes them; a change to the
# draw stream or the file format fails here.
BENCH_DIGESTS = {
    "1": {
        "features": "c2e12c7231ec46ae14c2671eca3111e0f72d3d12aa07a5637980e14e77861093",
        "labels": "0f5cd824bd098c9ee5d8fc441c64559443e7eaf0e7f04f39b285dc70fce072bf",
        "edges": "9d871c92425c3e1bf1dd005b35fb68c6d8f51cb85a6968a413ddb58143b8bf8d",
        "split": "411a0e1612459b9566124a966b926b9573dcc2bee1cecf8cded735bd254f8b17",
    },
    "7919": {
        "features": "e811baf13ddbe1bc1d3ba3fc04f42bc91d14ec1d1fd9130deeb5cd45ada5faea",
        "labels": "0f5cd824bd098c9ee5d8fc441c64559443e7eaf0e7f04f39b285dc70fce072bf",
        "edges": "2fc28d20ba139a7a39e9d8cf47cb25caa9d3adc7e79e05baeb7500fcc3b3b5ed",
        "split": "b176dd5a497e2747b99373690cb1569d5c2e65f7972fa585b4b46812b4922680",
    },
}


@pytest.mark.parametrize("seed", sorted(BENCH_DIGESTS))
def test_synth_benchmark_inputs_keep_their_digests(tmp_path, capsys, seed):
    code, _, _ = run_cli(["synth", *BENCH_SYNTH, "--seed", seed, "--out", str(tmp_path)],
                         capsys)
    assert code == 0
    got = {name: hashlib.sha256((tmp_path / f"{name}.txt").read_bytes()).hexdigest()
           for name in BENCH_DIGESTS[seed]}
    assert got == BENCH_DIGESTS[seed]


@pytest.mark.parametrize("seed", sorted(BENCH_DIGESTS))
def test_benchmark_features_parse_as_float_does(tmp_path, capsys, monkeypatch, seed):
    import endiff.graphs as graphs

    assert run_cli(["synth", *BENCH_SYNTH, "--seed", seed, "--out", str(tmp_path)],
                   capsys)[0] == 0
    path = tmp_path / "features.txt"
    want = np.array([[float(tok) for tok in line.split()]
                     for line in path.read_text().splitlines()])

    def line_scan(*args):
        raise AssertionError("line scan")

    monkeypatch.setattr(graphs, "_read_lines", line_scan)  # the numpy pass alone
    got = graphs.read_features(path)
    assert got.shape == (2000, 16)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_interrupted_synth_leaves_the_old_files_whole(tmp_path, capsys, monkeypatch):
    argv = ["synth", "--blocks", "2", "--per-block", "20", "--out", str(tmp_path)]
    assert run_cli([*argv, "--seed", "1"], capsys)[0] == 0
    names = [f"{name}.txt" for name in ("features", "labels", "edges", "split")]
    old = {name: (tmp_path / name).read_bytes() for name in names}
    umask = os.umask(0)
    os.umask(umask)
    for name in names:
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o666 & ~umask

    def interrupt(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr("endiff.graphs.os.replace", interrupt)
    with pytest.raises(KeyboardInterrupt):
        main([*argv, "--seed", "2"])
    assert {name: (tmp_path / name).read_bytes() for name in names} == old
    assert not list(tmp_path.glob("*.tmp"))


def test_train_reruns_are_byte_identical(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["train", "--synth", "sbm", "--per-block", "12", "--epochs", "4",
            "--hidden", "4", "--layers", "1", "--seed", "5"]
    assert run_cli(args + ["--out", str(out1)], capsys)[0] == 0
    assert run_cli(args + ["--out", str(out2)], capsys)[0] == 0
    assert (out1 / "history.csv").read_bytes() == (out2 / "history.csv").read_bytes()
    assert (out1 / "checkpoint.json").read_bytes() == (out2 / "checkpoint.json").read_bytes()


def test_train_missing_dataset_is_runtime_error(tmp_path, capsys):
    code, _, err = run_cli(["train", "--out", str(tmp_path)], capsys)
    assert code == 1
    assert "error" in err


def test_train_malformed_file_names_file_and_line(tmp_path, capsys):
    f = tmp_path / "features.txt"
    f.write_text("1.0\nbroken\n")
    l = tmp_path / "labels.txt"
    l.write_text("0\n1\n")
    code, _, err = run_cli(["train", "--features", str(f),
                            "--labels", str(l), "--out", str(tmp_path)], capsys)
    assert code == 1
    assert "features.txt:2" in err


def test_eval_shape_mismatch_is_runtime_error(tmp_path, capsys):
    data = tmp_path / "d"
    run_cli(["synth", "--per-block", "10", "--feat-dim", "4",
             "--out", str(data), "--seed", "0"], capsys)
    run = tmp_path / "r"
    run_cli(["train", "--features", str(data / "features.txt"),
             "--labels", str(data / "labels.txt"),
             "--epochs", "2", "--hidden", "4", "--layers", "1",
             "--out", str(run)], capsys)
    other = tmp_path / "d2"
    run_cli(["synth", "--per-block", "10", "--feat-dim", "6",
             "--out", str(other), "--seed", "0"], capsys)
    code, _, err = run_cli(["eval",
                            "--features", str(other / "features.txt"),
                            "--labels", str(other / "labels.txt"),
                            "--checkpoint", str(run / "checkpoint.json"),
                            "--out", str(tmp_path / "e")], capsys)
    assert code == 1


def test_diffuse_identity_coupling_constant_energy(tmp_path, capsys):
    code, out, _ = run_cli(["diffuse", "--coupling", "identity", "--steps", "5",
                            "--n", "10", "--dim", "3",
                            "--out", str(tmp_path)], capsys)
    assert code == 0
    csv_path = json.loads(out.strip().splitlines()[-1])["csv"]
    rows = [line.split(",") for line in
            open(csv_path).read().strip().splitlines()[1:]]
    energies = [float(r[1]) for r in rows[1:]]  # step 0 has no energy
    assert all(abs(e - energies[0]) < 1e-12 for e in energies)
    diversities = [float(r[2]) for r in rows]
    assert all(abs(d - diversities[0]) < 1e-12 for d in diversities)


def test_diffuse_attention_runs(tmp_path, capsys):
    code, out, _ = run_cli(["diffuse", "--coupling", "attention",
                            "--penalty", "advanced", "--steps", "4",
                            "--tau", "0.25", "--out", str(tmp_path)], capsys)
    assert code == 0


def test_diffuse_source_preserves_diversity(tmp_path, capsys):
    a = tmp_path / "nosrc"
    b = tmp_path / "src"
    for out_dir, extra in ((a, []), (b, ["--use-source"])):
        code, _, _ = run_cli(["diffuse", "--coupling", "gcn_sym",
                              "--steps", "500", "--n", "16", "--seed", "3",
                              "--out", str(out_dir)] + extra, capsys)
        assert code == 0

    def final_ratio(d):
        lines = open(next(d.glob("trajectory_*.csv"))).read().strip().splitlines()
        first = float(lines[1].split(",")[2])
        last = float(lines[-1].split(",")[2])
        return last / first

    assert final_ratio(a) < 1e-4
    assert final_ratio(b) > 1e-2


def test_audit_single_suite_report(tmp_path, capsys):
    code, out, _ = run_cli(["audit", "--suite", "linear_equiv",
                            "--out", str(tmp_path)], capsys)
    assert code == 0
    report = json.loads((tmp_path / "audit_linear_equiv.json").read_text())
    assert report["passed"] is True
    assert report["max_abs_diff"] <= 1e-10
    assert "linear_equiv: pass" in out


def test_audit_violation_exit_code(tmp_path, capsys, monkeypatch):
    import endiff.cli as cli

    monkeypatch.setattr(cli, "run_suite",
                        lambda name, **kw: {"suite": name, "passed": False,
                                            "violations": 3})
    code, out, _ = run_cli(["audit", "--suite", "thm1",
                            "--out", str(tmp_path)], capsys)
    assert code == 3
    assert "FAIL" in out


def test_config_file_merges_with_flags_winning(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "advanced", "dim-scale": 4.0}))
    code, out, _ = run_cli(["landscape", "--config", str(cfg),
                            "--out", str(tmp_path)], capsys)
    assert code == 0
    assert (tmp_path / "landscape_advanced.csv").exists()
    # explicit flag beats the config value
    code, out, _ = run_cli(["landscape", "--config", str(cfg),
                            "--family", "softmax",
                            "--out", str(tmp_path)], capsys)
    assert code == 0
    assert (tmp_path / "landscape_softmax.csv").exists()


def test_config_never_overrides_an_explicit_flag(tmp_path, capsys):
    # --tau 0.5 equals the flag's default, and still beats the config
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tau": 0.25, "steps": 2}))
    for argv, tau in ((["--tau", "0.5"], 0.5), ([], 0.25)):
        out_dir = tmp_path / f"tau{tau}"
        code, _, _ = run_cli(["diffuse", "--config", str(cfg), "--out", str(out_dir)]
                             + argv, capsys)
        assert code == 0
        manifest = json.loads((out_dir / "manifest_diffuse.json").read_text())
        assert manifest["config"]["tau"] == tau
        assert manifest["config"]["steps"] == 2


@pytest.mark.parametrize("data", [{"steps": "ten"}, {"steps": 2.5}, {"steps": [2]},
                                  {"coupling": "nope"}, {"use-source": 1},
                                  {"no-such-flag": 1}])
def test_config_values_go_through_the_flags_type_and_choices(tmp_path, capsys, data):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    code, _, err = run_cli(["diffuse", "--config", str(cfg),
                            "--out", str(tmp_path / "out")], capsys)
    assert code == 1
    assert err.startswith(f"error: {cfg}: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_diffuse_edges_without_features_is_usage_error(tmp_path, capsys):
    e = tmp_path / "edges.txt"
    e.write_text("0 1\n1 2\n")
    with pytest.raises(SystemExit) as exc:
        main(["diffuse", "--coupling", "gcn_sym", "--edges", str(e),
              "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "--edges needs --features" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, text, line", [
    ("features", "0.1 0.2\n0.3 oops\n", 2),
    ("features", "0.1 0.2\n0.3 nan\n", 2),
    ("edges", "0 1\n0 1 1\n", 2),
    ("edges", "0 1\n\n0 x\n", 3),
])
def test_diffuse_bad_input_names_file_and_line(tmp_path, capsys, name, text, line):
    paths = {"features": tmp_path / "features.txt", "edges": tmp_path / "edges.txt"}
    paths["features"].write_text("0.1 0.2\n0.3 0.4\n")
    paths["edges"].write_text("0 1\n")
    paths[name].write_text(text)
    code, _, err = run_cli(["diffuse", "--coupling", "gcn_sym", "--steps", "2",
                            "--features", str(paths["features"]),
                            "--edges", str(paths["edges"]),
                            "--out", str(tmp_path / "out")], capsys)
    assert code == 1
    assert err.startswith("error: ")
    assert f"{name}.txt:{line}:" in err
    assert "Traceback" not in err


def test_diffuse_reads_features_and_edges(tmp_path, capsys):
    f = tmp_path / "features.txt"
    f.write_text("1 0\n0 1\n1 1\n")
    e = tmp_path / "edges.txt"
    e.write_text("0 1\n1 2\n2 2\n")
    code, out, _ = run_cli(["diffuse", "--coupling", "gcn_sym", "--steps", "3",
                            "--features", str(f), "--edges", str(e),
                            "--out", str(tmp_path / "out")], capsys)
    assert code == 0
    manifest = json.loads((tmp_path / "out" / "manifest_diffuse.json").read_text())
    assert len(manifest["input_digests"]) == 2


@pytest.mark.parametrize("data", [b'{"family": "simple",', b"[1, 2]", b"\xff\xfe{}"])
def test_malformed_config_is_runtime_error(tmp_path, capsys, data):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(data)
    code, _, err = run_cli(["landscape", "--config", str(cfg),
                            "--out", str(tmp_path)], capsys)
    assert code == 1
    assert err.startswith(f"error: {cfg}")


def test_eval_with_a_zero_attention_denominator_is_runtime_error(tmp_path, capsys):
    run = tmp_path / "r"
    assert run_cli(["train", "--synth", "sbm", "--per-block", "10", "--epochs", "1",
                    "--hidden", "4", "--layers", "1", "--out", str(run)], capsys)[0] == 0
    ckpt = run / "checkpoint.json"
    payload = json.loads(ckpt.read_text())
    assert payload["config"]["variant"] == "simple"
    # the input layer's rows are >= 0 and not all 0, so every q~ is e1 and
    # every k~ is -e1: each denominator N + q~ . sum(k~) is N - N = 0
    w_q = [[1.0] * 4] + [[0.0] * 4] * 3
    payload["params"]["W_Q_0_0"] = w_q
    payload["params"]["W_K_0_0"] = [[-x for x in row] for row in w_q]
    ckpt.write_text(json.dumps(payload))
    code, _, err = run_cli(["eval", "--synth", "sbm", "--per-block", "10",
                            "--checkpoint", str(ckpt), "--out", str(tmp_path / "e")], capsys)
    assert code == 1
    assert err.startswith("error: ") and "denominator" in err


def test_eval_rejects_a_malformed_checkpoint_parameter(tmp_path, capsys):
    run = tmp_path / "r"
    assert run_cli(["train", "--synth", "sbm", "--per-block", "10", "--epochs", "1",
                    "--hidden", "4", "--layers", "1", "--out", str(run)], capsys)[0] == 0
    ckpt = run / "checkpoint.json"
    payload = json.loads(ckpt.read_text())
    for name, bad, why in (("W_O", float("nan"), "is not finite"),
                           ("b_I", float("inf"), "is not finite"),
                           ("W_O", "x", "is not a numeric array"),
                           ("W_O", [1.0], "is not a numeric array")):
        trial = json.loads(json.dumps(payload))
        row = trial["params"][name]
        (row[0] if isinstance(row[0], list) else row)[0] = bad
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(trial))  # json writes NaN / Infinity
        code, _, err = run_cli(["eval", "--synth", "sbm", "--per-block", "10",
                                "--checkpoint", str(path),
                                "--out", str(tmp_path / "e")], capsys)
        assert code == 1
        assert err == f"error: {path}: parameter {name} {why}\n"
    for text, why in (("5", "expected a JSON object"),
                      ('{"config": {}, "params": [1, 2]}', "missing 'params' object")):
        path.write_text(text)
        code, _, err = run_cli(["eval", "--synth", "sbm", "--per-block", "10",
                                "--checkpoint", str(path),
                                "--out", str(tmp_path / "e")], capsys)
        assert code == 1
        assert err == f"error: {path}: {why}\n"


@pytest.mark.parametrize("coupling", ["attention", "gat_masked"])
@pytest.mark.parametrize("penalty", ["simple", "advanced", "softmax", "quadratic"])
def test_diffuse_source_with_attention(tmp_path, capsys, coupling, penalty):
    # only unmasked quadratic attention keeps source runs in the domain
    argv = ["diffuse", "--coupling", coupling, "--penalty", penalty,
            "--use-source", "--n", "50", "--steps", "5",
            "--out", str(tmp_path / "out")]
    if (coupling, penalty) == ("attention", "quadratic"):
        assert run_cli(argv, capsys)[0] == 0
        return
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert (f"--use-source is not supported with --coupling {coupling} "
            f"--penalty {penalty}") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_diffuse_simple_attention_builds_no_dense_array(tmp_path, capsys, monkeypatch):
    import endiff.coupling as coupling
    import endiff.energy as energy

    def refuse(*args, **kwargs):
        raise AssertionError("N x N array built on the simple-attention path")

    for mod, name in ((coupling, "build_coupling"), (coupling, "attention_scores"),
                      (energy, "_pairwise_sq_dists")):
        monkeypatch.setattr(mod, name, refuse)
    code, out, _ = run_cli(["diffuse", "--coupling", "attention", "--penalty", "simple",
                            "--tau", "0.25", "--steps", "6", "--n", "40",
                            "--out", str(tmp_path)], capsys)
    assert code == 0
    rows = [line.split(",") for line in
            open(json.loads(out.strip().splitlines()[-1])["csv"]).read().splitlines()[1:]]
    assert len(rows) == 7
    energies = [float(r[1]) for r in rows[1:]]
    assert all(b <= a for a, b in zip(energies, energies[1:]))
    sums = np.array([[float(r[3]), float(r[4])] for r in rows])
    assert np.all(np.abs(sums - 1.0) <= 1e-12)


@pytest.mark.parametrize("argv", [
    ["--coupling", "identity"], ["--coupling", "all_one"],
    ["--coupling", "gcn_sym"], ["--coupling", "gin"],
    ["--coupling", "gat_masked"], ["--coupling", "attention", "--penalty", "quadratic"],
    ["--coupling", "gcn_sym", "--use-source"],
])
def test_diffuse_sparse_families_build_no_dense_array(tmp_path, capsys, monkeypatch, argv):
    import endiff.coupling as coupling
    import endiff.graphs as graphs
    import endiff.numerics as numerics

    def refuse(*args, **kwargs):
        raise AssertionError("N x N array built on a sparse coupling path")

    for cls in (graphs.EdgeOperator, coupling.DenseCoupling,
                coupling.MeanCoupling, coupling.SimpleAttention):
        monkeypatch.setattr(cls, "dense", refuse)
    monkeypatch.setattr(coupling, "build_coupling", refuse)
    monkeypatch.setattr(numerics, "laplacian", refuse)
    code, out, _ = run_cli(["diffuse", *argv, "--tau", "0.25", "--steps", "4",
                            "--n", "30", "--out", str(tmp_path)], capsys)
    assert code == 0
    rows = [line.split(",") for line in
            open(json.loads(out.strip().splitlines()[-1])["csv"]).read().splitlines()[1:]]
    assert len(rows) == 5
    assert all(np.isfinite(float(v)) for r in rows[1:] for v in r)


@pytest.mark.parametrize("flag, value", [("--n", "0"), ("--n", "-3"), ("--dim", "0")])
def test_diffuse_size_below_one_is_usage_error(tmp_path, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["diffuse", "--coupling", "attention", flag, value,
              "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"{flag} must be >= 1, got {value}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_eval_records_no_tape(tmp_path, capsys, monkeypatch):
    from endiff.tape import Tape

    run = tmp_path / "r"
    assert run_cli(["train", "--synth", "sbm", "--per-block", "10", "--use-graph",
                    "--epochs", "2", "--hidden", "4", "--out", str(run)], capsys)[0] == 0
    code, out, _ = run_cli(["eval", "--synth", "sbm", "--per-block", "10",
                            "--checkpoint", str(run / "checkpoint.json"),
                            "--out", str(tmp_path / "e1")], capsys)
    assert code == 0

    def refuse(*args, **kwargs):
        raise AssertionError("eval recorded a tape node")

    monkeypatch.setattr(Tape, "_record", refuse)
    code, out2, _ = run_cli(["eval", "--synth", "sbm", "--per-block", "10",
                             "--checkpoint", str(run / "checkpoint.json"),
                             "--out", str(tmp_path / "e2")], capsys)
    assert code == 0
    assert out2 == out


@pytest.mark.parametrize("argv, message", [
    (["audit", "--suite", "thm1", "--seeds", "0"], "--seeds must be >= 1, got 0"),
    (["audit", "--suite", "thm1", "--seeds", "-1"], "--seeds must be >= 1, got -1"),
    (["synth", "--seed", "-1"], "--seed must be >= 0, got -1"),
    (["diffuse", "--seed", "-1"], "--seed must be >= 0, got -1"),
    (["audit", "--seed", "-1"], "--seed must be >= 0, got -1"),
])
def test_seed_counts_out_of_range_are_usage_errors(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# A small run of each command; flags drawn after these override them.
_CHEAP = {
    "synth": ["--per-block", "4"],
    "diffuse": ["--n", "4", "--steps", "2"],
    "audit": ["--suite", "thm1", "--seeds", "1"],
    "train": ["--synth", "sbm", "--per-block", "4", "--epochs", "1", "--hidden", "2"],
    "eval": ["--synth", "sbm", "--per-block", "4"],
    "landscape": ["--family", "simple"],
}
_DATA = ("--per-block", "--blocks", "--p-in", "--p-out", "--feat-dim", "--feat-shift",
         "--synth")
_DATA_FILES = ("--features", "--labels", "--edges", "--split")
_MODEL = ("--tau", "--layers", "--hidden", "--heads", "--variant")
# Per command: (flags that take a value, switches, flags that take a file).
_FLAGS = {
    "synth": (_DATA, (), _DATA_FILES),
    "diffuse": (("--coupling", "--penalty", "--tau", "--steps", "--n", "--dim"),
                ("--use-source",), ("--features", "--edges")),
    "audit": (("--suite", "--seeds"), (), ()),
    "train": (_DATA + _MODEL + ("--lr", "--weight-decay", "--epochs", "--batch-size",
                                "--patience", "--metric"),
              ("--use-graph", "--use-source"), _DATA_FILES),
    "eval": (_DATA + ("--metric",), (), _DATA_FILES + ("--checkpoint",)),
    "landscape": (("--family", "--dim-scale"), (), ()),
}
# Numbers and words, half and half; none large enough to make a run slow.
_VALUES = (st.sampled_from(("0", "-1", "1", "2", "0.5", "-0.5", "nan", "inf"))
           | st.sampled_from(("x", "", "sbm", "thm1", "prop1", "linear_equiv", "simple",
                              "advanced", "mlp", "quadratic", "attention", "gin",
                              "gat_masked", "mse", "rocauc")))


def _tokens(command):
    flags, switches, files = _FLAGS[command]
    token = st.one_of(
        st.tuples(st.sampled_from(flags + ("--seed", "--bogus")), _VALUES),
        # bytes: a file with these contents; None: a path that does not exist
        st.tuples(st.sampled_from(files + ("--config",)), st.none() | st.binary(max_size=24)),
        *([st.tuples(st.sampled_from(switches))] if switches else []),
    )
    return st.lists(token, max_size=4)


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    out = tmp_path_factory.mktemp("ckpt")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", *_CHEAP["train"], "--out", str(out)]) == 0
    return out / "checkpoint.json"


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_CHEAP)).flatmap(
    lambda command: st.tuples(st.just(command), _tokens(command))))
@example(("synth", [("--seed", "-1")]))
@example(("eval", [("--checkpoint", b"\x80")]))
def test_every_exit_code_is_documented_and_no_traceback(small_checkpoint, run):
    """Bad flag values, unknown choices and flags, missing and malformed
    files: every run ends in 0, 1, 2 or 3 with a one-line error, never an
    uncaught exception."""
    command, tokens = run
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        argv = [command, *_CHEAP[command], "--out", str(tmp / "out")]
        if command == "eval":
            argv += ["--checkpoint", str(small_checkpoint)]
        for i, token in enumerate(tokens):
            if len(token) == 2 and not isinstance(token[1], str):
                path = tmp / f"input{i}"
                if token[1] is not None:
                    path.write_bytes(token[1])
                token = (token[0], str(path))
            argv += token
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    err = err.getvalue()
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err
    if code == 1:
        assert err.startswith("error: "), (argv, err)
    if code == 2:
        assert "error: " in err, (argv, err)
