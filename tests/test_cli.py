import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import resource
import signal
import stat
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from endiff import cli, diffusion, suites
from endiff.cli import main
from endiff.coupling import DIM_SCALE_MIN
from endiff.errors import ParameterError
from endiff.graphs import sbm_generate
from endiff.model import ModelConfig
from endiff.train import TrainConfig, train_loop, write_history_csv


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def _synth_files(out: Path, *flags) -> list[str]:
    """Write a block-model dataset with `synth`; return the flags with
    which train and eval read it without the graph channel. A graph run
    adds `_edges` of them."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", *flags, "--out", str(out)]) == 0
    return [arg for name in ("features", "labels", "split")
            for arg in (f"--{name}", str(out / f"{name}.txt"))]


def _edges(data: list[str]) -> list[str]:
    """The --edges flag of the dataset whose flags `_synth_files` returned."""
    return ["--edges", str(Path(data[1]).with_name("edges.txt"))]


@pytest.fixture(scope="module")
def sbm10(tmp_path_factory):
    return _synth_files(tmp_path_factory.mktemp("sbm10"), "--per-block", "10")


@pytest.fixture(scope="module")
def sbm4(tmp_path_factory):
    return _synth_files(tmp_path_factory.mktemp("sbm4"), "--per-block", "4")


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


# sha256 of `landscape --family all` at the default --dim-scale. The simple
# and quadratic tables are exact arithmetic on the grid; the advanced and
# softmax ones go through numpy's exp and log, whose last digits may differ
# between numpy builds and CPUs.
LANDSCAPE_DIGESTS = {
    "simple": "4d4f7d5cb377c681b1555240f50a8d5743e5448ebdd74bf4de1c37278ddb5e42",
    "advanced": "3fd09ebe5e2828a3acdf68ccd8f40271fb410b7509accb2842d0a08f651bbaac",
    "softmax": "c5aa0fdb82e66c57afb95e1e9fbf12b0c60b3921f8bdf37f7a7e4226db476efb",
    "quadratic": "92edebd703b46d22a7ad784ecb1f36124b731e0a6e970a1b32ecfe3723fdcde1",
}


def test_landscape_tables_keep_their_digests(tmp_path, capsys):
    assert run_cli(["landscape", "--family", "all", "--out", str(tmp_path)], capsys)[0] == 0
    got = {kind: hashlib.sha256((tmp_path / f"landscape_{kind}.csv").read_bytes()).hexdigest()
           for kind in LANDSCAPE_DIGESTS}
    assert got == LANDSCAPE_DIGESTS


# sha256 of `landscape --family all --dim-scale 4`: only softmax reads the
# scale. The same exp/log caveat as LANDSCAPE_DIGESTS holds.
LANDSCAPE_DIM4_DIGESTS = LANDSCAPE_DIGESTS | {
    "softmax": "f935b9e761c85b9a1d9416007ef94069d5f17ca1d0775404cf0c6c508c9ac701",
}


def test_landscape_tables_at_a_dim_scale_keep_their_digests(tmp_path, capsys):
    assert run_cli(["landscape", "--family", "all", "--dim-scale", "4",
                    "--out", str(tmp_path)], capsys)[0] == 0
    got = {kind: hashlib.sha256((tmp_path / f"landscape_{kind}.csv").read_bytes()).hexdigest()
           for kind in LANDSCAPE_DIM4_DIGESTS}
    assert got == LANDSCAPE_DIM4_DIGESTS


# sha256 of the `diffuse` trajectory CSV of --coupling, --penalty and any
# more flags, at --n 40 --dim 6 --steps 5 --tau 0.25 --seed 3. Every energy
# but the quadratic family's goes through numpy's exp, log or BLAS sums,
# whose last digits may differ between numpy builds and CPUs.
TRAJECTORY_DIGESTS = {
    ("attention", "simple"): "41c48726c8a1cca8a68c37532f85ac1f7caf8fd858a5c1030a9f754910222870",
    ("attention", "advanced"): "0a41558ed37c0ae18999dcdfd46ae839d11fcd0cf7e0335e95334d9f98dc4c66",
    ("attention", "softmax"): "c9761e415c6a098935b08c1392c28a7a1f46dd8b91c1ef88a054c7cf7f92d984",
    ("attention", "quadratic"): "af1e0cd5c2beb88cf95c912638ef60b21e11a0faa9697305b476bc485583908b",
    ("attention", "quadratic", "--use-source"):
        "ceea318275097981fb6f593db469007d9a2751b55e02c535ae7b35832547c6fa",
    ("gat_masked", "simple"): "23edb8d8b57d0672f3fad32e2e9a0f2734c35329b9dda69a1dee9478b8ed44ec",
    ("gat_masked", "advanced"): "c935df207b7129a9a6508ad4419330a13b39eddd66e620ac0cda78353384705f",
    ("gat_masked", "softmax"): "932f448d67747a3bb01271f4fafb58caeee1619c7258d76485037dedfcb907fd",
    ("gat_masked", "quadratic"): "09d8d4e1499cc9cfacbe10c2d89067109bf799ce62c66a1fd96f14e0c6f46af6",
}


@pytest.mark.parametrize("run", sorted(TRAJECTORY_DIGESTS), ids="-".join)
def test_diffuse_trajectory_csvs_keep_their_digests(tmp_path, capsys, run):
    coupling, penalty, *more = run
    code, out, _ = run_cli(["diffuse", "--coupling", coupling, "--penalty", penalty, *more,
                            "--n", "40", "--dim", "6", "--steps", "5", "--tau", "0.25",
                            "--seed", "3", "--out", str(tmp_path)], capsys)
    assert code == 0
    csv_path = Path(json.loads(out.strip().splitlines()[-1])["csv"])
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == TRAJECTORY_DIGESTS[run]


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
    assert len(manifest["input_digests"]) == 3

    code, out, _ = run_cli([
        "eval", "--features", str(data / "features.txt"),
        "--labels", str(data / "labels.txt"),
        "--split", str(data / "split.txt"),
        "--checkpoint", str(run / "checkpoint.json"),
        "--out", str(tmp_path / "eval")], capsys)
    assert code == 0
    values = json.loads(out.strip().splitlines()[-1])
    assert values["metric"] == "accuracy"
    assert 0.0 <= values["test"] <= 1.0


@pytest.mark.parametrize("batch_size", [0, 16])
def test_synth_then_train_writes_what_train_loop_writes_on_the_generated_dataset(
        tmp_path, capsys, batch_size):
    # the files synth writes read back as the dataset sbm_generate draws, so
    # a run from them trains on the generator's own arrays and graph
    data = _synth_files(tmp_path / "data", "--per-block", "30", "--seed", "3")
    run = tmp_path / "run"
    assert run_cli(["train", *data, *_edges(data), "--use-graph", "--hidden", "8",
                    "--heads", "2", "--epochs", "5", "--batch-size", str(batch_size),
                    "--seed", "3", "--out", str(run)], capsys)[0] == 0
    ds = sbm_generate(blocks=2, per_block=30, p_in=0.2, p_out=0.02, feat_dim=8,
                      feat_shift=0.5, seed=3)
    model_cfg = ModelConfig(input_dim=8, hidden_dim=8, output_dim=ds.num_classes,
                            heads=2, use_graph=True)
    result = train_loop(ds, model_cfg, TrainConfig(epochs=5, batch_size=batch_size, seed=3))
    result.checkpoint.save(tmp_path / "checkpoint.json")
    write_history_csv(result.history, tmp_path / "history.csv")
    for name in ("checkpoint.json", "history.csv"):
        assert (run / name).read_bytes() == (tmp_path / name).read_bytes()


def test_train_and_eval_with_the_mse_metric(tmp_path, capsys, sbm10):
    # mse regresses the label value, so the model has one output
    data = [*sbm10, "--metric", "mse"]
    run = tmp_path / "run"
    code, out, err = run_cli(["train", *data, "--epochs", "3", "--hidden", "4",
                              "--out", str(run)], capsys)
    assert code == 0, err
    summary = json.loads(out.strip().splitlines()[-1])
    hist = np.loadtxt(run / "history.csv", delimiter=",", skiprows=1, ndmin=2)
    assert hist.shape == (3, 4) and np.all(np.isfinite(hist))
    assert json.loads((run / "checkpoint.json").read_text())["config"]["output_dim"] == 1
    code, out, err = run_cli(["eval", *data, "--checkpoint", str(run / "checkpoint.json"),
                              "--out", str(tmp_path / "eval")], capsys)
    assert code == 0, err
    values = json.loads(out.strip().splitlines()[-1])
    assert values["metric"] == "mse"
    assert (values["val"], values["test"]) == (summary["val_metric"],
                                               summary["test_metric"])


@pytest.mark.parametrize("metric", ["accuracy", "rocauc"])
def test_eval_rejects_a_class_metric_on_a_regression_checkpoint(tmp_path, capsys, sbm10,
                                                                 monkeypatch, metric):
    # one output has no argmax to score: exit 1 before any data file is read
    run = tmp_path / "run"
    code, _, err = run_cli(["train", *sbm10, "--metric", "mse", "--epochs", "1",
                            "--hidden", "4", "--out", str(run)], capsys)
    assert code == 0, err
    # without its meta a checkpoint does not say what it was trained for
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({**json.loads((run / "checkpoint.json").read_text()),
                                "meta": [1]}))
    code, _, err = run_cli(["eval", *sbm10, "--metric", metric, "--checkpoint", str(bare),
                            "--out", str(tmp_path / "bare")], capsys)
    assert code == 0, err

    def refuse(*args, **kwargs):
        raise AssertionError("data read before the checkpoint's metric was checked")

    monkeypatch.setattr(cli, "load_dataset", refuse)
    ckpt = run / "checkpoint.json"
    code, out, err = run_cli(["eval", *sbm10, "--metric", metric, "--checkpoint", str(ckpt),
                              "--out", str(tmp_path / "eval")], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {ckpt}: ")
    assert "--metric mse" in err and f"--metric {metric}" in err
    assert not (tmp_path / "eval").exists()


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


# sha256 of the files `synth` writes at its defaults and these flags, as the
# scalar-draw generator makes them. Row i draws its pairs j > i as two runs,
# the rest of its block at p_in and every later block at p_out: the first set
# skips every later-block run (p_out = 0) on N = 135, not a multiple of
# SBM_BLOCK_ROWS; the second has every same-block run empty (one node per
# block) on N = 67, one past a row block.
EDGE_RUN_DIGESTS = {
    "--blocks 3 --per-block 45 --p-in 0.2 --p-out 0": {
        "features": "35d1d41c841525637aadbfef95c62649fb9793d706b38d73f739802d8a6b4ce2",
        "labels": "7c4ea36ebca797c0c1c0b60480cc26698ab90dcbd690d62247a2936bd6514efe",
        "edges": "df62861ed0607dc802514b92d2dca8da73bed0a90e80300d0b0eaa4cc7a78dbc",
        "split": "98834d85a994e5822ffcd38bba170e03036425bdc7ae1d70c33f62af16c47d8b",
    },
    "--blocks 67 --per-block 1 --p-in 0.9 --p-out 0.1": {
        "features": "bc22b12959a68593163dba5890b737f6cdac57edd6b4d072e8e0bbaee8425416",
        "labels": "f711b6116f1ac25ab845a9d310bb626af7539352c2b2fe0a644870c8b965537a",
        "edges": "08488bc05dd9e50f1799c7b277ffad0842b8d3174a36000f9ab3ca1c27fd594f",
        "split": "9c22e5f2fb7539a5cd13a94a5733d94e9ed79142d5aac7c22d2fd1700fbef590",
    },
}


@pytest.mark.parametrize("flags", sorted(EDGE_RUN_DIGESTS))
def test_synth_run_edge_cases_keep_their_digests(tmp_path, capsys, flags):
    code, _, _ = run_cli(["synth", *flags.split(), "--out", str(tmp_path)], capsys)
    assert code == 0
    got = {name: hashlib.sha256((tmp_path / f"{name}.txt").read_bytes()).hexdigest()
           for name in EDGE_RUN_DIGESTS[flags]}
    assert got == EDGE_RUN_DIGESTS[flags]


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


def test_train_reruns_are_byte_identical(tmp_path, capsys, sbm10):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["train", *sbm10, "--epochs", "4", "--hidden", "4", "--layers", "1",
            "--seed", "5"]
    assert run_cli(args + ["--out", str(out1)], capsys)[0] == 0
    assert run_cli(args + ["--out", str(out2)], capsys)[0] == 0
    assert (out1 / "history.csv").read_bytes() == (out2 / "history.csv").read_bytes()
    assert (out1 / "checkpoint.json").read_bytes() == (out2 / "checkpoint.json").read_bytes()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_missing_data_files_are_usage_errors(tmp_path, capsys, sbm10, command):
    # checked after --config is applied, so a config can name the files
    argv = [command, "--out", str(tmp_path / "out")]
    if command == "eval":
        argv += ["--checkpoint", str(tmp_path / "missing.json")]
    for given, missing in (([], "--features, --labels"), (sbm10[:2], "--labels"),
                           (sbm10[2:4], "--features")):
        with pytest.raises(SystemExit) as exc:
            main([*argv, *given])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"the following arguments are required: {missing}\n" in captured.err
        assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_train_reads_the_data_files_a_config_names(tmp_path, capsys, sbm10):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag[2:]: path for flag, path in zip(sbm10[::2], sbm10[1::2])}))
    argv = ["--epochs", "2", "--hidden", "4", "--layers", "1"]
    for out, data in (("a", sbm10), ("b", ["--config", str(cfg)])):
        assert run_cli(["train", *data, *argv, "--out", str(tmp_path / out)], capsys)[0] == 0
    assert ((tmp_path / "a" / "checkpoint.json").read_bytes()
            == (tmp_path / "b" / "checkpoint.json").read_bytes())


def test_train_use_graph_without_edges_is_usage_error_before_any_read(
        tmp_path, capsys, monkeypatch, sbm10):
    def unread(*args):
        raise AssertionError("a data file was read")

    monkeypatch.setattr(cli, "load_dataset", unread)
    with pytest.raises(SystemExit) as exc:
        main(["train", *sbm10, "--use-graph", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--use-graph needs --edges" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("given", ["flag", "config"])
def test_train_edges_without_use_graph_is_usage_error_before_any_read(
        tmp_path, capsys, monkeypatch, sbm10, given):
    def unread(*args):
        raise AssertionError("a data file was read")

    monkeypatch.setattr(cli, "load_dataset", unread)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"edges": _edges(sbm10)[1]}))
    edges = _edges(sbm10) if given == "flag" else ["--config", str(cfg)]
    with pytest.raises(SystemExit) as exc:
        main(["train", *sbm10, *edges, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--edges needs --use-graph" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("graph", [False, True], ids=["edges-no-graph", "graph-no-edges"])
def test_eval_edges_that_do_not_match_the_checkpoint_are_usage_errors_before_any_data_read(
        tmp_path, capsys, monkeypatch, sbm10, graph):
    # eval reads the checkpoint, which alone tells whether the model has the
    # graph channel, and then checks --edges against it
    graph_flags = [*_edges(sbm10), "--use-graph"] if graph else []
    _trained_checkpoint(tmp_path, capsys, sbm10, *graph_flags)

    def unread(*args):
        raise AssertionError("a data file was read")

    monkeypatch.setattr(cli, "load_dataset", unread)
    with pytest.raises(SystemExit) as exc:
        main(["eval", *sbm10, *([] if graph else _edges(sbm10)),
              "--checkpoint", str(tmp_path / "r" / "checkpoint.json"),
              "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert ("a checkpoint trained with --use-graph needs --edges" if graph
            else "--edges needs a checkpoint trained with --use-graph") in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("graph", [False, True], ids=["no-graph", "graph"])
def test_train_and_eval_manifests_list_the_files_the_run_read(tmp_path, capsys, sbm10,
                                                              graph):
    data = [*sbm10, *(_edges(sbm10) if graph else [])]
    _trained_checkpoint(tmp_path, capsys, data, *(["--use-graph"] if graph else []))
    ckpt = tmp_path / "r" / "checkpoint.json"
    assert run_cli(["eval", *data, "--checkpoint", str(ckpt),
                    "--out", str(tmp_path / "e")], capsys)[0] == 0
    files = data[1::2]
    assert len(files) == (4 if graph else 3)
    for manifest, read in ((tmp_path / "r" / "manifest_train.json", files),
                           (tmp_path / "e" / "manifest_eval.json", [*files, str(ckpt)])):
        digests = json.loads(manifest.read_text())["input_digests"]
        assert digests == {path: hashlib.sha256(Path(path).read_bytes()).hexdigest()
                           for path in read}


def test_train_use_graph_takes_its_edges_from_a_config(tmp_path, capsys, sbm10):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"edges": _edges(sbm10)[1]}))
    argv = [*sbm10, "--use-graph", "--epochs", "2", "--hidden", "4", "--layers", "1"]
    for out, extra in (("a", _edges(sbm10)), ("b", ["--config", str(cfg)])):
        assert run_cli(["train", *argv, *extra, "--out", str(tmp_path / out)],
                       capsys)[0] == 0
    assert ((tmp_path / "a" / "checkpoint.json").read_bytes()
            == (tmp_path / "b" / "checkpoint.json").read_bytes())
    # only the checkpoint tells eval that it needs a graph: a usage error
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--checkpoint", str(tmp_path / "a" / "checkpoint.json"), *sbm10,
              "--out", str(tmp_path / "eval")])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "a checkpoint trained with --use-graph needs --edges" in captured.err
    assert captured.out == ""


def test_train_malformed_file_names_file_and_line(tmp_path, capsys):
    f = tmp_path / "features.txt"
    f.write_text("1.0\nbroken\n")
    l = tmp_path / "labels.txt"
    l.write_text("0\n1\n")
    code, _, err = run_cli(["train", "--features", str(f),
                            "--labels", str(l), "--out", str(tmp_path)], capsys)
    assert code == 1
    assert "features.txt:2" in err
    f.write_text("1.0\n2.0\n")
    l.write_text("0\n-7\n")
    code, _, err = run_cli(["train", "--features", str(f),
                            "--labels", str(l), "--out", str(tmp_path)], capsys)
    assert code == 1
    assert f"error: {l}:2: bad label" in err


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


# sha256 of the six reports and the stdout of `audit --suite all`, taken
# before the attention audits stepped their seeds as stacks. oversmooth and
# gradcheck were re-pinned when the dynamics and the model's heads came to
# share one attention kernel: simple attention's row sums now read exactly 1
# (its diversity ratios move in their last digits, those at the ~1e-32
# rounding floor by more), and the advanced head scores f(2 - 2 q~.k~) of
# the advanced penalty, so gradcheck's relative errors (~1e-9) move. They
# were re-pinned again, with linear_equiv, when simple attention came to sum
# 1^T K~ and 1^T V by BLAS instead of appending a ones column to V, row dots
# came to go through one einsum, and diversity and the closed-form energy
# came to centre by BLAS column sums and reduce slices by one BLAS dot:
# oversmooth's diversity ratios, linear_equiv's model difference and
# gradcheck's relative errors move at their rounding floors; thm1, prop1 and
# thm2 keep their bytes. oversmooth and prop1 were re-pinned when a static
# step came to apply its coupling to the centred rows, its energy to read
# that pass, and diversity to be N sum_i |y_i|^2: prop1's max_ratio moves in
# its last digits (...725008 to ...725002), oversmooth's static_source and
# attention_source ratios too and its static_nosource ones at their ~1e-32
# rounding floor. gradcheck was re-pinned when the simple head's VJP came
# to take the denominators' adjoint from Q~'s adjoint through the
# numerators instead of from a rebuilt S V: simple_graph1_source1's
# relative error moves in its eighth digit (4.1826284e-09 to 4.1826281e-09),
# every other config's keeps its bytes. The reports' numbers go through
# numpy's BLAS and libm (dot products, exp and log), whose last digits may
# differ between numpy builds and CPUs.
AUDIT_DIGESTS = {
    "thm1": "234a75273c75775eb1dc915b38d4ab185c9c648dd11af9833de6c7dc1648b996",
    "prop1": "eb279414e4b32095905d446d85d59f3c931341a58fcf7a5c4aca98e84b1b9c87",
    "thm2": "9e625ea3d2dd7ac2bc22abd5b70190693970a4db127146dd44395480149d5915",
    "oversmooth": "8252910a86033cb808cfdfa9c8f6e1fd8fe7b6553a510589b108c147b49ee941",
    "linear_equiv": "1917feba3059512b8af31f26d855b4044b5854bd2f43beffc21ecc54d340a5d0",
    "gradcheck": "92d6784b4c33224aedb3beee382faa81f590d4c0b8bc06d0f34821b92f0bcd70",
}
AUDIT_STDOUT_DIGEST = "4a32271b394971dc094627253c8723f6d4733304c475006aaccbaadf38a421d8"


def test_audit_all_keeps_its_digests(tmp_path, capsys):
    code, out, _ = run_cli(["audit", "--suite", "all", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == AUDIT_STDOUT_DIGEST
    got = {name: hashlib.sha256((tmp_path / f"audit_{name}.json").read_bytes()).hexdigest()
           for name in AUDIT_DIGESTS}
    assert got == AUDIT_DIGESTS


def test_audit_all_steps_the_dynamics_in_seed_stacks(tmp_path, capsys, monkeypatch):
    # every diffusion suite steps stacks of up to SEED_STACK = 20 seeds:
    # thm1 and prop1 share 5 stacks x 20 steps, thm2 2 families x 5 taus x
    # 5 stacks x 10 steps, oversmooth 4 cases x 500 steps on one stack of 5
    steps = []
    euler_step = diffusion.euler_step

    def counted(*args):
        steps.append(1)
        return euler_step(*args)

    monkeypatch.setattr(diffusion, "euler_step", counted)
    code, _, _ = run_cli(["audit", "--suite", "all", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert len(steps) == 100 + 500 + 1000 + 1000


# `audit` runs gradcheck in a forked worker when the process may use two
# CPUs; these tests grant it two, whatever the host has.
def _two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def _subprocess_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def test_audit_all_stdout_on_a_pipe_keeps_its_digest(tmp_path):
    done = subprocess.run([sys.executable, "-m", "endiff.cli", "audit", "--suite", "all",
                           "--out", str(tmp_path)], env=_subprocess_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=300)
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout).hexdigest() == AUDIT_STDOUT_DIGEST


def test_audit_all_prints_a_callers_buffered_line_once(tmp_path):
    # a line the caller left in stdout's buffer is flushed before the fork,
    # so the worker cannot print it a second time when it exits
    script = ("import sys\nfrom endiff.cli import main\nprint('before')\n"
              f"sys.exit(main(['audit', '--suite', 'all', '--out', {str(tmp_path)!r}]))\n")
    done = subprocess.run([sys.executable, "-c", script], env=_subprocess_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=300)
    assert done.returncode == 0, done.stderr
    before, rest = done.stdout.split(b"\n", 1)
    assert before == b"before"
    assert hashlib.sha256(rest).hexdigest() == AUDIT_STDOUT_DIGEST


def _has_glibc_mallopt() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION")) and hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, ValueError):
        return False


# `main`, then the process's minor page faults on stdout's last line
_FAULTS_AFTER_MAIN = ("import resource, sys\nfrom endiff.cli import main\n"
                      "code = main(sys.argv[1:])\n"
                      "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)\n"
                      "sys.exit(code)\n")


@pytest.mark.skipif(not _has_glibc_mallopt(), reason="glibc's mallopt is absent")
def test_a_training_epoch_faults_in_no_fresh_heap(tmp_path):
    """`main` fixes glibc's heap thresholds, so an epoch on the benchmark's
    N=2000 data takes its blocks from the heap the epoch before left, not
    from pages the kernel must fault in anew: the faults of 12 epochs less
    those of 2, in fresh interpreters, are under 100 per epoch (about 25).
    With glibc's moving thresholds they read 420-1,340 per epoch on this
    data, as the heap's layout falls with the length of the paths."""
    data = _synth_files(tmp_path / "data", "--blocks", "4", "--per-block", "500",
                        "--p-in", "0.02", "--p-out", "0.002", "--feat-dim", "16",
                        "--feat-shift", "1.0", "--seed", "1")

    def faults(epochs: int) -> int:
        done = subprocess.run(
            [sys.executable, "-c", _FAULTS_AFTER_MAIN, "train", *data, *_edges(data),
             "--use-graph", "--heads", "2", "--layers", "2", "--hidden", "32",
             "--epochs", str(epochs), "--out", str(tmp_path / f"run{epochs}")],
            env=_subprocess_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            timeout=300)
        assert done.returncode == 0, done.stderr
        return int(done.stdout.split()[-1])

    per_epoch = (faults(12) - faults(2)) / 10
    assert per_epoch < 100, f"{per_epoch:.0f} minor page faults per epoch"


def test_main_runs_where_libc_cannot_be_loaded(tmp_path, capsys, monkeypatch):
    def unloadable(*args, **kwargs):
        raise OSError("no libc")

    monkeypatch.setattr(ctypes, "CDLL", unloadable)
    code, _, _ = run_cli(["synth", "--per-block", "4", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert (tmp_path / "features.txt").exists()


def test_audit_all_runs_gradcheck_in_one_forked_worker(tmp_path, capsys, monkeypatch):
    import multiprocessing

    _two_cpus(monkeypatch)
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    code, out, _ = run_cli(["audit", "--suite", "all", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert len(forks) == 1
    assert hashlib.sha256(out.encode()).hexdigest() == AUDIT_STDOUT_DIGEST
    assert multiprocessing.active_children() == []


def test_audit_all_runs_the_model_suites_in_the_worker(tmp_path, capsys, monkeypatch):
    import multiprocessing

    _two_cpus(monkeypatch)
    report = suites._report  # every suite's report is built by it

    def recorded(*args, **kwargs):
        return {**report(*args, **kwargs), "pid": os.getpid()}

    monkeypatch.setattr(suites, "_report", recorded)
    code, _, _ = run_cli(["audit", "--suite", "all", "--out", str(tmp_path)], capsys)
    assert code == 0
    pids = {name: json.loads((tmp_path / f"audit_{name}.json").read_text())["pid"]
            for name in suites.SUITES}
    assert [name for name, pid in pids.items() if pid == os.getpid()] == [
        "thm1", "prop1", "thm2", "oversmooth"]
    assert pids["linear_equiv"] == pids["gradcheck"] != os.getpid()
    assert multiprocessing.active_children() == []


def test_audit_all_writes_the_same_bytes_on_one_cpu_and_on_two(tmp_path, capsys,
                                                               monkeypatch):
    # on two CPUs --seeds reaches linear_equiv in the worker
    written = []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, _cpus=cpus: _cpus)
        out = tmp_path / str(len(cpus))
        code, stdout, _ = run_cli(["audit", "--suite", "all", "--seeds", "3",
                                   "--out", str(out)], capsys)
        assert code == 0
        written.append((stdout, {name: (out / f"audit_{name}.json").read_bytes()
                                 for name in suites.SUITES}))
    assert written[0] == written[1]
    assert json.loads(written[1][1]["linear_equiv"])["seeds"] == 3


def test_audit_all_reads_one_static_pass_for_thm1_and_prop1(tmp_path, capsys,
                                                            monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    svds, stacks, svd = [], [], suites.laplacian_lambda_max
    monkeypatch.setattr(suites, "laplacian_lambda_max", lambda s: svds.append(1) or svd(s))
    run = suites.run_trajectory

    def counted_run(z0, spec, cfg, g=None):
        if spec.family == "gcn_sym" and cfg.steps == suites.STATIC_STEPS:
            stacks.append(np.shape(z0)[:-2])
        return run(z0, spec, cfg, g)

    monkeypatch.setattr(suites, "run_trajectory", counted_run)
    code, out, _ = run_cli(["audit", "--suite", "all", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == AUDIT_STDOUT_DIGEST
    assert len(svds) == 100
    assert stacks == [(suites.SEED_STACK,)] * 5
    list(suites.run_suites(["thm1", "prop1"]))  # nothing outlives a run: the next
    assert len(svds) == 200                     # one makes its own pass


@pytest.fixture(scope="module")
def reports_alone():
    """Each suite's report at 3 seeds, run alone, as JSON."""
    return {name: json.dumps(dict(suites.run_suites([name], 3))[name])
            for name in suites.SUITES}


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one_cpu", "two_cpus"])
@pytest.mark.parametrize("names", [["prop1", "thm1"], ["thm1", "prop1"], ["prop1"],
                                   ["oversmooth", "prop1", "gradcheck", "thm1"],
                                   list(reversed(suites.SUITES))], ids=",".join)
def test_run_suites_in_any_order_writes_each_suites_report_alone(
        names, cpus, reports_alone, monkeypatch):
    import multiprocessing

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    svds, svd = [], suites.laplacian_lambda_max
    monkeypatch.setattr(suites, "laplacian_lambda_max", lambda s: svds.append(1) or svd(s))
    got = [(name, json.dumps(report)) for name, report in suites.run_suites(names, 3)]
    assert got == [(name, reports_alone[name]) for name in names]
    assert len(svds) == 3  # one static pass, one SVD per instance
    assert multiprocessing.active_children() == []


def test_run_suite_rejects_an_unknown_name():
    with pytest.raises(ParameterError, match="unknown suite 'bogus'"):
        list(suites.run_suites(["bogus"]))


@pytest.mark.parametrize("suite", ["all", "gradcheck", "linear_equiv", "thm1", "prop1"])
def test_audit_without_two_cpus_or_two_suites_does_not_fork(suite, tmp_path, capsys,
                                                            monkeypatch):
    if suite == "all":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    else:
        _two_cpus(monkeypatch)

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    code, out, _ = run_cli(["audit", "--suite", suite, "--out", str(tmp_path)], capsys)
    assert code == 0
    names = list(AUDIT_DIGESTS) if suite == "all" else [suite]
    got = {name: hashlib.sha256((tmp_path / f"audit_{name}.json").read_bytes()).hexdigest()
           for name in names}
    assert got == {name: AUDIT_DIGESTS[name] for name in names}
    if suite == "all":
        assert hashlib.sha256(out.encode()).hexdigest() == AUDIT_STDOUT_DIGEST
    else:
        assert out == f"{suite}: pass (0 violation(s))\n"


def test_audit_all_reports_a_wrong_gradient_found_in_the_worker(tmp_path, capsys,
                                                                monkeypatch):
    import multiprocessing

    from test_model import _skew_vjp

    _two_cpus(monkeypatch)
    _skew_vjp(monkeypatch, "layer_norm")
    code, out, _ = run_cli(["audit", "--suite", "all", "--out", str(tmp_path)], capsys)
    assert code == 3
    assert out.splitlines()[-1].startswith("gradcheck: FAIL")
    assert json.loads((tmp_path / "audit_gradcheck.json").read_text())["passed"] is False
    others = {name: hashlib.sha256((tmp_path / f"audit_{name}.json").read_bytes()).hexdigest()
              for name in AUDIT_DIGESTS if name != "gradcheck"}
    assert others == {k: v for k, v in AUDIT_DIGESTS.items() if k != "gradcheck"}
    assert multiprocessing.active_children() == []


def test_audit_all_reports_the_workers_error(tmp_path, capsys, monkeypatch):
    import multiprocessing

    def fail():
        raise ParameterError(f"planted in process {os.getpid()}")

    _two_cpus(monkeypatch)
    monkeypatch.setitem(suites._SUITE_FNS, "gradcheck", fail)
    code, out, err = run_cli(["audit", "--suite", "all", "--out", str(tmp_path)], capsys)
    assert code == 1
    assert err.startswith("error: planted in process ")
    assert int(err.split()[-1]) != os.getpid()  # raised in the worker
    assert "Traceback" not in err
    assert len(out.splitlines()) == 5  # every suite before gradcheck reported
    assert multiprocessing.active_children() == []


def test_audit_all_error_in_this_process_stops_the_worker(tmp_path, capsys, monkeypatch):
    import multiprocessing

    def fail(seeds=100):
        raise ParameterError("planted")

    _two_cpus(monkeypatch)
    monkeypatch.setitem(suites._SUITE_FNS, "gradcheck", lambda: time.sleep(60))
    monkeypatch.setitem(suites._SUITE_FNS, "thm2", fail)
    started = time.monotonic()
    code, _, err = run_cli(["audit", "--suite", "all", "--out", str(tmp_path)], capsys)
    assert code == 1
    assert err == "error: planted\n"
    assert time.monotonic() - started < 30  # the sleeping worker was terminated
    assert multiprocessing.active_children() == []


def test_audit_all_worker_killed_before_it_reports_is_an_error(tmp_path, capsys,
                                                               monkeypatch):
    import multiprocessing

    def die():
        if os.getpid() != parent:  # never this process, should it run gradcheck itself
            os.kill(os.getpid(), signal.SIGKILL)

    parent = os.getpid()
    _two_cpus(monkeypatch)
    monkeypatch.setitem(suites._SUITE_FNS, "gradcheck", die)
    code, _, err = run_cli(["audit", "--suite", "all", "--out", str(tmp_path)], capsys)
    assert code == 1
    assert err == ("error: the gradcheck worker exited with code -9 "
                   "before sending its report\n")
    assert not (tmp_path / "audit_gradcheck.json").exists()
    assert multiprocessing.active_children() == []


def test_audit_violation_exit_code(tmp_path, capsys, monkeypatch):
    report = suites._report

    def three_violations(suite, seeds, lam, tau, violations, **extra):
        return report(suite, seeds, lam, tau, 3, **extra)

    monkeypatch.setattr(suites, "_report", three_violations)
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


@pytest.mark.parametrize("coupling", ["gcn_sym", "gin", "gat_masked"])
def test_diffuse_graph_family_with_features_needs_edges(tmp_path, capsys, coupling):
    f = tmp_path / "features.txt"
    f.write_text("1 0\n0 1\n1 1\n")
    with pytest.raises(SystemExit) as exc:
        main(["diffuse", "--coupling", coupling, "--features", str(f),
              "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"--coupling {coupling} with --features needs --edges" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    (["--coupling", "gcn_sym", "--penalty", "simple"],
     "--penalty does not apply with --coupling gcn_sym"),
    (["--coupling", "identity", "--config", "penalty.json"],
     "--penalty does not apply with --coupling identity"),
    (["--coupling", "attention", "--features", "features.txt", "--n", "3"],
     "--n does not apply with --features"),
    (["--coupling", "attention", "--features", "features.txt", "--dim", "2"],
     "--dim does not apply with --features"),
    (["--coupling", "attention", "--features", "features.txt", "--seed", "0"],
     "--seed does not apply with --features"),
], ids=["penalty", "penalty-config", "n", "dim", "seed"])
def test_diffuse_flag_the_run_would_ignore_is_usage_error(tmp_path, capsys, monkeypatch,
                                                          argv, message):
    # a static coupling has no penalty, and a start read from --features
    # draws no random numbers: the manifest would record a setting never used
    monkeypatch.chdir(tmp_path)
    (tmp_path / "features.txt").write_text("1 0\n0 1\n1 1\n")
    (tmp_path / "penalty.json").write_text(json.dumps({"penalty": "advanced"}))
    with pytest.raises(SystemExit) as exc:
        main(["diffuse", *argv, "--out", "out"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, recorded", [
    (["--coupling", "attention"], {"penalty": "simple", "n": 32, "dim": 8, "seed": 0}),
    (["--coupling", "gcn_sym"], {"penalty": None, "n": 32, "dim": 8, "seed": 0}),
    (["--coupling", "attention", "--features", "features.txt"],
     {"penalty": "simple", "n": None, "dim": None, "seed": None}),
])
def test_diffuse_manifest_records_only_the_settings_the_run_used(tmp_path, capsys,
                                                                 monkeypatch, argv, recorded):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "features.txt").write_text("1 0\n0 1\n1 1\n")
    code, _, _ = run_cli(["diffuse", *argv, "--steps", "2", "--out", "out"], capsys)
    assert code == 0
    manifest = json.loads((tmp_path / "out" / "manifest_diffuse.json").read_text())
    assert {key: manifest["config"][key] for key in recorded} == recorded
    assert manifest["seed"] == recorded["seed"]


def test_diffuse_attention_builds_one_coupling_per_step_and_one_more(
        tmp_path, capsys, coupling_builds):
    code, _, _ = run_cli(["diffuse", "--coupling", "attention", "--penalty", "simple",
                          "--tau", "0.25", "--steps", "20", "--n", "16",
                          "--out", str(tmp_path / "out")], capsys)
    assert code == 0
    assert coupling_builds == ["attention"] * 21


def test_diffuse_static_builds_its_coupling_once(tmp_path, capsys, coupling_builds):
    # the tau bound reads the row sums of the coupling the run steps with
    code, _, _ = run_cli(["diffuse", "--coupling", "gcn_sym", "--tau", "0.25",
                          "--steps", "20", "--n", "16", "--out", str(tmp_path / "out")],
                         capsys)
    assert code == 0
    assert coupling_builds == ["gcn_sym"]


def test_diffuse_failing_part_way_writes_no_csv_and_no_manifest(tmp_path, capsys):
    # tau = 1 sends two antipodal rows to their zero mean after one step,
    # and the next coupling rejects the zero rows
    features = tmp_path / "features.txt"
    features.write_text("1.0\n-1.0\n")
    out = tmp_path / "out"
    code, _, err = run_cli(["diffuse", "--coupling", "attention", "--penalty", "quadratic",
                            "--tau", "1.0", "--steps", "3", "--features", str(features),
                            "--out", str(out)], capsys)
    assert code == 1
    assert "row 0 has norm 0.0" in err
    assert not out.exists() or list(out.iterdir()) == []


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


def test_eval_with_a_zero_attention_denominator_is_runtime_error(tmp_path, capsys, sbm10):
    run = tmp_path / "r"
    assert run_cli(["train", *sbm10, "--epochs", "1", "--hidden", "4", "--layers", "1",
                    "--out", str(run)], capsys)[0] == 0
    ckpt = run / "checkpoint.json"
    payload = json.loads(ckpt.read_text())
    assert payload["config"]["variant"] == "simple"
    # the input layer's rows are >= 0 and not all 0, so every q~ is e1 and
    # every k~ is -e1: each denominator N + q~ . sum(k~) is N - N = 0
    w_q = [[1.0, 0.0, 0.0, 0.0]] * 4
    payload["params"]["W_Q_0"] = [w_q]
    payload["params"]["W_K_0"] = [[[-x for x in row] for row in w_q]]
    ckpt.write_text(json.dumps(payload))
    code, _, err = run_cli(["eval", *sbm10, "--checkpoint", str(ckpt),
                            "--out", str(tmp_path / "e")], capsys)
    assert code == 1
    assert err.startswith("error: ") and "denominator" in err


def _trained_checkpoint(tmp_path, capsys, data, *flags) -> dict:
    run = tmp_path / "r"
    assert run_cli(["train", *data, "--epochs", "1", "--hidden", "4", "--layers", "1",
                    *flags, "--out", str(run)], capsys)[0] == 0
    return json.loads((run / "checkpoint.json").read_text())


def test_eval_rejects_a_malformed_checkpoint_parameter(tmp_path, capsys, sbm10):
    payload = _trained_checkpoint(tmp_path, capsys, sbm10)
    for name, bad, why in (("W_O", float("nan"), "is not finite"),
                           ("b_I", float("inf"), "is not finite"),
                           ("W_O", "x", "is not a numeric array"),
                           ("W_O", [1.0], "is not a numeric array")):
        trial = json.loads(json.dumps(payload))
        row = trial["params"][name]
        (row[0] if isinstance(row[0], list) else row)[0] = bad
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(trial))  # json writes NaN / Infinity
        code, _, err = run_cli(["eval", *sbm10, "--checkpoint", str(path),
                                "--out", str(tmp_path / "e")], capsys)
        assert code == 1
        assert err == f"error: {path}: parameter {name} {why}\n"
    for key, value in (("heads", 2.5), ("layers", 1.5), ("use_graph", "no")):
        trial = json.loads(json.dumps(payload))
        trial["config"][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(trial))
        code, _, err = run_cli(["eval", *sbm10, "--checkpoint", str(path),
                                "--out", str(tmp_path / "e")], capsys)
        assert code == 1
        assert err.startswith(f"error: {path}: bad config: {key} must be")
    for text, why in (("5", "expected a JSON object"),
                      ('{"config": {}, "params": [1, 2]}', "missing 'params' object")):
        path.write_text(text)
        code, _, err = run_cli(["eval", *sbm10, "--checkpoint", str(path),
                                "--out", str(tmp_path / "e")], capsys)
        assert code == 1
        assert err == f"error: {path}: {why}\n"


def test_eval_rejects_an_older_checkpoint_layout(tmp_path, capsys, sbm10):
    # load reads what save writes: the per-head layout of older versions (W_I
    # and one W_{role}_{k}_{h} per head, each transposed) and their retired
    # config keys exit 1 through the checks every checkpoint passes
    payload = _trained_checkpoint(tmp_path, capsys, sbm10, "--heads", "2")
    per_head = json.loads(json.dumps(payload))
    params = per_head["params"]
    params["W_I"] = np.transpose(params["W_I"]).tolist()
    for role in "QKV":
        for h, w in enumerate(params.pop(f"W_{role}_0")):
            params[f"W_{role}_0_{h}"] = np.transpose(w).tolist()
    retired = json.loads(json.dumps(payload))
    retired["config"]["use_feature_transform"] = True
    path = tmp_path / "old.json"
    for trial, why in ((per_head, "checkpoint parameters do not match config"),
                       (retired, "bad config: use_feature_transform is not a config key")):
        path.write_text(json.dumps(trial))
        code, _, err = run_cli(["eval", *sbm10, "--checkpoint", str(path),
                                "--out", str(tmp_path / "e")], capsys)
        assert (code, err) == (1, f"error: {path}: {why}\n")


def _address_space_limit():
    resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))


def _run_limited(argv, cwd=None):
    """`endiff` in a child whose address space is limited, so that a run
    that asks for more memory than the host has fails its allocation
    instead of running the host out of memory."""
    return subprocess.run([sys.executable, "-m", "endiff.cli", *argv], cwd=cwd,
                          env=_subprocess_env(), preexec_fn=_address_space_limit,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)


def test_eval_checks_a_checkpoints_parameter_count_before_its_layout(tmp_path, capsys,
                                                                     sbm10):
    # a config's layers could ask for more parameter names than memory holds
    payload = _trained_checkpoint(tmp_path, capsys, sbm10)
    payload["config"]["layers"] = 10 ** 30
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(payload))
    done = _run_limited(["eval", *sbm10, "--checkpoint", str(path),
                         "--out", str(tmp_path / "e")])
    assert (done.returncode, done.stderr.decode()) == (
        1, f"error: {path}: checkpoint parameters do not match config\n")


@pytest.mark.parametrize("argv, message", [
    (["train", "--hidden", "1000000000"], "error: out of memory: Unable to allocate "),
    (["train", "--heads", "100000000"], "error: out of memory: Unable to allocate "),
    (["train", "--config", "layers.json"],
     "error: a model of layers=1000000000000000000000, heads=1, hidden_dim=16 is too "
     "large: Maximum allowed dimension exceeded\n"),
    (["diffuse", "--n", "1000000000"], "error: out of memory: Unable to allocate "),
], ids=["train-hidden", "train-heads", "train-layers", "diffuse-n"])
def test_a_run_larger_than_memory_is_runtime_error(tmp_path, sbm4, argv, message):
    (tmp_path / "layers.json").write_text(json.dumps({"layers": 10 ** 21}))
    data = sbm4 if argv[0] == "train" else []
    done = _run_limited([*argv, *data, "--out", "out"], cwd=tmp_path)
    err = done.stderr.decode()
    assert done.returncode == 1, err
    assert err.startswith(message) and err.count("\n") == 1
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


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

    for obj, name in ((coupling.DenseAttention, "__init__"), (energy, "_pairwise_sq_dists")):
        monkeypatch.setattr(obj, name, refuse)
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


@pytest.mark.parametrize("penalty", ["advanced", "softmax"])
def test_diffuse_dense_attention_sums_each_coupling_once(tmp_path, capsys, monkeypatch,
                                                         dense_attention_passes, penalty):
    # one DenseAttention per state Z^(0)..Z^(K); its step and the CSV's two
    # row-sum columns read its row sums, made once, at the first read
    import endiff.coupling as coupling

    reads, row_sums = [], coupling.DenseAttention.row_sums
    monkeypatch.setattr(coupling.DenseAttention, "row_sums",
                        lambda self: reads.append(1) or row_sums(self))
    steps = 5
    code, _, _ = run_cli(["diffuse", "--coupling", "attention", "--penalty", penalty,
                          "--tau", "0.25", "--steps", str(steps), "--n", "20",
                          "--out", str(tmp_path)], capsys)
    assert code == 0
    assert dense_attention_passes == [[0, 1]] * (steps + 1)
    assert len(reads) == 3 * steps + 2


@pytest.mark.parametrize("argv", [
    ["--coupling", "identity"], ["--coupling", "all_one"],
    ["--coupling", "gcn_sym"], ["--coupling", "gin", "--tau", "0.05"],
    ["--coupling", "gat_masked"], ["--coupling", "attention", "--penalty", "quadratic"],
    ["--coupling", "gcn_sym", "--use-source"],
    ["--coupling", "attention", "--penalty", "quadratic", "--use-source"],
])
def test_diffuse_sparse_families_build_no_dense_array(tmp_path, capsys, monkeypatch, argv):
    import endiff.coupling as coupling
    import endiff.energy as energy
    import endiff.graphs as graphs
    import endiff.numerics as numerics

    def refuse(*args, **kwargs):
        raise AssertionError("N x N array built on a sparse coupling path")

    for cls in (graphs.EdgeOperator, coupling.DenseAttention):
        monkeypatch.setattr(cls, "dense", refuse)
    monkeypatch.setattr(coupling.DenseAttention, "__init__", refuse)
    monkeypatch.setattr(numerics, "laplacian", refuse)
    monkeypatch.setattr(energy, "_pairwise_sq_dists", refuse)
    code, out, _ = run_cli(["diffuse", "--tau", "0.25", *argv, "--steps", "4",
                            "--n", "30", "--out", str(tmp_path)], capsys)
    assert code == 0
    rows = [line.split(",") for line in
            open(json.loads(out.strip().splitlines()[-1])["csv"]).read().splitlines()[1:]]
    assert len(rows) == 5
    assert all(np.isfinite(float(v)) for r in rows[1:] for v in r)


def test_diffuse_tau_above_the_row_sum_bound_is_usage_error(tmp_path, capsys):
    # gin is A + I: on the default ER(32, 0.3) graph its largest row sum is 15
    with pytest.raises(SystemExit) as exc:
        main(["diffuse", "--coupling", "gin", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert ("--tau 0.5 times the largest row sum 15 of the gin coupling exceeds 1"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


_TRAIN_TINY = ["train", "--epochs", "1", "--hidden", "2"]


@pytest.mark.parametrize("argv, message", [
    (["landscape", "--family", "softmax", "--dim-scale", "nan"],
     "dim_scale must be positive and finite, got nan"),
    (["landscape", "--dim-scale", "inf"], "dim_scale must be positive and finite, got inf"),
    (["synth", "--feat-shift", "nan"], "feat_shift must be finite, got nan"),
    (["synth", "--feat-shift=-inf"], "feat_shift must be finite, got -inf"),
    ([*_TRAIN_TINY, "--lr", "nan"], "lr must be finite and > 0, got nan"),
    ([*_TRAIN_TINY, "--lr", "inf"], "lr must be finite and > 0, got inf"),
    ([*_TRAIN_TINY, "--weight-decay", "inf"],
     "weight_decay must be finite and >= 0, got inf"),
    ([*_TRAIN_TINY, "--weight-decay", "nan"],
     "weight_decay must be finite and >= 0, got nan"),
    (["synth", "--blocks", "0"], "blocks, per_block and feat_dim must be >= 1"),
    (["landscape", "--dim-scale", "0"], "dim_scale must be positive and finite, got 0.0"),
    ([*_TRAIN_TINY, "--epochs", "0"], "epochs must be >= 1"),
    ([*_TRAIN_TINY, "--hidden", "0"], "hidden_dim must be >= 1"),
    ([*_TRAIN_TINY, "--batch-size", "-1"], "batch_size must be >= 0"),
    ([*_TRAIN_TINY, "--patience", "-1"], "patience must be >= 0"),
    ([*_TRAIN_TINY, "--weight-decay", "-1"], "weight_decay must be finite and >= 0, got -1.0"),
])
def test_non_finite_settings_are_runtime_errors(tmp_path, capsys, sbm4, argv, message):
    # a non-finite or out-of-range setting stops its command before any
    # file is read or written
    out = tmp_path / "out"
    data = sbm4 if argv[0] == "train" else []
    code, _, err = run_cli([*argv, *data, "--out", str(out)], capsys)
    assert code == 1
    assert err == f"error: {message}\n"
    assert not out.exists()


def test_train_checks_its_settings_before_it_reads_a_file(tmp_path, capsys):
    # the bad setting is reported, not the missing features file
    out = tmp_path / "out"
    code, _, err = run_cli(["train", "--features", str(tmp_path / "missing.txt"),
                            "--labels", str(tmp_path / "labels.txt"), "--epochs", "0",
                            "--out", str(out)], capsys)
    assert code == 1
    assert err == "error: epochs must be >= 1\n"
    assert not out.exists()


@pytest.mark.parametrize("dim_scale", [1e-6, float(np.nextafter(DIM_SCALE_MIN, 0.0))])
def test_landscape_dim_scale_whose_penalty_overflows_is_runtime_error(tmp_path, capsys,
                                                                     dim_scale):
    out = tmp_path / "out"
    code, _, err = run_cli(["landscape", "--family", "softmax", "--dim-scale",
                            repr(dim_scale), "--out", str(out)], capsys)
    assert code == 1
    assert err == (f"error: dim_scale must be >= {DIM_SCALE_MIN!r}, below which the "
                   f"softmax penalty overflows, got {dim_scale!r}\n")
    assert not out.exists()


def test_landscape_at_the_smallest_dim_scale_is_finite(tmp_path, capsys):
    code, _, _ = run_cli(["landscape", "--family", "softmax", "--dim-scale",
                          repr(DIM_SCALE_MIN), "--out", str(tmp_path)], capsys)
    assert code == 0
    table = np.loadtxt(tmp_path / "landscape_softmax.csv", delimiter=",", skiprows=1)
    assert np.isfinite(table).all()
    assert table[-1, 2] > 1e308  # delta(4) sits at the top of the float range


@pytest.mark.parametrize("flag, value", [("--n", "0"), ("--n", "-3"), ("--dim", "0")])
def test_diffuse_size_below_one_is_usage_error(tmp_path, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["diffuse", "--coupling", "attention", flag, value,
              "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"{flag} must be >= 1, got {value}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value", [("--tau", "1.5"), ("--tau", "0"), ("--tau", "-0.5"),
                                         ("--tau", "nan"), ("--steps", "0"),
                                         ("--steps", "-2")])
def test_diffuse_step_setting_out_of_range_is_usage_error(tmp_path, capsys, flag, value):
    # the files do not exist: the setting is rejected before any is read
    with pytest.raises(SystemExit) as exc:
        main(["diffuse", "--coupling", "gcn_sym", "--features", str(tmp_path / "f.txt"),
              "--edges", str(tmp_path / "e.txt"), f"{flag}={value}",
              "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert (f"--tau must be in (0, 1], got {float(value)}" if flag == "--tau" else
            f"--steps must be >= 1, got {value}") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["1.5", "0", "nan"])
def test_train_tau_out_of_range_is_usage_error_before_any_read(tmp_path, capsys, value):
    # the files do not exist: --tau is rejected before any is read, as diffuse's is
    with pytest.raises(SystemExit) as exc:
        main(["train", "--features", str(tmp_path / "f.txt"), "--labels",
              str(tmp_path / "l.txt"), f"--tau={value}", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"--tau must be in (0, 1], got {float(value)}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_eval_records_no_tape(tmp_path, capsys, monkeypatch, sbm10):
    from endiff.tape import Tape

    run = tmp_path / "r"
    assert run_cli(["train", *sbm10, *_edges(sbm10), "--use-graph", "--epochs", "2",
                    "--hidden", "4", "--out", str(run)], capsys)[0] == 0
    code, out, _ = run_cli(["eval", *sbm10, *_edges(sbm10),
                            "--checkpoint", str(run / "checkpoint.json"),
                            "--out", str(tmp_path / "e1")], capsys)
    assert code == 0

    def refuse(*args, **kwargs):
        raise AssertionError("eval recorded a tape node")

    monkeypatch.setattr(Tape, "_record", refuse)
    code, out2, _ = run_cli(["eval", *sbm10, *_edges(sbm10),
                             "--checkpoint", str(run / "checkpoint.json"),
                             "--out", str(tmp_path / "e2")], capsys)
    assert code == 0
    assert out2 == out


@pytest.mark.parametrize("argv, message", [
    (["audit", "--suite", "thm1", "--seeds", "0"], "--seeds must be >= 1, got 0"),
    (["audit", "--suite", "thm1", "--seeds", "-1"], "--seeds must be >= 1, got -1"),
    (["synth", "--seed", "-1"], "--seed must be >= 0, got -1"),
    (["diffuse", "--seed", "-1"], "--seed must be >= 0, got -1"),
    (["train", "--seed", "-1"], "--seed must be >= 0, got -1"),
    (["audit", "--suite", "gradcheck", "--seeds", "7"],
     "--seeds does not apply to --suite gradcheck"),
    # audit and landscape draw no random numbers: they take no --seed
    (["audit", "--seed", "1"], "unrecognized arguments: --seed 1"),
    (["landscape", "--seed", "1"], "unrecognized arguments: --seed 1"),
])
def test_seed_counts_out_of_range_are_usage_errors(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _tiny_data_files(tmp_path) -> list[str]:
    (tmp_path / "features.txt").write_text("0 1\n1 0\n1 1\n0 0\n")
    (tmp_path / "labels.txt").write_text("0\n1\n1\n0\n")
    (tmp_path / "split.txt").write_text("train\nval\ntest\ntrain\n")
    return [arg for name in ("features", "labels", "split")
            for arg in (f"--{name}", str(tmp_path / f"{name}.txt"))]


_GENERATOR = ("--per-block", "--blocks", "--p-in", "--p-out", "--feat-dim", "--feat-shift")


@pytest.mark.parametrize("command, flag", [
    *(("train", flag) for flag in _GENERATOR + ("--synth",)),
    *(("eval", flag) for flag in _GENERATOR + ("--synth", "--seed"))])
def test_data_files_with_a_generator_flag_is_usage_error(tmp_path, capsys, command, flag):
    # train and eval read their dataset from files only: the generator's
    # flags are synth's alone, and --synth is gone
    out = tmp_path / "out"
    argv = [command, *_tiny_data_files(tmp_path), flag, "1", "--out", str(out)]
    if command == "eval":
        argv += ["--checkpoint", str(tmp_path / "missing.json")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {flag} 1\n" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_a_generator_setting_in_a_train_config_is_an_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"blocks": 2, "feat_shift": 0.5}))
    code, _, err = run_cli(["train", *_tiny_data_files(tmp_path), "--config", str(cfg),
                            "--out", str(tmp_path / "out")], capsys)
    assert (code, err) == (1, f"error: {cfg}: unknown config key 'blocks'\n")
    assert not (tmp_path / "out").exists()


def test_train_on_data_files_takes_its_own_seed_and_records_no_generator_setting(
        tmp_path, capsys):
    out = tmp_path / "out"
    code, _, _ = run_cli(["train", *_tiny_data_files(tmp_path), "--seed", "3",
                          "--epochs", "1", "--hidden", "2", "--out", str(out)], capsys)
    assert code == 0
    config = json.loads((out / "manifest_train.json").read_text())["config"]
    assert config["seed"] == 3
    assert set(config) & {"synth", "blocks", "per_block", "p_in", "p_out", "feat_dim",
                          "feat_shift"} == set()


# A small run of each command; flags drawn after these override them.
_CHEAP = {
    "synth": ["--per-block", "4"],
    "diffuse": ["--n", "4", "--steps", "2"],
    "audit": ["--suite", "thm1", "--seeds", "1"],
    "train": ["--epochs", "1", "--hidden", "2"],
    "eval": [],
    "landscape": ["--family", "simple"],
}
_DATA_FILES = ("--features", "--labels", "--edges", "--split")
_MODEL = ("--tau", "--layers", "--hidden", "--heads", "--variant")
# Per command: (flags that take a value, switches, flags that take a file).
_FLAGS = {
    "synth": (_GENERATOR, (), ()),
    "diffuse": (("--coupling", "--penalty", "--tau", "--steps", "--n", "--dim"),
                ("--use-source",), ("--features", "--edges")),
    "audit": (("--suite", "--seeds"), (), ()),
    "train": (_MODEL + ("--lr", "--weight-decay", "--epochs", "--batch-size",
                        "--patience", "--metric"),
              ("--use-graph", "--use-source"), _DATA_FILES),
    "eval": (("--metric",), (), _DATA_FILES + ("--checkpoint",)),
    "landscape": (("--family", "--dim-scale"), (), ()),
}
# Numbers and words, half and half; none large enough to make a run slow.
_VALUES = (st.sampled_from(("0", "-1", "1", "2", "0.5", "-0.5", "nan", "inf"))
           | st.sampled_from(("x", "", "sbm", "thm1", "prop1", "linear_equiv", "simple",
                              "advanced", "mlp", "quadratic", "attention", "gin",
                              "gat_masked", "mse", "rocauc")))


def _non_finite(path: Path) -> list:
    """The non-finite numbers in a file a run wrote, leaving out the
    trajectory CSV's step-0 energy, which is NaN by design."""
    if path.suffix == ".json":
        found = []
        json.loads(path.read_text(), parse_constant=found.append)
        return found
    rows = [line.replace(",", " ").split() for line in path.read_text().splitlines()]
    if path.name.startswith("trajectory_"):
        assert rows[1][1] == "nan"
        del rows[1][1]

    def bad(token):
        try:
            return not math.isfinite(float(token))
        except ValueError:  # a word, not a number
            return False

    return [token for row in rows for token in row if bad(token)]


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
def small_checkpoint(tmp_path_factory, sbm4):
    out = tmp_path_factory.mktemp("ckpt")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", *_CHEAP["train"], *sbm4, "--out", str(out)]) == 0
    return out / "checkpoint.json"


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_CHEAP)).flatmap(
    lambda command: st.tuples(st.just(command), _tokens(command))))
@example(("synth", [("--seed", "-1")]))
@example(("eval", [("--checkpoint", b"\x80")]))
@example(("landscape", [("--dim-scale", "nan")]))
@example(("synth", [("--feat-shift", "inf")]))
@example(("eval", [("--metric", "mse")]))
def test_every_exit_code_is_documented_and_no_traceback(small_checkpoint, sbm4, run):
    """Bad flag values, unknown choices and flags, missing and malformed
    files: every run ends in 0, 1, 2 or 3 with a one-line error, never an
    uncaught exception, and a run that exits 0 wrote only finite numbers."""
    command, tokens = run
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        argv = [command, *_CHEAP[command], "--out", str(tmp / "out")]
        if command in ("train", "eval"):
            argv += sbm4
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
        if code == 0:
            written = {str(p): _non_finite(p) for p in (tmp / "out").rglob("*")
                       if p.is_file()}
            assert not any(written.values()), (argv, written)
    err = err.getvalue()
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err
    if code == 1:
        assert err.startswith("error: "), (argv, err)
    if code == 2:
        assert "error: " in err, (argv, err)
