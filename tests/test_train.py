import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dense_oracles import rocauc_loop
from endiff.errors import ContractError, DimensionError, ParameterError, UndefinedMetricError
from endiff.coupling import PenaltyFamily, write_penalty_landscape
from endiff.graphs import Dataset, Graph, sbm_generate
from endiff.model import Checkpoint, ModelConfig, forward, init_model
from endiff.tape import Tape
from endiff.train import (AdamState, TrainConfig, adam_step, induced_subgraph,
                          metric, minibatch_partition, train_loop,
                          write_history_csv)


def test_train_config_validation():
    with pytest.raises(ParameterError):
        TrainConfig(lr=0.0)
    with pytest.raises(ParameterError):
        TrainConfig(epochs=0)
    with pytest.raises(ParameterError):
        TrainConfig(patience=-1)
    with pytest.raises(ParameterError):
        TrainConfig(metric="f1")
    for key, value in (("epochs", 2.5), ("batch_size", 1.5), ("patience", "2"),
                       ("seed", True), ("seed", 1.0)):
        with pytest.raises(ParameterError, match=f"{key} must be an integer, got {value!r}"):
            TrainConfig(**{key: value})
    for key, value, least in (("batch_size", -1, 0), ("seed", -1, 0)):
        with pytest.raises(ParameterError, match=f"{key} must be >= {least}"):
            TrainConfig(**{key: value})
    assert TrainConfig(epochs=np.int64(3), seed=np.uint32(2)).seed == 2


def test_adam_zero_grad_no_motion():
    params = {"w": np.ones((2, 2)) * 3.0}
    state = AdamState.for_params(params)
    adam_step(params, {"w": np.zeros((2, 2))}, state, lr=0.1)
    assert np.allclose(params["w"], 3.0)
    assert state.t == 1


def test_adam_first_step_is_signed_lr():
    # bias-corrected first step: delta = lr * g / (|g| + eps) ~ lr * sign(g)
    g = np.array([[0.3, -2.0]])
    params = {"w": np.zeros((1, 2))}
    state = AdamState.for_params(params)
    adam_step(params, {"w": g.copy()}, state, lr=0.01)
    assert np.allclose(params["w"], -0.01 * np.sign(g), atol=1e-6)


def test_adam_pure_decay():
    params = {"w": np.full((2, 2), 4.0)}
    state = AdamState.for_params(params)
    adam_step(params, {"w": np.zeros((2, 2))}, state, lr=0.1, weight_decay=0.5)
    assert np.allclose(params["w"], 4.0 * (1 - 0.1 * 0.5))


def test_adam_matches_reference_recurrence():
    # independent scalar oracle for three steps
    rng = np.random.default_rng(0)
    grads = [rng.standard_normal((1, 1)) for _ in range(3)]
    params = {"w": np.array([[0.5]])}
    state = AdamState.for_params(params)
    w, m, v = 0.5, 0.0, 0.0
    for t, g in enumerate(grads, 1):
        adam_step(params, {"w": g.copy()}, state, lr=0.02)
        gs = float(g[0, 0])
        m = 0.9 * m + 0.1 * gs
        v = 0.999 * v + 0.001 * gs**2
        w -= 0.02 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
    assert params["w"][0, 0] == pytest.approx(w, abs=1e-12)


def test_minibatch_partition_properties():
    batches = minibatch_partition(5, 2, seed=0, epoch=0)
    assert [len(b) for b in batches] == [2, 2, 1]
    joined = np.sort(np.concatenate(batches))
    assert np.array_equal(joined, np.arange(5))
    assert minibatch_partition(5, 0, 0, 0)[0].tolist() == [0, 1, 2, 3, 4]


def test_minibatch_partition_deterministic_and_epoch_varying():
    a = minibatch_partition(20, 6, seed=1, epoch=3)
    b = minibatch_partition(20, 6, seed=1, epoch=3)
    c = minibatch_partition(20, 6, seed=1, epoch=4)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))
    with pytest.raises(ParameterError):
        minibatch_partition(5, 9, 0, 0)


@given(n=st.integers(1, 60), batch=st.integers(0, 60), seed=st.integers(0, 5),
       epoch=st.integers(0, 5))
def test_minibatch_partition_always_disjoint_exhaustive(n, batch, seed, epoch):
    if batch > n:
        batch = batch % (n + 1)
    batches = minibatch_partition(n, batch, seed, epoch)
    joined = np.concatenate(batches)
    assert len(joined) == n
    assert np.array_equal(np.sort(joined), np.arange(n))


def test_induced_subgraph_drops_cross_batch_edges():
    g = Graph.from_edge_list(5, [(0, 1), (1, 2), (3, 4)])
    sub = induced_subgraph(g, np.array([0, 1, 3]))
    assert sub.n == 3
    assert np.array_equal(sub.edges, [(0, 1)])  # (0,1) kept, (1,2) and (3,4) cut


@given(st.integers(1, 40), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_induced_subgraph_matches_the_edge_scan(n, p, seed):
    # keeps the edge order and relabelling of a scan over the edge list
    from endiff.graphs import er_graph

    g = er_graph(n, p, seed)
    rng = np.random.default_rng(seed)
    idx = rng.permutation(n)[: rng.integers(1, n + 1)]
    pos = {int(node): i for i, node in enumerate(idx)}
    want = [(pos[u], pos[v]) for u, v in g.edges.tolist() if u in pos and v in pos]
    sub = induced_subgraph(g, idx)
    assert sub.n == len(idx)
    assert np.array_equal(sub.edges, np.array(want, dtype=np.int64).reshape(-1, 2))
    assert sub.edges.dtype == np.int64 and not sub.edges.flags.writeable


def test_metric_accuracy_and_mse():
    pred = np.array([[2.0, 1.0], [0.0, 3.0], [1.0, 0.0]])
    labels = np.array([0, 1, 1])
    mask = np.ones(3, dtype=bool)
    assert metric("accuracy", pred, labels, mask) == pytest.approx(2 / 3)
    mse_pred = np.array([[1.0], [2.0]])
    assert metric("mse", mse_pred, np.array([1.0, 4.0]),
                  np.ones(2, dtype=bool)) == pytest.approx(2.0)
    with pytest.raises(DimensionError, match="got 2 outputs"):
        metric("mse", pred, labels, mask)  # one label per node, two outputs


def test_metric_rocauc_hand_value():
    scores = np.array([[0.0, 0.1], [0.0, 0.4], [0.0, 0.35], [0.0, 0.8]])
    labels = np.array([0, 0, 1, 1])
    mask = np.ones(4, dtype=bool)
    # 3 of the 4 pos/neg pairs ordered correctly
    assert metric("rocauc", scores, labels, mask) == pytest.approx(0.75)


def test_metric_rocauc_ties_use_midranks():
    scores = np.array([[0.0, 0.5], [0.0, 0.5], [0.0, 0.5], [0.0, 0.5]])
    labels = np.array([0, 1, 0, 1])
    mask = np.ones(4, dtype=bool)
    assert metric("rocauc", scores, labels, mask) == pytest.approx(0.5)


@given(st.lists(st.tuples(st.sampled_from((-1.5, -0.0, 0.0, 0.25, 3.0))
                          | st.floats(-1e3, 1e3), st.booleans()), min_size=2, max_size=40)
       .filter(lambda rows: len({pos for _, pos in rows}) == 2))
@example([(0.0, True), (-0.0, False), (0.0, False), (-0.0, True)])  # signed zeros tie
def test_metric_rocauc_midranks_match_the_tie_loop(rows):
    scores = np.array([score for score, _ in rows])
    labels = np.array([int(pos) for _, pos in rows])
    mask = np.ones(len(rows), dtype=bool)
    assert metric("rocauc", scores, labels, mask) == rocauc_loop(scores, labels)
    two_outputs = np.column_stack([np.zeros_like(scores), scores])
    assert metric("rocauc", two_outputs, labels, mask) == rocauc_loop(scores, labels)


def test_metric_rocauc_undefined_cases():
    mask = np.ones(3, dtype=bool)
    pred = np.zeros((3, 2))
    with pytest.raises(UndefinedMetricError):
        metric("rocauc", pred, np.array([1, 1, 1]), mask)
    with pytest.raises(UndefinedMetricError):
        metric("rocauc", pred, np.array([0, 1, 2]), mask)


def _tiny_dataset(seed=0, n_per=20):
    rng = np.random.default_rng(seed)
    n = 2 * n_per
    labels = np.repeat([0, 1], n_per)
    feats = rng.standard_normal((n, 2)) + 3.0 * labels[:, None]
    split = np.array(["train", "val", "test"] * (n // 3) +
                     ["train"] * (n - 3 * (n // 3)), dtype=object)
    rng.shuffle(split)
    if not (split == "train").any():
        split[0] = "train"
    if not (split == "val").any():
        split[1] = "val"
    return Dataset(features=feats, labels=labels, split=split)


def test_unlabeled_rows_are_neither_trained_nor_scored():
    # Four -1 rows give the same run whichever split tags them.
    ds = _tiny_dataset(seed=4)
    ds.labels[:4] = -1
    cfg = ModelConfig(variant="simple", input_dim=2, hidden_dim=4, output_dim=2,
                      layers=1)
    histories = []
    for tag in ("train", "val", "test"):
        ds.split[:4] = tag
        histories.append(train_loop(ds, cfg, TrainConfig(epochs=3)).history)
    assert histories[0] == histories[1] == histories[2]


def test_train_loop_requires_splits():
    ds = _tiny_dataset()
    ds.split[:] = "test"
    cfg = ModelConfig(variant="mlp", input_dim=2, hidden_dim=4, output_dim=2)
    with pytest.raises(ContractError):
        train_loop(ds, cfg, TrainConfig(epochs=1))


def test_train_loop_learns_separable_data():
    ds = _tiny_dataset()
    cfg = ModelConfig(variant="mlp", input_dim=2, hidden_dim=8, output_dim=2,
                      layers=1)
    res = train_loop(ds, cfg, TrainConfig(lr=0.01, epochs=200, seed=0))
    # linearly separable features: training accuracy reaches 1.0
    from endiff.model import forward

    logits, _ = forward(res.checkpoint.params, ds.features, None, cfg)
    assert metric("accuracy", logits.value, ds.labels, ds.mask("train")) == 1.0


def test_train_loop_smoke_loss_decreases_early():
    ds = _tiny_dataset(seed=1)
    cfg = ModelConfig(variant="mlp", input_dim=2, hidden_dim=8, output_dim=2,
                      layers=1)
    res = train_loop(ds, cfg, TrainConfig(lr=1e-3, epochs=10, seed=0))
    losses = [h["train_loss"] for h in res.history]
    assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))


def test_train_loop_deterministic_per_seed():
    ds = _tiny_dataset(seed=2)
    cfg = ModelConfig(variant="simple", input_dim=2, hidden_dim=4,
                      output_dim=2, layers=1)
    tc = TrainConfig(lr=0.01, epochs=5, batch_size=8, seed=3)
    r1 = train_loop(ds, cfg, tc)
    r2 = train_loop(ds, cfg, tc)
    assert r1.history == r2.history
    for k in r1.checkpoint.params:
        assert np.array_equal(r1.checkpoint.params[k], r2.checkpoint.params[k])


def test_train_loop_early_stop_and_best_epoch():
    ds = _tiny_dataset(seed=3)
    cfg = ModelConfig(variant="mlp", input_dim=2, hidden_dim=4, output_dim=2,
                      layers=1)
    res = train_loop(ds, cfg, TrainConfig(lr=0.05, epochs=500, patience=5, seed=0))
    assert len(res.history) < 500
    vals = [h["val_metric"] for h in res.history]
    assert res.best_epoch == int(np.argmax(vals))  # argmax keeps first tie
    assert res.checkpoint.meta["epoch"] == res.best_epoch


def _count_forwards(monkeypatch, ds, cfg, train_cfg):
    """train_loop's result and the graphs its forwards saw, by evaluator."""
    import endiff.train as train

    seen = {"Tape": [], "Eager": []}
    real_forward = train.forward

    def counting_forward(params, x, g, model_cfg, tape=None):
        seen["Tape" if tape is None else type(tape).__name__].append(g)
        return real_forward(params, x, g, model_cfg, tape=tape)

    monkeypatch.setattr(train, "forward", counting_forward)
    return train_loop(ds, cfg, train_cfg), seen


def test_train_loop_full_batch_reuses_graph_and_evaluates_once(monkeypatch):
    import endiff.train as train

    ds = sbm_generate(2, 15, 0.3, 0.05, 4, 1.0, seed=0)
    cfg = ModelConfig(variant="simple", input_dim=4, hidden_dim=4,
                      output_dim=2, layers=1, use_graph=True)

    def refuse(*args):
        raise AssertionError("full batch rebuilt the graph")

    monkeypatch.setattr(train, "induced_subgraph", refuse)
    res, seen = _count_forwards(monkeypatch, ds, cfg,
                                TrainConfig(lr=0.01, epochs=3, seed=0))
    assert len(res.history) == 3
    # Each training forward scores the epoch before it; only the last
    # epoch takes an evaluation forward of its own.
    assert len(seen["Tape"]) == 3 and len(seen["Eager"]) == 1
    assert all(g is ds.graph for g in seen["Tape"] + seen["Eager"])

    # A patience stop on row 1 is read off epoch 2's training forward,
    # which then takes no backward; no evaluation forward runs.
    res, seen = _count_forwards(monkeypatch, ds, cfg,
                                TrainConfig(lr=0.01, epochs=10, patience=1, seed=0))
    assert len(res.history) == 2
    assert len(seen["Tape"]) == 3 and len(seen["Eager"]) == 0


def test_train_loop_minibatch_with_graph(monkeypatch):
    ds = sbm_generate(2, 15, 0.3, 0.05, 4, 1.0, seed=0)
    cfg = ModelConfig(variant="simple", input_dim=4, hidden_dim=4,
                      output_dim=2, layers=1, use_graph=True)
    res, seen = _count_forwards(monkeypatch, ds, cfg,
                                TrainConfig(lr=0.01, epochs=3, batch_size=10, seed=0))
    assert len(res.history) == 3
    # One training forward per batch with a labeled row, one evaluation
    # forward per epoch.
    steps = sum(ds.mask("train")[idx].any() for epoch in range(3)
                for idx in minibatch_partition(ds.n, 10, 0, epoch))
    assert len(seen["Tape"]) == steps and len(seen["Eager"]) == 3


# (variant, use_graph, use_source, metric, epochs, batch_size, patience,
#  history rows): the rows pin whether patience stopped the run.
ORACLE_CASES = {
    "full-simple-graph": ("simple", True, False, "accuracy", 6, 0, 0, 6),
    "full-advanced-source-patience": ("advanced", True, True, "accuracy", 12, 0, 2, 3),
    "full-earliest-stop": ("simple", True, True, "accuracy", 10, 0, 1, 2),
    "full-mlp-mse": ("mlp", False, False, "mse", 5, 0, 0, 5),
    "full-mlp-mse-patience": ("mlp", False, True, "mse", 40, 0, 1, 17),
    "full-one-epoch": ("simple", False, False, "accuracy", 1, 0, 0, 1),
    "full-rocauc": ("advanced", False, True, "rocauc", 4, 0, 0, 4),
    "mini-advanced-graph": ("advanced", True, False, "accuracy", 4, 10, 0, 4),
    "mini-simple-source-mse-patience": ("simple", True, True, "mse", 8, 7, 2, 5),
    "mini-earliest-stop": ("mlp", False, False, "accuracy", 10, 10, 1, 2),
    "mini-one-epoch": ("simple", True, False, "accuracy", 1, 12, 0, 1),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_train_loop_matches_the_two_forward_oracle(case):
    from dense_oracles import train_loop_two_forwards

    variant, graph, source, kind, epochs, batch, patience, rows = ORACLE_CASES[case]
    ds = sbm_generate(2, 15, 0.3, 0.05, 4, 1.0, seed=0)
    cfg = ModelConfig(variant=variant, input_dim=4, hidden_dim=4,
                      output_dim=1 if kind == "mse" else 2, layers=2, heads=2,
                      use_graph=graph, use_source=source)
    tcfg = TrainConfig(lr=0.05, epochs=epochs, batch_size=batch,
                       patience=patience, seed=1, metric=kind)
    got = train_loop(ds, cfg, tcfg)
    want = train_loop_two_forwards(ds, cfg, tcfg)
    assert len(got.history) == rows
    assert got.history == want.history
    assert got.best_epoch == want.best_epoch
    assert got.test_metric == want.test_metric
    assert got.checkpoint.meta == want.checkpoint.meta
    assert got.checkpoint.params.keys() == want.checkpoint.params.keys()
    for name, value in want.checkpoint.params.items():
        assert np.array_equal(got.checkpoint.params[name], value), name


def test_training_runs_every_public_tape_primitive_and_nothing_else(monkeypatch):
    # A Tape method that no configuration runs is surface kept for tests
    # alone; composed forms belong in dense_oracles.ComposedTape.
    public = {name for name, member in vars(Tape).items()
              if callable(member) and not name.startswith("_")}
    ran = set()
    for name in public:
        def recording(self, *args, _name=name, _real=getattr(Tape, name), **kwargs):
            ran.add(_name)
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(Tape, name, recording)
    ds = sbm_generate(2, 8, 0.4, 0.05, 3, 1.0, seed=0)
    for variant in ("simple", "advanced", "mlp"):
        for use_graph in (False, True):
            for use_source in (False, True):
                for kind in ("accuracy", "mse"):
                    cfg = ModelConfig(variant=variant, input_dim=3, hidden_dim=4,
                                      output_dim=1 if kind == "mse" else 2,
                                      layers=1, heads=2, use_graph=use_graph,
                                      use_source=use_source)
                    train_loop(ds, cfg, TrainConfig(epochs=1, metric=kind))
    assert ran == public


def test_evaluate_records_no_tape(monkeypatch):
    from endiff.train import _evaluate

    ds = sbm_generate(2, 15, 0.3, 0.05, 4, 1.0, seed=0)
    cfg = ModelConfig(variant="advanced", input_dim=4, hidden_dim=4,
                      output_dim=2, layers=2, heads=2, use_graph=True,
                      use_source=True)
    params = init_model(cfg, 0)
    logits, _ = forward(params, ds.features, ds.graph, cfg)
    want = tuple(metric("accuracy", logits.value, ds.labels, ds.mask(tag))
                 for tag in ("val", "test"))

    def refuse(*args, **kwargs):
        raise AssertionError("evaluation recorded a tape node")

    monkeypatch.setattr(Tape, "_record", refuse)
    assert _evaluate(params, ds, cfg, "accuracy") == want


def test_write_history_csv(tmp_path):
    history = [{"epoch": 0, "train_loss": 0.5, "val_metric": 0.7,
                "test_metric": 0.65}]
    path = tmp_path / "hist.csv"
    write_history_csv(history, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,val_metric,test_metric"
    assert lines[1].startswith("0,0.5,")


def _write_checkpoint(path, version):
    cfg = ModelConfig(input_dim=2, hidden_dim=2, output_dim=2, layers=1)
    Checkpoint(config=cfg, params=init_model(cfg, version), meta={}).save(path)


def _write_history(path, version):
    write_history_csv([{"epoch": version, "train_loss": 0.5, "val_metric": 0.7,
                        "test_metric": 0.6}], path)


def _write_landscape(path, version):
    write_penalty_landscape(path, PenaltyFamily(("simple", "advanced")[version]))


@pytest.mark.parametrize("write", [_write_checkpoint, _write_history, _write_landscape])
def test_interrupted_write_keeps_the_old_file(tmp_path, monkeypatch, write):
    path = tmp_path / "out"
    write(path, 0)
    old = path.read_bytes()

    def interrupt(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr("endiff.graphs.os.replace", interrupt)
    with pytest.raises(KeyboardInterrupt):
        write(path, 1)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
