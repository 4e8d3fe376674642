import copy
import json
import math
import weakref
from dataclasses import asdict

import numpy as np
import pytest

from dense_oracles import ComposedEager, coupled_step
from endiff.errors import ContractError, DimensionError, FormatError, ParameterError
from endiff.graphs import SLOT_MIN_ROWS, Graph, er_graph
from endiff.model import (Checkpoint, ModelConfig, forward, init_model,
                          parameter_shapes)
from endiff.suites import suite_gradcheck
from endiff.tape import Eager, Tape


def _cfg(**kw):
    base = dict(variant="simple", input_dim=3, hidden_dim=4, output_dim=2,
                layers=1, heads=1, tau=0.5)
    base.update(kw)
    return ModelConfig(**base)


def _param_count(cfg):
    return sum(math.prod(shape) for shape in parameter_shapes(cfg).values())


def test_config_validation():
    with pytest.raises(ParameterError):
        _cfg(variant="fast")
    with pytest.raises(ParameterError):
        _cfg(layers=0)
    with pytest.raises(ParameterError):
        _cfg(tau=0.0)
    with pytest.raises(ParameterError):
        _cfg(tau=1.5)
    for key, value in (("heads", 2.5), ("layers", True), ("hidden_dim", "4")):
        with pytest.raises(ParameterError, match=f"{key} must be an integer"):
            _cfg(**{key: value})
    for key, value in (("use_graph", "no"), ("use_source", 1)):
        with pytest.raises(ParameterError, match=f"{key} must be true or false"):
            _cfg(**{key: value})
    assert _cfg(heads=np.int64(2), use_graph=np.bool_(True)).heads == 2


def test_init_shapes_and_bounds():
    cfg = _cfg()
    params = init_model(cfg, seed=0)
    assert params["W_I"].shape == (3, 4)
    assert params["b_I"].shape == (1, 4)
    assert params["W_Q_0"].shape == (1, 4, 4)
    assert params["W_O"].shape == (4, 2)
    assert np.all(params["b_I"] == 0.0) and np.all(params["b_O"] == 0.0)
    for name, mat in params.items():
        if name.startswith("W_"):
            fan = sum(mat.shape[-2:])
            assert np.max(np.abs(mat)) <= np.sqrt(6.0 / fan)


def test_init_deterministic_per_seed():
    cfg = _cfg(layers=2, heads=2)
    a = init_model(cfg, seed=7)
    b = init_model(cfg, seed=7)
    c = init_model(cfg, seed=8)
    assert all(np.array_equal(a[k], b[k]) for k in a)
    assert any(not np.array_equal(a[k], c[k]) for k in a)


def test_count_params_hand_value():
    cfg = ModelConfig(variant="simple", input_dim=3, hidden_dim=4,
                      output_dim=2, layers=1, heads=1)
    # 12 + 4 + 48 + 8 + 2
    assert _param_count(cfg) == 74
    total = sum(v.size for v in init_model(cfg, 0).values())
    assert total == 74


def test_count_params_scales_linearly_in_heads():
    base = _param_count(_cfg(heads=1))
    doubled = _param_count(_cfg(heads=2))
    qkv = 1 * 1 * 3 * 16
    assert doubled - base == qkv


def test_one_weight_per_role_and_layer():
    # the benchmark's training shape: 3 L + 4 parameters, and mlp, which
    # mixes no rows, holds no Q or K
    shape = dict(input_dim=16, hidden_dim=32, output_dim=4, layers=2, heads=2)
    for variant, names, entries in (("simple", 10, 12964), ("advanced", 10, 12964),
                                    ("mlp", 6, 4772)):
        cfg = ModelConfig(variant=variant, **shape)
        params = init_model(cfg, 0)
        assert len(params) == names and _param_count(cfg) == entries
        assert params["W_V_1"].shape == (2, 32, 32)
        assert ("W_Q_0" in params) == (variant != "mlp")


def test_forward_shapes_and_tape():
    cfg = _cfg()
    params = init_model(cfg, 0)
    x = np.random.default_rng(0).standard_normal((6, 3))
    logits, tape = forward(params, x, None, cfg)
    assert logits.shape == (6, 2)
    assert set(tape.params) == set(params)


def test_forward_input_validation():
    cfg = _cfg()
    params = init_model(cfg, 0)
    with pytest.raises(DimensionError):
        forward(params, np.ones((4, 9)), None, cfg)
    with pytest.raises(ContractError):
        forward(params, np.ones((4, 3)), None, _cfg(use_graph=True))
    bad = dict(params)
    bad["W_I"] = np.ones((2, 2))
    with pytest.raises(DimensionError):
        forward(bad, np.ones((4, 3)), None, cfg)
    del bad["W_I"]
    with pytest.raises(ContractError):
        forward(bad, np.ones((4, 3)), None, cfg)


def test_duplicate_heads_average_to_single_head():
    cfg1 = _cfg(heads=1, hidden_dim=6)
    cfg2 = _cfg(heads=2, hidden_dim=6)
    params1 = init_model(cfg1, 0)
    params2 = {"W_I": params1["W_I"], "b_I": params1["b_I"],
               "W_O": params1["W_O"], "b_O": params1["b_O"]}
    for role in ("Q", "K", "V"):
        params2[f"W_{role}_0"] = np.concatenate([params1[f"W_{role}_0"]] * 2)
    x = np.random.default_rng(1).standard_normal((8, 3))
    out1, _ = forward(params1, x, None, cfg1)
    out2, _ = forward(params2, x, None, cfg2)
    assert np.allclose(out1.value, out2.value, atol=1e-12)


@pytest.mark.parametrize("variant", ["simple", "advanced"])
def test_permutation_equivariance_without_graph(variant):
    cfg = _cfg(variant=variant, layers=2, heads=2, hidden_dim=6)
    params = init_model(cfg, 2)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((10, 3))
    perm = rng.permutation(10)
    out, _ = forward(params, x, None, cfg)
    out_p, _ = forward(params, x[perm], None, cfg)
    assert np.max(np.abs(out.value[perm] - out_p.value)) <= 1e-10


def test_advanced_implicit_attention_is_row_stochastic():
    # reconstruct A~ normalized by R outside the tape and check rows
    from endiff.numerics import row_l2_normalize

    cfg = _cfg(variant="advanced", hidden_dim=5)
    params = init_model(cfg, 4)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((7, 3))
    # replicate the input layer
    pre = x @ params["W_I"] + params["b_I"]
    mean = pre.mean(axis=1, keepdims=True)
    z0 = (pre - mean) / np.sqrt(np.mean((pre - mean) ** 2, axis=1,
                                        keepdims=True) + 1e-5)
    z0 = np.maximum(z0, 0.0)
    q = row_l2_normalize(z0 @ params["W_Q_0"][0])
    k = row_l2_normalize(z0 @ params["W_K_0"][0])
    a = ComposedEager().sigmoid(q @ k.T)
    s = a / a.sum(axis=1, keepdims=True)
    assert np.allclose(s.sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("variant", ["simple", "advanced"])
def test_a_layer_is_one_euler_step_of_the_dynamics(monkeypatch, variant):
    # one head, no graph, identity Q/K/V weights and a unit-row state: the
    # blend a layer hands its LayerNorm is one explicit-Euler step at tau
    from endiff.coupling import CouplingSpec, PenaltyFamily, coupling_operator
    from endiff.model import _layer
    from endiff.numerics import row_l2_normalize

    n, d, tau = 9, 4, 0.3
    z = row_l2_normalize(np.random.default_rng(6).standard_normal((n, d)))
    blends = []
    real = Eager.layer_norm
    monkeypatch.setattr(Eager, "layer_norm",
                        lambda self, a: blends.append(a) or real(self, a))
    refs = {f"W_{role}_0": np.eye(d)[None] for role in "QKV"}
    _layer(Eager(), z[None], z[None], refs, 0, _cfg(variant=variant, hidden_dim=d, tau=tau),
           None)
    spec = CouplingSpec("attention", PenaltyFamily(variant))
    step = coupled_step(z, coupling_operator(spec, z), tau)
    assert len(blends) == 1 and blends[0].shape == step.shape
    assert np.max(np.abs(blends[0] - step)) <= 1e-12 * np.max(np.abs(step))


_KERNEL = ("simple_attention", "DenseAttention")


@pytest.mark.parametrize("evaluator", [Tape, Eager])
@pytest.mark.parametrize("variant", ["simple", "advanced"])
def test_heads_take_their_values_from_the_coupling_kernel(monkeypatch, variant, evaluator):
    # one kernel call per layer for all of its heads, and no other path
    import endiff.tape as tape_module

    calls = {name: 0 for name in _KERNEL}
    for name in _KERNEL:
        def counted(*args, _real=getattr(tape_module, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(tape_module, name, counted)
    cfg = _cfg(variant=variant, layers=3, heads=2)
    x = np.random.default_rng(8).standard_normal((6, cfg.input_dim))
    forward(init_model(cfg, 0), x, None, cfg, tape=evaluator())
    per_layer = {"simple": ("simple_attention",),
                 "advanced": ("DenseAttention",)}[variant]
    assert calls == {name: cfg.layers if name in per_layer else 0 for name in _KERNEL}


@pytest.mark.parametrize("evaluator", [Tape, Eager])
def test_an_advanced_forward_builds_one_dense_attention_per_layer(dense_attention_passes,
                                                                  evaluator):
    # a head reads the scores and their reciprocal row sums, never S 1: not
    # in the forward, and not in the backward
    cfg = _cfg(variant="advanced", layers=3, heads=2)
    x = np.random.default_rng(8).standard_normal((6, cfg.input_dim))
    logits, t = forward(init_model(cfg, 0), x, None, cfg, tape=evaluator())
    if evaluator is Tape:
        t.backward(t.masked_cross_entropy(logits, np.zeros(6, dtype=int), np.ones(6, dtype=bool)))
    assert dense_attention_passes == [[0, 0]] * cfg.layers


def test_the_tape_computes_no_attention_score():
    # np.exp runs only in the cross-entropy loss's log-softmax: no
    # primitive scores a pair of rows itself
    import ast
    from pathlib import Path

    import endiff.tape as tape_module

    tree = ast.parse(Path(tape_module.__file__).read_text())
    defs = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        defs += [node for node in cls.body if isinstance(node, ast.FunctionDef)]
    calls_exp = {fn.name for fn in defs for node in ast.walk(fn)
                 if isinstance(node, ast.Attribute) and node.attr == "exp"
                 and isinstance(node.value, ast.Name) and node.value.id == "np"}
    assert calls_exp == {"masked_cross_entropy"}


def test_mlp_variant_has_no_cross_node_mixing():
    cfg = _cfg(variant="mlp", layers=2)
    params = init_model(cfg, 6)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((5, 3))
    out, _ = forward(params, x, None, cfg)
    # changing one row's features leaves the other rows' logits alone
    x2 = x.copy()
    x2[0] += 10.0
    out2, _ = forward(params, x2, None, cfg)
    assert np.allclose(out.value[1:], out2.value[1:], atol=1e-12)


def test_graph_channel_changes_output():
    cfg = _cfg(use_graph=True)
    params = init_model(cfg, 8)
    x = np.random.default_rng(9).standard_normal((8, 3))
    g = er_graph(8, 0.5, 0)
    with_g, _ = forward(params, x, g, cfg)
    no_g, _ = forward(params, x, None, _cfg())
    assert not np.allclose(with_g.value, no_g.value)


@pytest.mark.parametrize("heads", [2, 3])
@pytest.mark.parametrize("use_source", [False, True])
def test_graph_forward_matches_dense_oracle(use_source, heads):
    from endiff.suites import _dense_simple_forward

    cfg = _cfg(layers=2, heads=heads, use_graph=True, use_source=use_source)
    for seed in range(5):
        params = init_model(cfg, seed)
        x = np.random.default_rng((seed, 7)).standard_normal((20, 3))
        g = er_graph(20, 0.15, seed)
        logits, _ = forward(params, x, g, cfg)
        ref = _dense_simple_forward(params, x, g, cfg)
        assert np.max(np.abs(logits.value - ref)) <= 1e-9


def test_graph_forward_builds_no_dense_adjacency(monkeypatch):
    import endiff.coupling as coupling
    import endiff.graphs as graphs
    import endiff.numerics as numerics

    def refuse(*args, **kwargs):
        raise AssertionError("dense adjacency built on the model path")

    # the dense builders that remain: the two couplings' dense() and the
    # N x N attention and Laplacian arrays
    for cls in (graphs.EdgeOperator, coupling.DenseAttention):
        monkeypatch.setattr(cls, "dense", refuse)
    monkeypatch.setattr(coupling.DenseAttention, "__init__", refuse)
    monkeypatch.setattr(numerics, "laplacian", refuse)
    cfg = _cfg(layers=2, heads=2, use_graph=True)
    params = init_model(cfg, 0)
    x = np.random.default_rng(1).standard_normal((12, 3))
    logits, tape = forward(params, x, er_graph(12, 0.3, 1), cfg)
    loss = tape.masked_cross_entropy(logits, np.zeros(12, dtype=int),
                                     np.ones(12, dtype=bool))
    grads = tape.backward(loss)
    assert all(np.all(np.isfinite(v)) for v in grads.values())


def test_graph_channel_is_one_apply_per_layer(monkeypatch):
    import endiff.graphs as graphs

    calls = []
    real = graphs.EdgeOperator.apply

    def counted(self, v):
        calls.append(v.shape)
        return real(self, v)

    monkeypatch.setattr(graphs.EdgeOperator, "apply", counted)
    cfg = _cfg(layers=2, heads=3, use_graph=True)
    params = init_model(cfg, 0)
    n = 10
    x = np.random.default_rng(2).standard_normal((n, 3))
    g = er_graph(n, 0.4, 2)
    labels, mask = np.zeros(n, dtype=int), np.ones(n, dtype=bool)
    logits, tape = forward(params, x, g, cfg)
    tape.backward(tape.masked_cross_entropy(logits, labels, mask))
    assert len(calls) == 4  # one per layer forward, one per layer backward
    calls.clear()
    stack = np.stack([params["W_V_1"]] * 5)
    forward({**params, "W_V_1": stack}, x, g, cfg, tape=Eager())
    assert calls == [(n, 4), (n, 5 * 4)]  # the stack rides in one apply


def test_checkpoint_round_trip(tmp_path):
    cfg = _cfg(layers=2, heads=2)
    params = init_model(cfg, 10)
    ckpt = Checkpoint(config=cfg, params=params, meta={"epoch": 3, "seed": 10})
    path = tmp_path / "ckpt.json"
    ckpt.save(path)
    loaded = Checkpoint.load(path)
    assert loaded.config == cfg
    assert loaded.meta["epoch"] == 3
    for name in params:
        assert np.array_equal(loaded.params[name], params[name])


def test_checkpoint_shape_validation(tmp_path):
    cfg = _cfg()
    params = init_model(cfg, 0)
    params["W_I"] = np.ones((1, 1))
    with pytest.raises(ContractError):
        Checkpoint(config=cfg, params=params)


def test_checkpoint_load_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(FormatError):
        Checkpoint.load(bad)
    missing = tmp_path / "missing.json"
    missing.write_text('{"config": {}}')
    with pytest.raises(FormatError):
        Checkpoint.load(missing)
    cfg = _cfg()
    params = {k: v.tolist() for k, v in init_model(cfg, 0).items()}
    # the config keys of older versions, retired, are unknown keys like any other
    for key, value, why in (
            ("heads", 2.5, "heads must be an integer, got 2.5"),
            ("layers", 1.5, "layers must be an integer, got 1.5"),
            ("heads", True, "heads must be an integer, got True"),
            ("use_graph", "no", "use_graph must be true or false, got 'no'"),
            ("use_source", 0, "use_source must be true or false, got 0"),
            ("tau", True, "tau must be a number, got True"),
            ("tau", "0.5", "tau must be a number, got '0.5'"),
            ("dropout", 0.1, "dropout is not a config key"),
            ("use_feature_transform", True, "use_feature_transform is not a config key"),
            ("activation_between_layers", "none",
             "activation_between_layers is not a config key")):
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps({"config": {**asdict(cfg), key: value}, "params": params}))
        with pytest.raises(FormatError) as exc:
            Checkpoint.load(path)
        assert str(exc.value) == f"{path}: bad config: {why}"


_EVALUATOR_CASES = [
    dict(variant=variant, use_graph=use_graph, use_source=use_source,
         heads=heads, layers=layers)
    for variant in ("simple", "advanced", "mlp")
    for use_graph in (False, True)
    for use_source in (False, True)
    for heads in (2, 1)
    for layers in (2, 1)
]


def _evaluator_setup(n, **kw):
    cfg = _cfg(**{"layers": 2, "heads": 2, "hidden_dim": 5, **kw})
    params = init_model(cfg, n)
    x = np.random.default_rng(n).standard_normal((n, 3))
    g = er_graph(n, 0.5, n) if cfg.use_graph else None
    return cfg, params, x, g


@pytest.mark.parametrize("n", [1, 9])
@pytest.mark.parametrize("case", _EVALUATOR_CASES)
def test_eager_forward_matches_tape(case, n):
    cfg, params, x, g = _evaluator_setup(n, **case)
    on_tape, _ = forward(params, x, g, cfg)
    eager, ev = forward(params, x, g, cfg, tape=Eager())
    assert isinstance(eager, np.ndarray) and isinstance(ev, Eager)
    assert eager.shape == (n, 2)
    scale = np.max(np.abs(on_tape.value))
    assert np.max(np.abs(eager - on_tape.value)) <= 1e-12 * scale
    labels = np.arange(n) % 2
    mask = np.ones(n, dtype=bool)
    loss = Tape().masked_cross_entropy(on_tape, labels, mask).value
    assert ev.masked_cross_entropy(eager, labels, mask).shape == (1, 1)
    assert ev.masked_cross_entropy(eager, labels, mask) == pytest.approx(loss, rel=1e-12)


@pytest.mark.parametrize("n", [1, 7])
@pytest.mark.parametrize("case", [
    dict(variant="simple"),
    dict(variant="advanced", use_graph=True, use_source=True),
    dict(variant="simple", use_graph=True),
    dict(variant="advanced", heads=1, layers=1),
    dict(variant="mlp", use_graph=True),
])
def test_stacked_forward_slices_match_single_forwards(case, n):
    cfg, params, x, g = _evaluator_setup(n, **case)
    rng = np.random.default_rng(3)
    labels = np.arange(n) % 2
    mask = np.ones(n, dtype=bool)
    for name, value in params.items():
        stack = value + 0.1 * rng.standard_normal((4,) + value.shape)
        logits, ev = forward({**params, name: stack}, x, g, cfg, tape=Eager())
        losses = ev.masked_cross_entropy(logits, labels, mask)
        assert logits.shape == (4, n, 2) and losses.shape == (4, 1, 1)
        for k in range(4):
            single, _ = forward({**params, name: stack[k]}, x, g, cfg, tape=Eager())
            scale = np.max(np.abs(single))
            assert np.max(np.abs(logits[k] - single)) <= 1e-12 * scale
            assert losses[k] == pytest.approx(
                ev.masked_cross_entropy(single, labels, mask), rel=1e-12)


@pytest.mark.parametrize("heads", [2, 3])
@pytest.mark.parametrize("variant", ["simple", "advanced"])
def test_stacked_forward_with_as_many_copies_as_heads(variant, heads):
    # numpy broadcasts a (B, N, d) state against an (H, d, d) weight stack
    # when B == H, pairing copy i with head i; the copy axis must sit in
    # front of the head axis instead.
    cfg = _cfg(variant=variant, layers=2, heads=heads, hidden_dim=5,
               use_graph=True, use_source=True)
    n = 7
    params = init_model(cfg, n)
    x = np.random.default_rng(n).standard_normal((n, 3))
    g = er_graph(n, 0.5, n)
    rng = np.random.default_rng(5)
    for name, value in params.items():
        stack = value + 0.1 * rng.standard_normal((heads,) + value.shape)
        logits, _ = forward({**params, name: stack}, x, g, cfg, tape=Eager())
        assert logits.shape == (heads, n, 2)
        for c in range(heads):
            single, _ = forward({**params, name: stack[c]}, x, g, cfg, tape=Eager())
            assert np.max(np.abs(logits[c] - single)) <= 1e-12 * np.max(np.abs(single))


@pytest.mark.parametrize("variant", ["simple", "advanced"])
def test_nodes_per_forward_do_not_grow_with_heads(variant):
    counts = []
    for heads in (1, 2, 4):
        cfg = _cfg(variant=variant, layers=2, heads=heads, hidden_dim=32, use_graph=True)
        x = np.random.default_rng(0).standard_normal((10, 3))
        _, tape = forward(init_model(cfg, 0), x, er_graph(10, 0.4, 0), cfg)
        counts.append(len(tape.nodes))
    assert counts == [counts[0]] * 3


def test_tape_rejects_a_stacked_parameter():
    cfg, params, x, _ = _evaluator_setup(4)
    for name in ("W_I", "W_V_0"):
        stacked = {**params, name: np.stack([params[name]] * 2)}
        with pytest.raises(DimensionError, match=f"parameter {name} has shape"):
            forward(stacked, x, None, cfg)
    # the trailing axes are still checked: a transposed or per-head layout,
    # or a wrong number of heads
    for name, bad in (("W_I", (2, 5, 3)), ("W_I", (2, 4, 3)), ("W_V_0", (4, 5, 5)),
                      ("W_V_0", (4, 3, 5, 5))):
        with pytest.raises(DimensionError, match=f"parameter {name} has shape"):
            forward({**params, name: np.ones(bad)}, x, None, cfg, tape=Eager())


# Primitives whose outputs feed only VJPs that need the adjoint alone.
_UNCAPTURED = ("add", "scale", "stack", "head_mean", "sym_apply")


@pytest.mark.parametrize("variant", ["simple", "advanced", "mlp"])
def test_tape_forward_frees_values_no_vjp_captured(monkeypatch, variant):
    outputs = {name: [] for name in _UNCAPTURED}
    for name in _UNCAPTURED:
        def recording(self, *args, _real=getattr(Tape, name), _out=outputs[name]):
            ref = _real(self, *args)
            _out.append(weakref.ref(ref.value))
            return ref

        monkeypatch.setattr(Tape, name, recording)
    cfg, params, x, g = _evaluator_setup(9, variant=variant, use_graph=True,
                                         use_source=True)
    logits, tape = forward(params, x, g, cfg)  # the tape stays alive
    assert all(outputs.values())  # every primitive ran
    alive = [w() for ws in outputs.values() for w in ws if w() is not None]
    assert len(alive) == 1 and alive[0] is logits.value


def test_backward_consumes_the_tape():
    cfg, params, x, g = _evaluator_setup(9, use_graph=True)
    logits, tape = forward(params, x, g, cfg)
    loss = tape.masked_cross_entropy(logits, np.arange(9) % 2, np.ones(9, dtype=bool))
    tape.backward(loss)
    assert all(node is None for node in tape.nodes)  # every node feeds the loss
    with pytest.raises(ContractError, match="already ran"):
        tape.backward(loss)


def _skew_vjp(monkeypatch, primitive: str) -> None:
    """Scale every VJP the Tape primitive records by 1.01; an Eager call,
    which inherits the primitive and records nothing, is left untouched."""
    real = getattr(Tape, primitive)

    def skewed(self, *args, **kwargs):
        ref = real(self, *args, **kwargs)
        if isinstance(self, Eager):
            return ref
        parents, vjp = self.nodes[ref.idx]
        self.nodes[ref.idx] = (parents,
                               lambda g: tuple(1.01 * grad for grad in vjp(g)))
        return ref

    monkeypatch.setattr(Tape, primitive, skewed)


def test_gradcheck_suite_catches_a_wrong_gradient(monkeypatch):
    from endiff.suites import suite_gradcheck

    _skew_vjp(monkeypatch, "layer_norm")
    report = suite_gradcheck()
    assert report["passed"] is False
    assert report["violations"] > 0
    assert report["max_rel_err"] > 1e-3
    for detail in report["per_config"].values():
        assert detail["failures"]  # every configuration sees it


def test_gradcheck_suite_catches_a_wrong_linear_attention_gradient(monkeypatch):
    from endiff.suites import suite_gradcheck

    _skew_vjp(monkeypatch, "linear_attention")
    report = suite_gradcheck()
    assert report["passed"] is False
    simple = {k: v for k, v in report["per_config"].items() if k.startswith("simple")}
    assert len(simple) == 4
    for detail in simple.values():
        assert detail["failures"]  # every simple configuration sees it


def test_gradcheck_suite_catches_a_wrong_sigmoid_attention_gradient(monkeypatch):
    from endiff.suites import suite_gradcheck

    _skew_vjp(monkeypatch, "sigmoid_attention")
    report = suite_gradcheck()
    assert report["passed"] is False
    advanced = {k: v for k, v in report["per_config"].items() if k.startswith("advanced")}
    assert len(advanced) == 4
    for detail in advanced.values():
        assert detail["failures"]  # every advanced configuration sees it


def test_gradcheck_suite_catches_a_wrong_adjoint_for_one_head(monkeypatch):
    from endiff.suites import suite_gradcheck

    real = Tape.matmul

    def planted(self, a, b):
        """Scale head 1 of the adjoint of the W_K_1 stack by 1.01."""
        ref = real(self, a, b)
        if isinstance(self, Eager) or b.idx != "W_K_1":
            return ref
        parents, vjp = self.nodes[ref.idx]

        def wrong(g):
            g_a, g_b = vjp(g)
            g_b = g_b.copy()
            g_b[1] *= 1.01
            return g_a, g_b

        self.nodes[ref.idx] = (parents, wrong)
        return ref

    monkeypatch.setattr(Tape, "matmul", planted)
    report = suite_gradcheck()
    assert report["passed"] is False
    assert len(report["per_config"]) == 8
    for detail in report["per_config"].values():
        assert detail["failures"] == ["W_K_1"]  # every configuration sees it


@pytest.mark.parametrize("variant", ["simple", "advanced"])
def test_gradcheck_model_makes_one_eager_forward_per_parameter(monkeypatch, variant):
    from endiff import suites

    tapes = []
    real = suites.forward

    def counted(params, x, g, cfg, tape=None):
        tapes.append(type(tape).__name__)
        return real(params, x, g, cfg, tape=tape)

    monkeypatch.setattr(suites, "forward", counted)
    # suite_gradcheck's configuration, whose W_Q/W_K/W_V stacks are (2, 8, 8):
    # 256 bumped copies each
    cfg = ModelConfig(variant=variant, input_dim=5, hidden_dim=8, output_dim=3,
                      layers=2, heads=2, tau=0.5, use_graph=True, use_source=True)
    errors = suites.gradcheck_model(cfg)
    assert set(errors) == set(parameter_shapes(cfg))
    assert tapes == ["NoneType"] + ["Eager"] * len(errors)


def test_gradcheck_model_passes_on_mlp():
    from endiff.suites import gradcheck_model

    for use_graph in (False, True):
        for use_source in (False, True):
            cfg = ModelConfig(variant="mlp", input_dim=5, hidden_dim=8, output_dim=3,
                              layers=2, heads=2, use_graph=use_graph, use_source=use_source)
            errors = gradcheck_model(cfg)
            assert set(errors) == set(parameter_shapes(cfg))
            assert max(errors.values()) < 1e-5  # suite_gradcheck's tol


@pytest.mark.parametrize("use_source", [False, True])
@pytest.mark.parametrize("use_graph", [False, True])
@pytest.mark.parametrize("variant", ["simple", "advanced", "mlp"])
def test_every_parameter_reaches_the_loss(variant, use_graph, use_source):
    # a registered weight the forward never reads would get an all-zero
    # gradient, as mlp's Q and K did when every variant held them
    cfg, params, x, g = _evaluator_setup(9, variant=variant, use_graph=use_graph,
                                         use_source=use_source)
    logits, tape = forward(params, x, g, cfg)
    grads = tape.backward(tape.masked_cross_entropy(logits, np.arange(9) % 2,
                                                    np.ones(9, dtype=bool)))
    assert set(grads) == set(params)
    for name, grad in grads.items():
        matrices = grad.reshape((-1,) + grad.shape[-2:])
        assert all(np.any(m != 0.0) for m in matrices), name  # every head too


# The Taylor remainder test (Farrell, Ham, Funke and Rognes, SIAM J. Sci.
# Comput. 35(4), 2013): along a direction u, r(h) = |L(p + h u) - L(p) -
# h <grad L, u>| falls as h^2 exactly when the gradient is right, at any N.
# N = 200 on 5N drawn pairs gives neighbour slots of SLOT_MIN_ROWS rows and
# more, which gradcheck's 12 nodes never reach. u leaves W_I and b_I out, so
# no step crosses a kink of the input ReLU.
TAYLOR_N, TAYLOR_HS = 200, 1e-2 * 0.5 ** np.arange(4)


def _taylor_ratios(variant: str, use_graph: bool, use_source: bool) -> np.ndarray:
    """r(h) / r(h/2) over TAYLOR_HS for a masked cross-entropy loss: about 4
    for a right gradient."""
    cfg = _cfg(variant=variant, input_dim=5, hidden_dim=8, output_dim=3, layers=2,
               heads=2, use_graph=use_graph, use_source=use_source)
    rng = np.random.default_rng(0)
    g = None
    if use_graph:
        g = Graph.from_edge_list(TAYLOR_N, rng.integers(0, TAYLOR_N, (5 * TAYLOR_N, 2)))
        assert g.neighbours.slots[0][0] >= SLOT_MIN_ROWS
    x = rng.standard_normal((TAYLOR_N, cfg.input_dim))
    labels = rng.integers(0, cfg.output_dim, TAYLOR_N)
    mask = rng.random(TAYLOR_N) < 0.5
    params = init_model(cfg, 0)
    logits, tape = forward(params, x, g, cfg)
    grads = tape.backward(tape.masked_cross_entropy(logits, labels, mask))
    u = {name: np.zeros_like(p) if name in ("W_I", "b_I") else rng.standard_normal(p.shape)
         for name, p in params.items()}

    def loss(h):
        lg, ev = forward({name: p + h * u[name] for name, p in params.items()}, x, g, cfg,
                         tape=Eager())
        return float(ev.masked_cross_entropy(lg, labels, mask)[0, 0])

    slope = sum(float(np.sum(grads[name] * u[name])) for name in params)
    r = np.array([abs(loss(h) - loss(0.0) - h * slope) for h in TAYLOR_HS])
    return r[:-1] / r[1:]


@pytest.mark.parametrize("use_source", [False, True], ids=["plain", "source"])
@pytest.mark.parametrize("use_graph", [False, True], ids=["no_graph", "graph"])
@pytest.mark.parametrize("variant", ["simple", "advanced"])
def test_gradients_pass_the_taylor_remainder_test_past_gradchecks_size(variant, use_graph,
                                                                       use_source):
    assert np.all(_taylor_ratios(variant, use_graph, use_source) >= 3.0)


def _sym_apply_dropping_long_slots(self, op, a):
    """`Tape.sym_apply` with a VJP that leaves out the long slots' sums."""
    short_only = copy.copy(op)
    short_only._slots = []

    def apply(x, operator):
        rows = np.moveaxis(x, -2, 0)
        return np.moveaxis(operator.apply(rows.reshape(len(rows), -1)).reshape(rows.shape),
                           0, -2)

    return self._record(apply(self._value(a), op), (a,), lambda g: (apply(g, short_only),))


@pytest.mark.parametrize("variant", ["simple", "advanced"])
def test_the_taylor_test_catches_a_vjp_that_gradcheck_passes(monkeypatch, variant):
    # the planted VJP is wrong only on slots of SLOT_MIN_ROWS rows or more:
    # gradcheck's 12 nodes never reach one, the Taylor test's 200 do
    monkeypatch.setattr(Tape, "sym_apply", _sym_apply_dropping_long_slots)
    assert np.all(_taylor_ratios(variant, True, False) < 3.0)
    if variant == "simple":
        assert suite_gradcheck()["violations"] == 0
