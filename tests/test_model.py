import weakref

import numpy as np
import pytest

from endiff.errors import ContractError, DimensionError, FormatError, ParameterError
from endiff.graphs import er_graph
from endiff.model import (Checkpoint, ModelConfig, count_params, forward,
                          init_model, parameter_shapes)
from endiff.tape import Eager, Tape


def _cfg(**kw):
    base = dict(variant="simple", input_dim=3, hidden_dim=4, output_dim=2,
                layers=1, heads=1, tau=0.5)
    base.update(kw)
    return ModelConfig(**base)


def test_config_validation():
    with pytest.raises(ParameterError):
        _cfg(variant="fast")
    with pytest.raises(ParameterError):
        _cfg(layers=0)
    with pytest.raises(ParameterError):
        _cfg(tau=0.0)
    with pytest.raises(ParameterError):
        _cfg(tau=1.5)
    with pytest.raises(ParameterError):
        _cfg(activation_between_layers="gelu")


def test_init_shapes_and_bounds():
    cfg = _cfg()
    params = init_model(cfg, seed=0)
    assert params["W_I"].shape == (4, 3)
    assert params["b_I"].shape == (1, 4)
    assert params["W_Q_0_0"].shape == (4, 4)
    assert params["W_O"].shape == (4, 2)
    assert np.all(params["b_I"] == 0.0) and np.all(params["b_O"] == 0.0)
    for name, mat in params.items():
        if name.startswith("W_"):
            fan = sum(mat.shape)
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
    assert count_params(cfg) == 74
    total = sum(v.size for v in init_model(cfg, 0).values())
    assert total == 74


def test_count_params_scales_linearly_in_heads():
    base = count_params(_cfg(heads=1))
    doubled = count_params(_cfg(heads=2))
    qkv = 1 * 1 * 3 * 16
    assert doubled - base == qkv


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
        for h in range(2):
            params2[f"W_{role}_0_{h}"] = params1[f"W_{role}_0_0"]
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
    from endiff.tape import _sigmoid

    cfg = _cfg(variant="advanced", hidden_dim=5)
    params = init_model(cfg, 4)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((7, 3))
    # replicate the input layer
    pre = x @ params["W_I"].T + params["b_I"]
    mean = pre.mean(axis=1, keepdims=True)
    z0 = (pre - mean) / np.sqrt(np.mean((pre - mean) ** 2, axis=1,
                                        keepdims=True) + 1e-5)
    z0 = np.maximum(z0, 0.0)
    q = row_l2_normalize(z0 @ params["W_Q_0_0"].T)
    k = row_l2_normalize(z0 @ params["W_K_0_0"].T)
    a = _sigmoid(q @ k.T)
    s = a / a.sum(axis=1, keepdims=True)
    assert np.allclose(s.sum(axis=1), 1.0, atol=1e-12)


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


@pytest.mark.parametrize("use_source", [False, True])
def test_graph_forward_matches_dense_oracle(use_source):
    from endiff.suites import _dense_simple_forward

    cfg = _cfg(layers=2, heads=2, use_graph=True, use_source=use_source)
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

    # the dense builders that remain: every operator's dense() and the
    # N x N attention and Laplacian arrays
    for cls in (graphs.EdgeOperator, coupling.DenseCoupling,
                coupling.MeanCoupling, coupling.SimpleAttention):
        monkeypatch.setattr(cls, "dense", refuse)
    monkeypatch.setattr(coupling, "build_coupling", refuse)
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
    stack = np.stack([params["W_V_1_2"]] * 5)
    forward({**params, "W_V_1_2": stack}, x, g, cfg, tape=Eager())
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


def test_parameter_shapes_without_feature_transform():
    cfg = _cfg(use_feature_transform=False)
    shapes = parameter_shapes(cfg)
    assert set(shapes) == {"W_I", "b_I", "W_O", "b_O"}
    params = init_model(cfg, 0)
    x = np.random.default_rng(11).standard_normal((5, 3))
    out, _ = forward(params, x, None, cfg)
    assert out.shape == (5, 2)
    assert count_params(cfg) == 3 * 4 + 4 + 4 * 2 + 2


_EVALUATOR_CASES = [
    dict(variant=variant, use_graph=use_graph, use_source=use_source,
         activation_between_layers=act, use_feature_transform=transform)
    for variant in ("simple", "advanced", "mlp")
    for use_graph in (False, True)
    for use_source in (False, True)
    for act in ("none", "relu")
    for transform in (True, False)
]


def _evaluator_setup(n, **kw):
    cfg = _cfg(layers=2, heads=2, hidden_dim=5, **kw)
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
    loss = Tape().masked_cross_entropy(on_tape, labels, mask).value[0, 0]
    assert ev.masked_cross_entropy(eager, labels, mask).shape == ()
    assert ev.masked_cross_entropy(eager, labels, mask) == pytest.approx(loss, rel=1e-12)


@pytest.mark.parametrize("n", [1, 7])
@pytest.mark.parametrize("case", [
    dict(variant="simple"),
    dict(variant="advanced", use_graph=True, use_source=True),
    dict(variant="simple", use_graph=True, activation_between_layers="relu"),
    dict(variant="advanced", use_feature_transform=False),
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
        assert logits.shape == (4, n, 2) and losses.shape == (4,)
        for k in range(4):
            single, _ = forward({**params, name: stack[k]}, x, g, cfg, tape=Eager())
            scale = np.max(np.abs(single))
            assert np.max(np.abs(logits[k] - single)) <= 1e-12 * scale
            assert losses[k] == pytest.approx(
                ev.masked_cross_entropy(single, labels, mask), rel=1e-12)


def test_tape_rejects_a_stacked_parameter():
    cfg, params, x, _ = _evaluator_setup(4)
    stacked = {**params, "W_I": np.stack([params["W_I"]] * 2)}
    with pytest.raises(DimensionError):
        forward(stacked, x, None, cfg)
    with pytest.raises(DimensionError):
        Tape().parameter("W", np.ones((2, 3, 3)))
    for bad in ((2, 5, 4), (2, 4, 3)):  # the trailing two axes are still checked
        with pytest.raises(DimensionError, match="parameter W_I has shape"):
            forward({**params, "W_I": np.ones(bad)}, x, None, cfg, tape=Eager())


# Primitives whose outputs feed only VJPs that need the adjoint alone.
_UNCAPTURED = ("add", "scale", "mean_over_list", "sym_apply", "broadcast_row")


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
    """Scale every VJP the Tape primitive records by 1.01."""
    real = getattr(Tape, primitive)

    def skewed(self, *args, **kwargs):
        ref = real(self, *args, **kwargs)
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


def test_gradcheck_model_handles_unused_parameters():
    from endiff.suites import gradcheck_model

    # the mlp variant projects Q and K but never uses them
    cfg = ModelConfig(variant="mlp", input_dim=3, hidden_dim=4, output_dim=2,
                      layers=1, heads=1)
    errors = gradcheck_model(cfg, n=6)
    assert set(errors) == set(parameter_shapes(cfg))
    assert max(errors.values()) < 1e-5
