import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracles import linear_attention_composed
from endiff.errors import ContractError, DimensionError, DomainError
from endiff.numerics import finite_diff_grad, row_l2_normalize
from endiff.tape import Eager, Tape


def _gradcheck(build_loss, shapes, seed=0, h=1e-6, tol=1e-6):
    """build_loss(tape, {name: Ref}) -> scalar Ref; checks every parameter
    against central differences, one tape per bumped copy in the stack."""
    rng = np.random.default_rng(seed)
    values = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
    tape = Tape()
    refs = {name: tape.parameter(name, val) for name, val in values.items()}
    loss = build_loss(tape, refs)
    grads = tape.backward(loss)
    for name in shapes:
        def fn(stack, _name=name):
            losses = []
            for mat in stack:
                t2 = Tape()
                r2 = {n: t2.parameter(n, mat if n == _name else values[n])
                      for n in shapes}
                losses.append(build_loss(t2, r2).value[0, 0])
            return losses

        fd = finite_diff_grad(fn, values[name], h)
        denom = max(np.max(np.abs(fd)), 1e-8)
        err = np.max(np.abs(grads[name] - fd)) / denom
        assert err < tol, f"{name}: rel err {err}"


def test_forward_values_match_eager():
    tape = Tape()
    a = tape.constant([[1.0, 2.0], [3.0, 4.0]])
    b = tape.constant([[1.0, 0.0], [0.0, 1.0]])
    out = tape.matmul(a, b)
    assert np.allclose(out.value, [[1, 2], [3, 4]])


def test_backward_requires_scalar():
    tape = Tape()
    p = tape.parameter("w", np.ones((2, 2)))
    with pytest.raises(ContractError):
        tape.backward(p)


def test_backward_through_a_released_node_is_a_contract_error():
    tape = Tape()
    w = tape.parameter("w", np.ones((2, 2)))
    first = tape.sum_all(tape.scale(w, 3.0))
    assert np.allclose(tape.backward(first)["w"], 3.0)
    second = tape.sum_all(tape.scale(w, 2.0))  # new nodes on a released leaf
    with pytest.raises(ContractError, match="already ran"):
        tape.backward(second)


def test_duplicate_parameter_name_rejected():
    tape = Tape()
    tape.parameter("w", np.ones((1, 1)))
    with pytest.raises(ContractError):
        tape.parameter("w", np.ones((1, 1)))


def test_matmul_grad():
    _gradcheck(
        lambda t, r: t.sum_all(t.matmul(r["a"], r["b"])),
        {"a": (3, 4), "b": (4, 2)},
    )


def test_sym_apply_value_and_grad():
    from dense_oracles import normalized_adjacency
    from endiff.graphs import Graph

    g = Graph.from_edge_list(5, [(0, 1), (1, 2), (2, 0), (3, 1)])  # node 4 isolated
    op = g.sym_operator
    v = np.random.default_rng(3).standard_normal((5, 2))
    t = Tape()
    out = t.sym_apply(op, t.constant(v))
    assert np.allclose(out.value, normalized_adjacency(g, "sym") @ v, atol=1e-15)
    _gradcheck(
        lambda t, r: t.sum_all(t.hadamard(t.sym_apply(op, r["v"]), r["w"])),
        {"v": (5, 2), "w": (5, 2)},
    )


def test_elementwise_grads():
    _gradcheck(
        lambda t, r: t.sum_all(t.hadamard(t.add(r["a"], r["b"]),
                                          t.add(r["a"], t.scale(r["b"], -1.0)))),
        {"a": (3, 3), "b": (3, 3)},
    )


def test_sigmoid_relu_scale_grads():
    _gradcheck(
        lambda t, r: t.sum_all(t.scale(t.sigmoid(t.relu(r["a"])), 2.5)),
        {"a": (4, 3)},
        seed=5,
    )


def test_row_l2_normalize_grad():
    _gradcheck(
        lambda t, r: t.sum_all(t.hadamard(t.row_l2_normalize(r["a"]), r["b"])),
        {"a": (5, 4), "b": (5, 4)},
        seed=2,
    )


def test_layer_norm_grad():
    _gradcheck(
        lambda t, r: t.sum_all(t.hadamard(t.layer_norm(r["a"]), r["b"])),
        {"a": (5, 6), "b": (5, 6)},
        seed=3,
    )


def test_mean_over_list_grad():
    _gradcheck(
        lambda t, r: t.sum_all(t.mean_over_list([r["a"], r["b"], r["c"]])),
        {"a": (2, 3), "b": (2, 3), "c": (2, 3)},
    )


def test_diag_scale_rows_grad():
    _gradcheck(
        lambda t, r: t.sum_all(t.hadamard(
            t.diag_scale_rows(r["a"], t.reciprocal(t.row_sum(t.sigmoid(r["v"])))),
            r["b"])),
        {"a": (4, 3), "v": (4, 2), "b": (4, 3)},
        seed=6,
    )


def test_broadcast_row_and_transpose_grads():
    _gradcheck(
        lambda t, r: t.sum_all(t.hadamard(
            t.broadcast_row(r["row"], 5), t.transpose(r["b"]))),
        {"row": (1, 3), "b": (3, 5)},
        seed=7,
    )


def test_reused_node_accumulates_gradient():
    # w appears twice; d/dw sum(w + w) = 2
    tape = Tape()
    w = tape.parameter("w", np.full((2, 2), 3.0))
    loss = tape.sum_all(tape.add(w, w))
    grads = tape.backward(loss)
    assert np.allclose(grads["w"], 2.0)


def test_unused_parameter_gets_zero_grad():
    tape = Tape()
    w = tape.parameter("w", np.ones((2, 2)))
    u = tape.parameter("unused", np.ones((3, 3)))
    loss = tape.sum_all(w)
    grads = tape.backward(loss)
    assert np.allclose(grads["unused"], 0.0)
    assert grads["unused"].shape == (3, 3)


def test_masked_cross_entropy_values():
    tape = Tape()
    n, c = 4, 3
    logits = tape.constant(np.zeros((n, c)))
    labels = np.array([0, 1, 2, 0])
    mask = np.ones(n, dtype=bool)
    out = tape.masked_cross_entropy(logits, labels, mask)
    # uniform logits: cross-entropy = ln C
    assert out.value[0, 0] == pytest.approx(np.log(c))

    confident = np.eye(c)[labels] * 1e6
    t2 = Tape()
    out2 = t2.masked_cross_entropy(t2.constant(confident), labels, mask)
    assert out2.value[0, 0] == pytest.approx(0.0, abs=1e-9)


def test_masked_cross_entropy_empty_mask():
    tape = Tape()
    logits = tape.constant(np.zeros((3, 2)))
    with pytest.raises(ContractError):
        tape.masked_cross_entropy(logits, np.zeros(3, dtype=int),
                                  np.zeros(3, dtype=bool))


def test_masked_cross_entropy_grad():
    labels = np.array([0, 2, 1, 1, 0])
    mask = np.array([True, True, False, True, False])
    _gradcheck(
        lambda t, r: t.masked_cross_entropy(r["logits"], labels, mask),
        {"logits": (5, 3)},
        seed=8,
    )


def test_masked_mse_value_and_grad():
    target = np.array([[1.0], [2.0], [3.0]])
    mask = np.array([True, False, True])
    tape = Tape()
    pred = tape.constant(target)
    assert tape.masked_mse(pred, target, mask).value[0, 0] == 0.0
    _gradcheck(
        lambda t, r: t.masked_mse(r["pred"], target, mask),
        {"pred": (3, 1)},
        seed=9,
    )


def test_matmul_dimension_error():
    tape = Tape()
    a = tape.constant(np.ones((2, 3)))
    b = tape.constant(np.ones((2, 3)))
    with pytest.raises(DimensionError):
        tape.matmul(a, b)


@st.composite
def _attention_inputs(draw):
    """Q~, K~, V and an upstream weight W: unit K~ rows and Q~ rows of norm
    below 0.9, so every denominator is at least N / 10."""
    n, d, m = draw(st.integers(1, 12)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    qt = draw(st.floats(0.0, 0.9)) * row_l2_normalize(rng.standard_normal((n, d)))
    kt = row_l2_normalize(rng.standard_normal((n, d)))
    return qt, kt, rng.standard_normal((n, m)), rng.standard_normal((n, m))


def _attention_grads(head, qt, kt, v, w):
    t = Tape()
    refs = [t.parameter(name, val) for name, val in (("qt", qt), ("kt", kt), ("v", v))]
    out = head(t, *refs)
    return out.value, t.backward(t.sum_all(t.hadamard(out, t.constant(w))))


@settings(max_examples=200, deadline=None)
@given(_attention_inputs())
def test_linear_attention_matches_the_composed_head(case):
    qt, kt, v, w = case
    value, grads = _attention_grads(Tape.linear_attention, qt, kt, v, w)
    want, want_grads = _attention_grads(linear_attention_composed, qt, kt, v, w)
    assert np.max(np.abs(value - want)) <= 1e-12 * max(np.max(np.abs(want)), 1.0)
    for name, grad in want_grads.items():
        assert grads[name].shape == grad.shape
        assert np.max(np.abs(grads[name] - grad)) <= 1e-10 * max(np.max(np.abs(grad)), 1.0)


def test_linear_attention_grad():
    _gradcheck(
        lambda t, r: t.sum_all(t.hadamard(
            t.linear_attention(t.scale(r["q"], 0.2), t.scale(r["k"], 0.2), r["v"]),
            r["w"])),
        {"q": (5, 3), "k": (5, 3), "v": (5, 2), "w": (5, 2)},
        seed=10,
    )


def test_eager_linear_attention_on_a_stack_matches_each_slice():
    rng = np.random.default_rng(11)
    ev = Eager()
    qt = 0.5 * ev.row_l2_normalize(rng.standard_normal((3, 6, 4)))
    kt = ev.row_l2_normalize(rng.standard_normal((3, 6, 4)))
    v = rng.standard_normal((3, 6, 2))
    for args in ((qt, kt, v), (qt, kt[0], v[0]), (qt[0], kt[0], v)):
        stacked = ev.linear_attention(*args)
        assert stacked.shape == (3, 6, 2)
        for k in range(3):
            single = [a[k] if a.ndim == 3 else a for a in args]
            t = Tape()
            on_tape = t.linear_attention(*(t.constant(a) for a in single)).value
            assert np.array_equal(ev.linear_attention(*single), on_tape)
            assert np.max(np.abs(stacked[k] - on_tape)) <= 1e-12 * np.max(np.abs(on_tape))


def test_linear_attention_rejects_a_zero_denominator():
    # every k~ is -q~ = -e1, so N + q~ . sum_j k~_j is exactly 0
    n = 4
    qt = np.zeros((n, 3))
    qt[:, 0] = 1.0
    v = np.ones((n, 2))
    t = Tape()
    with pytest.raises(DomainError, match="denominator"):
        t.linear_attention(t.constant(qt), t.constant(-qt), t.constant(v))
    with pytest.raises(DomainError, match="denominator"):
        Eager().linear_attention(np.stack([0.5 * qt, qt]), -qt, v)
    with pytest.raises(DimensionError):
        t.linear_attention(t.constant(qt), t.constant(qt[:, :2]), t.constant(v))
