import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracles import (ComposedEager, ComposedTape, linear_attention_composed,
                           sigmoid_attention_composed)
from endiff.errors import ContractError, DimensionError, DomainError
from endiff.graphs import Graph
from endiff.model import ModelConfig, forward, init_model
from endiff.numerics import finite_diff_grad, row_l2_divisors
from endiff.tape import Eager, Tape


def _gradcheck(build_loss, shapes, seed=0, h=1e-6, tol=1e-6):
    """build_loss(tape, {name: Ref}) -> scalar Ref on a ComposedTape; checks
    every parameter against central differences, one tape per bumped copy in
    the stack."""
    rng = np.random.default_rng(seed)
    values = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
    tape = ComposedTape()
    refs = {name: tape.parameter(name, val) for name, val in values.items()}
    loss = build_loss(tape, refs)
    grads = tape.backward(loss)
    for name in shapes:
        def fn(stack, _name=name):
            losses = []
            for mat in stack:
                t2 = ComposedTape()
                r2 = {n: t2.parameter(n, mat if n == _name else values[n])
                      for n in shapes}
                losses.append(build_loss(t2, r2).value[0, 0])
            return losses

        fd = finite_diff_grad(fn, values[name], h)
        denom = max(np.max(np.abs(fd)), 1e-8)
        err = np.max(np.abs(grads[name] - fd)) / denom
        assert err < tol, f"{name}: rel err {err}"


def _operands():
    """2-D inputs for every primitive; row 0 of `a` is zero, below eps."""
    rng = np.random.default_rng(12)
    a, b = rng.standard_normal((2, 6, 4))
    a[0] = 0.0
    return {"a": a, "b": b, "w": rng.standard_normal((4, 3)),
            "col": rng.uniform(0.5, 2.0, (6, 1)), "row": rng.standard_normal((1, 4)),
            "q": 0.5 * b[::-1], "k": b, "heads": np.stack([a, b, a])}


_OPERANDS = _operands()
_LABELS, _MASK = np.arange(6) % 4, np.arange(6) % 3 != 1
# Each primitive on one evaluator: x maps the names of _OPERANDS to its operands.
# The composed primitives the fused heads replaced live on ComposedTape.
_PRIMITIVES = {
    "constant": lambda e, x: e.constant(_OPERANDS["a"]),
    "parameter": lambda e, x: e.parameter("p", _OPERANDS["a"]),
    "matmul": lambda e, x: e.matmul(x["a"], x["w"]),
    "sym_apply": lambda e, x: e.sym_apply(
        Graph.from_edge_list(6, [(0, 1), (1, 2), (3, 4)]).sym_operator, x["b"]),
    "linear_attention": lambda e, x: e.linear_attention(x["q"], x["k"], x["a"]),
    "sigmoid_attention": lambda e, x: e.sigmoid_attention(x["a"], x["k"], x["b"]),
    "add": lambda e, x: e.add(x["a"], x["b"]),
    "scale": lambda e, x: e.scale(x["a"], -0.3),
    "hadamard": lambda e, x: e.hadamard(x["a"], x["b"]),
    "sigmoid": lambda e, x: e.sigmoid(x["b"]),
    "relu": lambda e, x: e.relu(x["b"]),
    "reciprocal": lambda e, x: e.reciprocal(x["b"]),
    "transpose": lambda e, x: e.transpose(x["b"]),
    "row_l2_normalize": lambda e, x: e.row_l2_normalize(x["a"]),
    "layer_norm": lambda e, x: e.layer_norm(x["a"]),
    "stack": lambda e, x: e.stack(x["a"]),
    "head_mean": lambda e, x: e.head_mean(x["heads"]),
    "diag_scale_rows": lambda e, x: e.diag_scale_rows(x["b"], x["col"]),
    "row_sum": lambda e, x: e.row_sum(x["b"]),
    "broadcast_row": lambda e, x: e.broadcast_row(x["row"], 6),
    "sum_all": lambda e, x: e.sum_all(x["b"]),
    "masked_cross_entropy": lambda e, x: e.masked_cross_entropy(x["b"], _LABELS, _MASK),
    "masked_mse": lambda e, x: e.masked_mse(x["b"], _OPERANDS["a"], _MASK),
}


@pytest.mark.parametrize("name", sorted(_PRIMITIVES))
def test_tape_and_eager_compute_the_same_bits(name):
    t = ComposedTape()
    on_tape = _PRIMITIVES[name](t, {k: t.constant(v) for k, v in _OPERANDS.items()}).value
    eager = _PRIMITIVES[name](ComposedEager(), _OPERANDS)
    assert np.shape(eager) == np.shape(on_tape)
    assert np.array_equal(eager, on_tape)


def test_eager_defines_only_its_hooks_and_leaves():
    # Every primitive is Tape's own definition, so the two cannot drift.
    own = {name for name, member in vars(Eager).items() if callable(member)}
    assert own == {"__init__", "_value", "_record", "constant", "parameter"}
    primitives = {name for name, member in vars(Tape).items()
                  if callable(member) and not name.startswith("_")}
    composed = {name for name in vars(ComposedTape) if not name.startswith("_")}
    assert primitives - {"backward"} == set(_PRIMITIVES) - composed


def test_backward_requires_scalar():
    tape = Tape()
    p = tape.parameter("w", np.ones((2, 2)))
    with pytest.raises(ContractError):
        tape.backward(p)


def test_backward_through_a_released_node_is_a_contract_error():
    tape = ComposedTape()
    w = tape.parameter("w", np.ones((2, 2)))
    first = tape.sum_all(tape.scale(w, 3.0))
    assert np.allclose(tape.backward(first)["w"], 3.0)
    second = tape.sum_all(tape.scale(w, 2.0))  # new nodes on a released leaf
    with pytest.raises(ContractError, match="already ran"):
        tape.backward(second)


def test_leaves_are_matrices_or_stacks_of_them():
    t = Tape()
    assert t.parameter("w", np.ones((2, 3, 4))).shape == (2, 3, 4)
    assert t.constant(np.ones((2, 1, 3, 4))).shape == (2, 1, 3, 4)
    for bad in (1.0, np.ones(3)):
        with pytest.raises(DimensionError, match="ndim"):
            t.parameter("v", bad)
        with pytest.raises(DimensionError, match="ndim"):
            t.constant(bad)


def test_stack_is_a_view_on_a_unit_head_axis():
    a = np.arange(6.0).reshape(2, 3)
    t = Tape()
    s = t.stack(t.constant(a))
    assert s.shape == (1, 2, 3) and np.shares_memory(s.value, a)
    w = t.parameter("w", np.ones((4, 3, 5)))
    assert t.matmul(s, w).shape == (4, 2, 5)  # the unit axis meets the heads


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


def test_stack_and_head_mean_grads():
    # x is broadcast over the head axis of the weight stack and y, given a
    # unit head axis, over its heads, so their adjoints are summed back
    _gradcheck(
        lambda t, r: t.sum_all(t.hadamard(t.head_mean(t.relu(t.add(
            t.matmul(r["x"], r["heads"]), t.stack(r["y"])))), r["w"])),
        {"x": (4, 2), "heads": (3, 2, 3), "y": (4, 3), "w": (4, 3)},
        seed=4,
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


@pytest.mark.parametrize("bias_first", [False, True])
def test_add_broadcasts_a_row_as_broadcast_row_then_add_does(bias_first):
    # the model's biases: add takes the 1 x d row itself, bit for bit
    rng = np.random.default_rng(8)
    values = {"a": rng.standard_normal((5, 3)), "b": rng.standard_normal((1, 3)),
              "w": rng.standard_normal((5, 3))}

    def run(composed):
        t = ComposedTape()
        r = {name: t.parameter(name, v) for name, v in values.items()}
        b = t.broadcast_row(r["b"], 5) if composed else r["b"]
        out = t.add(b, r["a"]) if bias_first else t.add(r["a"], b)
        return out.value, t.backward(t.sum_all(t.hadamard(out, r["w"])))

    (value, grads), (want, want_grads) = run(False), run(True)
    assert np.array_equal(value, want)
    assert grads.keys() == want_grads.keys()
    assert all(np.array_equal(grads[k], want_grads[k]) for k in grads)
    # stacked operands on Eager: copies of the rows, of the bias, or both
    e = ComposedEager()
    for a, b in ((rng.standard_normal((4, 5, 3)), values["b"]),
                 (values["a"], rng.standard_normal((4, 1, 3))),
                 (rng.standard_normal((4, 5, 3)), rng.standard_normal((4, 1, 3)))):
        row = e.broadcast_row(b, 5)
        got, want = (e.add(b, a), e.add(row, a)) if bias_first else (e.add(a, b), e.add(a, row))
        assert got.shape == (4, 5, 3) and np.array_equal(got, want)


@pytest.mark.parametrize("a, b", [((6, 4), (6, 3)), ((6, 4), (1, 3)), ((6, 4), (3, 4)),
                                  ((2, 6, 4), (2, 2, 4))])
def test_add_rejects_mismatched_columns_and_rows_neither_equal_nor_one(a, b):
    for tape in (Tape(), Eager()):
        with pytest.raises(DimensionError, match="add shape mismatch"):
            tape.add(tape.constant(np.ones(a)), tape.constant(np.ones(b)))
        with pytest.raises(DimensionError, match="add shape mismatch"):
            tape.add(tape.constant(np.ones(b)), tape.constant(np.ones(a)))


def test_reused_node_accumulates_gradient():
    # w appears twice; d/dw sum(w + w) = 2
    tape = ComposedTape()
    w = tape.parameter("w", np.full((2, 2), 3.0))
    loss = tape.sum_all(tape.add(w, w))
    grads = tape.backward(loss)
    assert np.allclose(grads["w"], 2.0)


def test_unused_parameter_gets_zero_grad():
    tape = ComposedTape()
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
def _attention_inputs(draw, signed: bool):
    """Q, K, V and an upstream weight W, with some Q and K rows zero or of
    norm below NORM_EPS. Unsigned Q and K keep every simple-attention
    denominator N + q~ . sum(k~) at N or above."""
    n, d, m = draw(st.integers(1, 12)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, k = rng.standard_normal((2, n, d)) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    if not signed:
        q, k = np.abs(q), np.abs(k)
    for x in (q, k):
        x[rng.random(n) < 0.2] = 0.0
        x[rng.random(n) < 0.2] *= 1e-18  # norm below NORM_EPS
    return q, k, rng.standard_normal((n, m)), rng.standard_normal((n, m))


def _attention_grads(head, q, k, v, w):
    t = ComposedTape()
    refs = [t.parameter(name, val) for name, val in (("q", q), ("k", k), ("v", v))]
    out = head(t, *refs)
    return out.value, t.backward(t.sum_all(t.hadamard(out, t.constant(w))))


def _assert_head_matches(head, composed, case):
    """A fused head's value and gradients against its composed chain, to
    1e-12 of their magnitudes. A Q or K gradient row is 1/divisor times an
    O(1) adjoint, and 1/NORM_EPS = 1e12 for a row below NORM_EPS, so rows
    are compared times their divisors."""
    q, k = case[:2]
    value, grads = _attention_grads(head, *case)
    want, want_grads = _attention_grads(composed, *case)
    assert np.max(np.abs(value - want)) <= 1e-12 * max(np.max(np.abs(want)), 1.0)
    for name, div in (("q", row_l2_divisors(q)), ("k", row_l2_divisors(k)), ("v", 1.0)):
        got, grad = grads[name] * div, want_grads[name] * div
        assert got.shape == grad.shape
        assert np.max(np.abs(got - grad)) <= 1e-12 * max(np.max(np.abs(grad)), 1.0)


@settings(max_examples=200, deadline=None)
@given(_attention_inputs(signed=False))
def test_linear_attention_matches_the_composed_head(case):
    # The composed chain forms its accumulators in another order, so the two
    # agree to rounding, not bit for bit.
    _assert_head_matches(Tape.linear_attention, linear_attention_composed, case)


@settings(max_examples=200, deadline=None)
@given(_attention_inputs(signed=True))
def test_sigmoid_attention_matches_the_composed_head(case):
    # The fused head scores f(2 - 2 q~.k~) of the advanced penalty, which the
    # composed chain's sigmoid of q~.k~ equals only to rounding.
    _assert_head_matches(Tape.sigmoid_attention, sigmoid_attention_composed, case)


def test_linear_attention_grad():
    _gradcheck(
        lambda t, r: t.sum_all(t.hadamard(
            t.linear_attention(t.scale(r["q"], 0.2), t.scale(r["k"], 0.2), r["v"]),
            r["w"])),
        {"q": (5, 3), "k": (5, 3), "v": (5, 2), "w": (5, 2)},
        seed=10,
    )


def test_sigmoid_attention_grad():
    _gradcheck(
        lambda t, r: t.sum_all(t.hadamard(
            t.sigmoid_attention(r["q"], r["k"], r["v"]), r["w"])),
        {"q": (5, 3), "k": (5, 3), "v": (5, 2), "w": (5, 2)},
        seed=13,
    )


@pytest.mark.parametrize("primitive", ["linear_attention", "sigmoid_attention"])
def test_attention_over_a_head_axis_grad(primitive):
    # Two heads; Q is one matrix broadcast over both, so its adjoint is
    # summed back over the head axis.
    _gradcheck(
        lambda t, r: t.sum_all(t.hadamard(t.head_mean(getattr(t, primitive)(
            t.scale(r["q"], 0.2), t.scale(r["k"], 0.2), r["v"])), r["w"])),
        {"q": (5, 3), "k": (2, 5, 3), "v": (2, 5, 2), "w": (5, 2)},
        seed=15,
    )


def test_tape_heads_match_their_single_head_bits():
    rng = np.random.default_rng(16)
    q, k = rng.standard_normal((2, 3, 6, 4))
    q[:, 0] = 0.0  # a zero row
    v = rng.standard_normal((3, 6, 2))
    for primitive in ("linear_attention", "sigmoid_attention"):
        t = Tape()
        stacked = getattr(t, primitive)(*(t.constant(x) for x in (q, k, v))).value
        for h in range(3):
            t = Tape()
            single = getattr(t, primitive)(*(t.constant(x[h]) for x in (q, k, v)))
            assert np.array_equal(stacked[h], single.value)


def _stack_slices_match(primitive: str, seed: int):
    """An Eager head on a stack, and broadcast against single matrices,
    matches the Tape head on each slice."""
    rng = np.random.default_rng(seed)
    q, k = rng.standard_normal((2, 3, 6, 4))
    q[:, 0] = 0.0  # a zero row
    v = rng.standard_normal((3, 6, 2))
    head = getattr(Eager(), primitive)
    for args in ((q, k, v), (q, k[0], v[0]), (q[0], k[0], v)):
        stacked = head(*args)
        assert stacked.shape == (3, 6, 2)
        for i in range(3):
            single = [a[i] if a.ndim == 3 else a for a in args]
            t = Tape()
            on_tape = getattr(t, primitive)(*(t.constant(a) for a in single)).value
            assert np.array_equal(head(*single), on_tape)
            assert np.max(np.abs(stacked[i] - on_tape)) <= 1e-12 * np.max(np.abs(on_tape))


def test_eager_linear_attention_on_a_stack_matches_each_slice():
    _stack_slices_match("linear_attention", 11)


def test_eager_sigmoid_attention_on_a_stack_matches_each_slice():
    _stack_slices_match("sigmoid_attention", 14)


def test_linear_attention_rejects_a_zero_denominator():
    # every k~ is -q~ = -e1, so N + q~ . sum_j k~_j is exactly 0
    n = 4
    q = np.zeros((n, 3))
    q[:, 0] = 1.0
    v = np.ones((n, 2))
    t = Tape()
    with pytest.raises(DomainError, match="denominator"):
        t.linear_attention(t.constant(q), t.constant(-q), t.constant(v))
    with pytest.raises(DomainError, match="denominator"):
        Eager().linear_attention(np.stack([0.5 * q, q]), -q, v)
    with pytest.raises(DimensionError):
        t.linear_attention(t.constant(q), t.constant(q[:, :2]), t.constant(v))
    with pytest.raises(DimensionError):
        t.sigmoid_attention(t.constant(q), t.constant(q), t.constant(v[:3]))


def _training_step(n: int, backward: bool = True):
    """One training step of the simple model with the graph channel (hidden
    32, 2 heads, 2 layers) on a seeded random graph with n nodes and 5n
    edges, 16 features and 4 classes: a function that runs the forward and
    backward on the tape it is given and returns the gradients, or with
    `backward` false runs the forward alone and returns the logits. The
    graph's operator is built here, not in the step."""
    rng = np.random.default_rng(n)
    graph = Graph.from_edge_list(n, rng.integers(0, n, (5 * n, 2)))
    graph.sym_operator  # cached on the graph
    cfg = ModelConfig(input_dim=16, hidden_dim=32, output_dim=4, layers=2, heads=2,
                      use_graph=True)
    params = init_model(cfg, 0)
    x, labels, mask = rng.standard_normal((n, 16)), rng.integers(0, 4, n), rng.random(n) < 0.5

    def step(tape: Tape):
        logits, t = forward(params, x, graph, cfg, tape)
        if not backward:
            return logits
        return t.backward(t.masked_cross_entropy(logits, labels, mask))

    return step


class _WatchedTape(Tape):
    """A Tape whose every VJP, when backward calls it, first checks that
    backward has let go of what the nodes that ran before it left: each
    one's closure and adjoint, and every contribution summed into an
    adjoint. Such an array may still be reachable only as a contribution
    that is a parent's whole adjoint so far, or as the base of one: `add`
    passes its adjoint on as it is, and `stack` a view of it."""

    def __init__(self):
        super().__init__()
        self.closures = {}  # node -> weakref of its VJP
        self.ran = []  # the nodes whose VJP was called, in call order
        self.spent = []  # weakrefs of the arrays backward must have let go
        # key -> weakref of its adjoint while that is one contribution as
        # its VJP returned it; None once a second one was summed in
        self.pending = {}

    def _record(self, value, parents, vjp):
        if vjp is not None:
            idx, keys = len(self.nodes), tuple(p.idx for p in parents)

            def watched(g, vjp=vjp):
                self.check()
                self.ran.append(idx)
                self.pending.pop(idx, None)
                grads = vjp(g)
                self.spent.append(weakref.ref(g))
                for key, pg in zip(keys, grads):
                    if key not in self.pending:
                        self.pending[key] = weakref.ref(pg)
                        continue
                    # summed with the adjoint so far: both are spent
                    if self.pending[key] is not None:
                        self.spent.append(self.pending[key])
                    self.spent.append(weakref.ref(pg))
                    self.pending[key] = None
                return grads

            self.closures[idx] = weakref.ref(watched)
            vjp = watched
        return super()._record(value, parents, vjp)

    def check(self):
        ran = [i for i in self.ran if self.closures[i]() is not None]
        assert not ran, f"the closures of nodes {ran} outlived their VJP"
        rightly = [x for x in (r() for r in self.pending.values() if r) if x is not None]
        rightly = {id(x) for x in rightly} | {id(x.base) for x in rightly}
        live = [x.shape for x in (r() for r in self.spent)
                if x is not None and id(x) not in rightly]
        assert not live, f"after nodes {self.ran}, spent arrays {live} are still held"


def test_backward_lets_go_of_each_node_before_the_next_vjp():
    tape = _WatchedTape()
    grads = _training_step(50)(tape)
    assert set(tape.ran) == set(tape.closures)  # every VJP ran, and checked
    assert tape.spent
    tape.check()
    assert all(tape.pending[name]() is grads[name] for name in grads)


_STACK_BUDGET = 13.0
_FORWARD_BUDGET = 11.5


def _step_peak_in_stacks(traced_peak, n: int, backward: bool = True) -> float:
    """The traced peak of one `_training_step` on n nodes, in head stacks:
    (H, n, d) float64 arrays of 2 x n x 32 x 8 bytes."""
    step = _training_step(n, backward)
    step(Tape())  # the graph operator's index for this d is built once and kept
    return traced_peak(lambda: step(Tape()))[0] / (2 * n * 32 * 8)


def test_a_training_step_holds_a_budget_of_head_stacks_at_n_and_2n(traced_peak):
    """The peak comes in the last layer's attention VJP. Counting a head
    stack as S, and the state, a head mean and their adjoints as S/2, the
    live arrays there are:
    - what later VJPs keep: per layer Q~, K~ and V, 3 S; layer 0's
      LayerNorm output, which layer 1's projections read, S/2; the input
      block's LayerNorm and ReLU outputs, S/2 each, and the ReLU mask, S/16
      (one byte per value). 7.56 S in all: no raw Q or K, no attention
      output, no head mean;
    - the pending adjoints: the attention's own, V's from the graph channel
      and the state's from the blend, 3 x S/2;
    - the VJP's working set: its three outputs, with one temporary beside
      them while fewer than three exist, 3 S. Before its first output it
      holds two, the numerators' adjoint and Q~'s adjoint through them,
      from which it takes the denominators' adjoint: it keeps no S V and
      rebuilds none.
    That is 12.06 S. Columns of N values (row divisors, denominators,
    LayerNorm's std, 4 logits per row) and fixed overhead take less than
    the rest of a stack: 13 S. The step reads 12.7 S at N=1000 and 12.5 S
    at N=2000. Every array above is O(N), so the peak at 2N is at most 2.2
    times the peak at N."""
    small, large = (_step_peak_in_stacks(traced_peak, n) for n in (1000, 2000))
    assert max(small, large) <= _STACK_BUDGET, f"{small:.2f}, {large:.2f} stacks"
    assert 2 * large <= 2.2 * small, f"{small:.2f}, {large:.2f} stacks"


def test_a_tape_forward_holds_a_budget_of_head_stacks_at_n_and_2n(traced_peak):
    """The forward's peak comes in layer 1's attention, as it forms its
    value. Counting a head stack as S, and the state as S/2, the live
    arrays there are:
    - what the VJPs keep from the input block and layer 0: the input
      block's LayerNorm and ReLU outputs, S/2 each, and the ReLU mask,
      S/16; layer 0's Q~, K~ and V, 3 S; layer 0's LayerNorm output, S/2.
      4.56 S in all;
    - layer 1's projections: its raw Q and K, which the attention call
      holds as its operands, 2 S, and V, S; the Q~ and K~ its VJP keeps,
      2 S;
    - the attention output, S.
    That is 10.56 S. Columns of N values (per layer two row divisors and
    the denominators, S/32 each, and LayerNorm's std) take 0.22 S, and
    fixed overhead less than 0.25 S at N=1000: 11.5 S. The forward reads
    11.0 S at N=1000 and 10.9 S at N=2000. A layer that held its raw Q and
    K to its end would keep them through its graph channel, where layer 1
    would then reach 12 S. The peak at 2N is at most 2.2 times the peak
    at N."""
    small, large = (_step_peak_in_stacks(traced_peak, n, backward=False)
                    for n in (1000, 2000))
    assert max(small, large) <= _FORWARD_BUDGET, f"{small:.2f}, {large:.2f} stacks"
    assert 2 * large <= 2.2 * small, f"{small:.2f}, {large:.2f} stacks"


def test_an_attention_vjp_that_keeps_its_output_breaks_the_stack_budget(
        traced_peak, monkeypatch):
    # one more stack per layer, held until each layer's VJP has run
    linear_attention = Tape.linear_attention

    def keeping(self, q, k, v):
        ref = linear_attention(self, q, k, v)
        parents, vjp = self.nodes[ref.idx]
        out = ref.value

        def vjp_keeping_out(g):
            assert out is not None  # a closure over the output
            return vjp(g)

        self.nodes[ref.idx] = (parents, vjp_keeping_out)
        return ref

    monkeypatch.setattr(Tape, "linear_attention", keeping)
    assert _step_peak_in_stacks(traced_peak, 1000) > _STACK_BUDGET
