"""A minimal reverse-mode differentiation tape over dense float64 arrays,
and `Eager`, the tape that records nothing.

Each primitive is one `Tape` method. It reads its operands through `_value`,
computes its value once over the last two (matrix) axes, and hands the
value, its operands and its vector-Jacobian product to `_record`, which
appends a node in execution order and returns the value in a `Ref`. Leading
axes are a batch that operands broadcast over, and each VJP sums its adjoint
back over the axes its operand was broadcast along, so one node carries all
of a layer's (H, N, d) heads: a projection multiplies the state by an
(H, d, d) weight parameter, `stack` gives a state its unit head axis and
`head_mean` averages over that axis. `add` also broadcasts a one-row
operand, a bias, over the other's rows. The tape keeps no values: each lives
as long as its Refs or a VJP that captured it. A leaf is a matrix or a
stack of them; a parameter is a named leaf, not a node. `backward` runs
reverse accumulation from a 1x1 loss, fills per-parameter gradients and
releases the parameter registry, so a tape is differentiated once. It
drops each node as it reaches it: once the node's VJP returns, the closure
and the node's adjoint go before the contributions are summed into its
parents' adjoints, and each contribution goes once it is summed, so no
spent array is held through the next VJP. `sym_apply` takes a symmetric
operator instead of a dense matrix. An attention primitive takes raw Q, K
and V, row-normalizes Q and K itself and computes no score or S V of its
own: it takes its value from the attention kernel in `coupling`, the one
the diffusion dynamics use, and keeps only its VJP, which reads the
kernel's state. `linear_attention` (simple) runs its gradient through the
kernel's O(N d^2) accumulators K~^T V, 1^T K~ and 1^T V, with no ones
column and no (..., N, d+1) adjoint, and neither keeps S V nor rebuilds
it: the denominators' adjoint reads Q~'s own adjoint through the
numerators; `sigmoid_attention` (advanced) runs through the scores and
row reciprocals of one `DenseAttention`. The tape has only the primitives a
model forward and its loss run; composed forms used as test oracles live
with the tests. A tape is confined to a single thread for its lifetime.

`Eager` overrides only the two hooks and the two leaves: its operands are
plain arrays and `_record` returns the bare value, so forwards that are
never differentiated (evaluation, finite differences) run the very same
primitives.
"""

from __future__ import annotations

import numpy as np

from .coupling import DenseAttention, PenaltyFamily, simple_attention
from .errors import ContractError, DimensionError
from .numerics import (LAYER_NORM_EPS, NORM_EPS, as_matrix, as_stack, row_dots,
                       row_l2_divisors)

_ADVANCED = PenaltyFamily("advanced")  # its f(2 - 2 q~.k~) is sigmoid(q~.k~)


class Ref:
    """A recorded value, and the key its adjoint accumulates under on the
    tape that recorded it: a node index, or a parameter's name. The value
    lives here, not on the tape, so it dies with its last Ref unless a VJP
    captured it."""

    __slots__ = ("tape", "idx", "value")

    def __init__(self, tape: "Tape", idx: int | str, value: np.ndarray):
        self.tape = tape
        self.idx = idx
        self.value = value

    @property
    def shape(self):
        return self.value.shape


def _mT(x: np.ndarray) -> np.ndarray:
    """x with its last two axes swapped: a view."""
    return x.swapaxes(-1, -2)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """The adjoint g summed over the axes an operand of `shape` was
    broadcast along: the leading axes it lacks and those where it has
    length 1."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(lead + i for i, n in enumerate(shape) if n == 1)
    return g.sum(axis=axes).reshape(shape)


def _row_normalized_vjp(g: np.ndarray, y: np.ndarray, div: np.ndarray) -> np.ndarray:
    """The adjoint of x from g, that of y = x / div, in one array beside g.
    Rows at/below NORM_EPS are a plain 1/NORM_EPS scaling: no projection."""
    out = y * np.where(div <= NORM_EPS, 0.0, row_dots(g, y)[..., None])
    np.subtract(g, out, out=out)
    out /= div
    return _unbroadcast(out, y.shape)


class Tape:
    def __init__(self):
        # (parent keys aligned with the vjp's outputs, vjp or None);
        # None once backward has run the node
        self.nodes: list[tuple | None] = []
        # name -> shape; None once backward has filled the gradients
        self.params: dict[str, tuple] | None = {}

    # -- hooks and leaves -----------------------------------------------

    def _value(self, ref: Ref) -> np.ndarray:
        return ref.value

    def _record(self, value, parents, vjp) -> Ref:
        """A node of `value` whose VJP maps its adjoint to those of the
        `parents` Refs; the node keeps their keys, not their values."""
        self.nodes.append((tuple(p.idx for p in parents), vjp))
        return Ref(self, len(self.nodes) - 1, value)

    def constant(self, value) -> Ref:
        return self._record(as_stack(value), (), None)

    def parameter(self, name: str, value) -> Ref:
        """A named leaf, not a node: its adjoint accumulates under its name."""
        if name in self.params:
            raise ContractError(f"parameter {name!r} already registered")
        value = as_stack(value)
        self.params[name] = value.shape
        return Ref(self, name, value)

    def _head_operands(self, kind: str, q: Ref, k: Ref, v: Ref):
        """An attention head's Q~, its row divisors, K~, its row divisors and
        V: the values of its projections, with Q and K row-normalized."""
        qv, kv, vv = self._value(q), self._value(k), self._value(v)
        if qv.shape[-1] != kv.shape[-1] or kv.shape[-2] != vv.shape[-2]:
            raise DimensionError(
                f"{kind} attention shape mismatch: {qv.shape}, {kv.shape}, {vv.shape}")
        q_div, k_div = row_l2_divisors(qv), row_l2_divisors(kv)
        return qv / q_div, q_div, kv / k_div, k_div, vv

    # -- primitives -----------------------------------------------------

    def matmul(self, a: Ref, b: Ref) -> Ref:
        av, bv = self._value(a), self._value(b)
        if av.shape[-1] != bv.shape[-2]:
            raise DimensionError(f"matmul shape mismatch: {av.shape} x {bv.shape}")
        return self._record(av @ bv, (a, b), lambda g: (
            _unbroadcast(g @ _mT(bv), av.shape), _unbroadcast(_mT(av) @ g, bv.shape)))

    def sym_apply(self, op, a: Ref) -> Ref:
        """op.apply on every matrix of `a`, for a fixed symmetric linear
        operator `op` such as `Graph.sym_operator`, with any leading axes
        folded into columns: one N x (B d) application. Symmetry makes the
        same application the VJP."""
        def apply(x):
            rows = np.moveaxis(x, -2, 0)
            return np.moveaxis(op.apply(rows.reshape(len(rows), -1)).reshape(rows.shape), 0, -2)

        return self._record(apply(self._value(a)), (a,), lambda g: (apply(g),))

    def linear_attention(self, q: Ref, k: Ref, v: Ref) -> Ref:
        """Simple attention S V on the row-normalized projections Q~ and K~,
        its value `coupling.simple_attention`'s: O(N d^2) through the
        accumulators K~^T V, 1^T K~ and 1^T V, with no N x N array. The VJP
        is the non-causal linear-transformer gradient through the same
        accumulators (Katharopoulos et al. 2020, sec. 3), then through both
        normalizations."""
        qt, q_div, kt, k_div, vv = self._head_operands("linear", q, k, v)
        out, denom, kv, k_sum, v_sum = simple_attention(qt, kt, vv)

        def vjp(g):
            # adjoints of the numerators and denominators, of K~^T V, 1^T K~
            # and 1^T V, then of Q~, K~ and V. S V is neither kept nor
            # rebuilt: with G_a = g_num (K~^T V)^T, Q~'s adjoint through the
            # numerators, g_num_i . (S V)_i = (G_a_i . q~_i + g_num_i . 1^T V)
            # / den_i. Beside g, at most three N x d at once: g_num and G_a,
            # then the three outputs, with one temporary while fewer than
            # three exist.
            g_num = g / denom
            g_q = g_num @ _mT(kv)
            g_den = row_dots(g_q, qt)[..., None]
            g_den += g_num @ v_sum[..., None]
            g_den /= -denom
            g_kv, g_ksum = _mT(qt) @ g_num, _mT(g_den) @ qt
            g_vsum = (np.ones(g.shape[-2]) @ g_num)[..., None, :]
            del g_num
            g_q += g_den * k_sum[..., None, :]
            g_q = _row_normalized_vjp(g_q, qt, q_div)
            g_k = vv @ _mT(g_kv)
            g_k += g_ksum
            g_k = _row_normalized_vjp(g_k, kt, k_div)
            g_v = kt @ g_kv
            g_v += g_vsum
            return g_q, g_k, _unbroadcast(g_v, vv.shape)

        return self._record(out, (q, k, v), vjp)

    def sigmoid_attention(self, q: Ref, k: Ref, v: Ref) -> Ref:
        """Advanced attention S V = (A V) r on the row-normalized projections
        Q~ and K~, in O(N^2 d), its value a `coupling.DenseAttention`'s: the
        advanced penalty's scores A = f(2 - 2 Q~ K~^T) = sigmoid(Q~ K~^T)
        and r, the reciprocals of their row sums. The VJP reads its A and r
        and runs back through r, A V and the sigmoid's derivative A (1 - A)."""
        qt, q_div, kt, k_div, vv = self._head_operands("sigmoid", q, k, v)
        att = DenseAttention(_ADVANCED, qt, kt)
        a, r = att.a, att.r
        out = att.apply(vv)

        def vjp(g):
            g_av = g * r
            g_rs = -row_dots(g, out)[..., None] * r
            g_scores = (g_rs + g_av @ _mT(vv)) * a * (1.0 - a)
            return (_row_normalized_vjp(g_scores @ kt, qt, q_div),
                    _row_normalized_vjp(_mT(g_scores) @ qt, kt, k_div),
                    _unbroadcast(_mT(a) @ g_av, vv.shape))

        return self._record(out, (q, k, v), vjp)

    def add(self, a: Ref, b: Ref) -> Ref:
        """a + b; an operand with one row, a bias, broadcasts over the other's rows."""
        av, bv = self._value(a), self._value(b)
        (ra, ca), (rb, cb) = av.shape[-2:], bv.shape[-2:]
        if ca != cb or (ra != rb and 1 not in (ra, rb)):
            raise DimensionError(f"add shape mismatch: {av.shape} vs {bv.shape}")
        sa, sb = av.shape, bv.shape
        return self._record(av + bv, (a, b),
                            lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))

    def scale(self, a: Ref, c: float) -> Ref:
        c = float(c)
        return self._record(c * self._value(a), (a,), lambda g: (c * g,))

    def relu(self, a: Ref) -> Ref:
        av = self._value(a)
        mask = av > 0
        return self._record(av * mask, (a,), lambda g: (g * mask,))

    def layer_norm(self, a: Ref) -> Ref:
        """(a - mean) / std over each row, centred once and divided in
        place. The VJP forms (g - mean(g) - y mean(g y)) / std in one output
        buffer, in the order written."""
        av = self._value(a)
        y = av - av.mean(axis=-1, keepdims=True)
        std = np.sqrt(np.mean(y ** 2, axis=-1, keepdims=True) + LAYER_NORM_EPS)
        y /= std

        def vjp(g):
            gy = np.mean(g * y, axis=-1, keepdims=True)
            out = g - g.mean(axis=-1, keepdims=True)
            out -= y * gy
            out /= std
            return (out,)

        return self._record(y, (a,), vjp)

    def stack(self, a: Ref) -> Ref:
        """`a` on a new unit head axis -3, in front of its rows: a view. The
        model's state is a stack of one head until its last layer's mean."""
        return self._record(self._value(a)[..., None, :, :], (a,),
                            lambda g: (g[..., 0, :, :],))

    def head_mean(self, a: Ref) -> Ref:
        """The mean over the head axis -3: the heads summed in order, then
        divided by their count."""
        av = self._value(a)
        shape, h = av.shape, av.shape[-3]
        return self._record(av.sum(axis=-3) / h, (a,),
                            lambda g: (np.broadcast_to((g / h)[..., None, :, :], shape),))

    def masked_cross_entropy(self, logits: Ref, labels: np.ndarray, mask: np.ndarray) -> Ref:
        """Mean negative log-softmax likelihood over the masked rows of each
        N x C matrix of the logits: a 1x1 loss per matrix."""
        lv = self._value(logits)
        labels = np.asarray(labels, dtype=np.int64)
        mask = np.asarray(mask, dtype=bool)
        n = lv.shape[-2]
        if labels.shape[0] != n or mask.shape[0] != n:
            raise DimensionError("labels/mask length must match logits rows")
        rows = np.flatnonzero(mask)
        if rows.size == 0:
            raise ContractError("mask selects no rows")
        targets = labels[rows]
        sel = lv[..., rows, :]
        top = sel.max(axis=-1, keepdims=True)
        shifted = sel - top
        lse = np.log(np.sum(np.exp(shifted), axis=-1)) + top[..., 0]
        losses = lse - sel[..., np.arange(rows.size), targets]

        def vjp(g):
            p = np.exp(shifted)
            p /= p.sum(axis=-1, keepdims=True)
            p[..., np.arange(rows.size), targets] -= 1.0
            grad = np.zeros_like(lv)
            grad[..., rows, :] = p * (g / rows.size)
            return (grad,)

        return self._record(np.mean(losses, axis=-1)[..., None, None], (logits,), vjp)

    def masked_mse(self, pred: Ref, target: np.ndarray, mask: np.ndarray) -> Ref:
        """Mean squared error over the masked rows of each matrix of `pred`
        against one target matrix: a 1x1 loss per matrix."""
        pv = self._value(pred)
        target = as_matrix(target)
        mask = np.asarray(mask, dtype=bool)
        if target.shape != pv.shape[-2:] or mask.shape[0] != pv.shape[-2]:
            raise DimensionError("target/mask shapes must match predictions")
        rows = np.flatnonzero(mask)
        if rows.size == 0:
            raise ContractError("mask selects no rows")
        diff = pv[..., rows, :] - target[rows]
        count = diff.shape[-2] * diff.shape[-1]

        def vjp(g):
            grad = np.zeros_like(pv)
            grad[..., rows, :] = diff * (2.0 * g / count)
            return (grad,)

        return self._record(np.mean(diff**2, axis=(-2, -1))[..., None, None], (pred,), vjp)

    # -- reverse pass ---------------------------------------------------

    def backward(self, loss: Ref) -> dict[str, np.ndarray]:
        """Reverse accumulation from a 1x1 loss; returns parameter grads.
        The parameter registry is released first, so a tape is
        differentiated once, and each node as it is reached."""
        if loss.tape is not self:
            raise ContractError("loss belongs to a different tape")
        if loss.shape != (1, 1):
            raise ContractError(f"loss must be 1x1, got {loss.shape}")
        params, self.params = self.params, None
        if params is None:
            raise ContractError("backward already ran through this tape")
        adjoint: dict[int | str, np.ndarray] = {loss.idx: np.ones((1, 1))}
        for idx in range(len(self.nodes) - 1, -1, -1):
            g = adjoint.pop(idx, None)
            if g is None:
                continue
            parents, vjp = self.nodes[idx]
            self.nodes[idx] = None
            if vjp is None:
                continue
            grads = vjp(g)
            del vjp, g  # the closure, with all it captured, goes before the sums
            for parent, pg in zip(parents, grads):
                adjoint[parent] = adjoint[parent] + pg if parent in adjoint else pg
            del grads, pg  # and a summed contribution before the next VJP
        return {name: adjoint[name] if name in adjoint else np.zeros(shape)
                for name, shape in params.items()}


class Eager(Tape):
    """The `Tape` that records nothing: every primitive takes and returns
    plain arrays, and no VJP is kept. Inputs broadcast over their leading
    axes, so a stack of B parameter matrices runs B forwards at once; on 2-D
    inputs each value is the one `Tape` computes, bit for bit."""

    def __init__(self):
        pass  # no nodes and no parameter registry

    def _value(self, value: np.ndarray) -> np.ndarray:
        return value

    def _record(self, value, parents, vjp) -> np.ndarray:
        return value

    def constant(self, value) -> np.ndarray:
        return np.asarray(value, dtype=np.float64)

    def parameter(self, name: str, value) -> np.ndarray:
        return np.asarray(value, dtype=np.float64)
