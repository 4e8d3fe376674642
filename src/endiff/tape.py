"""A minimal reverse-mode differentiation tape over dense float64 matrices,
and `Eager`, the tape that records nothing.

Each primitive is one `Tape` method. It reads its operands through `_value`,
computes its value once over the last two (matrix) axes, and hands the
value, its operands and its vector-Jacobian product to `_record`, which
appends a node in execution order and returns the value in a `Ref`. The
tape keeps no values: each lives as long as its Refs or a VJP that captured
it. The VJPs are 2-D. `backward` runs reverse accumulation from a scalar
loss, fills per-parameter gradients and releases each node it runs, so a
tape is differentiated once. The graph channel enters through `sym_apply`,
which takes a symmetric operator instead of a dense matrix. An attention
head is one primitive on the head's raw Q, K and V that row-normalizes Q
and K itself: `linear_attention` (simple), whose VJP runs through the same
O(N d^2) accumulators as its value, or `sigmoid_attention` (advanced). The
tape has only the primitives a model forward and its loss run; composed
forms used as test oracles live with the tests. A tape is confined to a
single thread for its lifetime; distinct tapes are independent.

`Eager` overrides the two hooks: its operands are plain arrays and
`_record` returns the bare value, so forwards that are never differentiated
(evaluation, finite differences) run the very same primitives. Its inputs
may carry leading batch axes: a stack of B matrices evaluates B forwards in
one pass. Besides the leaves, it overrides only the two primitives whose
batch behaviour differs, `sym_apply` and `masked_cross_entropy`.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DimensionError, DomainError
from .numerics import LAYER_NORM_EPS, NORM_EPS, as_matrix, row_l2_divisors


class Ref:
    """A tape node's value, and its index on the tape that recorded it. The
    value lives here, not on the tape, so it dies with its last Ref unless a
    VJP captured it."""

    __slots__ = ("tape", "idx", "value")

    def __init__(self, tape: "Tape", idx: int, value: np.ndarray):
        self.tape = tape
        self.idx = idx
        self.value = value

    @property
    def shape(self):
        return self.value.shape


def _cross_entropy(logits: np.ndarray, labels, mask):
    """Negative log-softmax likelihood of each masked row over the last two
    axes: (masked rows, their labels, shifted logits, per-row losses)."""
    labels = np.asarray(labels, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    n = logits.shape[-2]
    if labels.shape[0] != n or mask.shape[0] != n:
        raise DimensionError("labels/mask length must match logits rows")
    rows = np.flatnonzero(mask)
    if rows.size == 0:
        raise ContractError("mask selects no rows")
    sel = logits[..., rows, :]
    top = sel.max(axis=-1, keepdims=True)
    shifted = sel - top
    lse = np.log(np.sum(np.exp(shifted), axis=-1)) + top[..., 0]
    picked = sel[..., np.arange(rows.size), labels[rows]]
    return rows, labels[rows], shifted, lse - picked


def _row_normalized_vjp(g: np.ndarray, y: np.ndarray, div: np.ndarray) -> np.ndarray:
    """The adjoint of x from that of y = x / div. Rows at/below NORM_EPS are
    a plain 1/NORM_EPS scaling: no projection."""
    dot = np.sum(g * y, axis=1, keepdims=True)
    dot[div <= NORM_EPS] = 0.0
    return (g - y * dot) / div


def _through_normalizations(vjp, qt, q_div, kt, k_div):
    """A head's VJP to (Q~, K~, V), continued through the Q and K row
    normalizations once its own temporaries are freed."""
    def head_vjp(g):
        g_qt, g_kt, g_v = vjp(g)
        return (_row_normalized_vjp(g_qt, qt, q_div),
                _row_normalized_vjp(g_kt, kt, k_div), g_v)

    return head_vjp


class Tape:
    def __init__(self):
        # (parent indices aligned with the vjp's outputs, vjp or None);
        # None once backward has run the node
        self.nodes: list[tuple | None] = []
        self.params: dict[str, tuple[int, tuple]] = {}  # name -> (idx, shape)

    # -- hooks and leaves -----------------------------------------------

    def _value(self, ref: Ref) -> np.ndarray:
        return ref.value

    def _record(self, value, parents, vjp) -> Ref:
        """A node of `value` whose VJP maps its adjoint to those of the
        `parents` Refs; the node keeps their indices, not their values."""
        self.nodes.append((tuple(p.idx for p in parents), vjp))
        return Ref(self, len(self.nodes) - 1, value)

    def constant(self, value) -> Ref:
        return self._record(as_matrix(value), (), None)

    def parameter(self, name: str, value) -> Ref:
        if name in self.params:
            raise ContractError(f"parameter {name!r} already registered")
        ref = self._record(as_matrix(value), (), None)
        self.params[name] = (ref.idx, ref.shape)
        return ref

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
        return self._record(av @ bv, (a, b), lambda g: (g @ bv.T, av.T @ g))

    def sym_apply(self, op, a: Ref) -> Ref:
        """op.apply(a) for a fixed symmetric linear operator `op`, such as
        `Graph.sym_operator`. Symmetry makes op.apply(g) the VJP."""
        return self._record(op.apply(self._value(a)), (a,),
                            lambda g: (op.apply(g),))

    def linear_attention(self, q: Ref, k: Ref, v: Ref) -> Ref:
        """Simple attention S V with S = diag^-1(N + Q~ K~^T 1)(1 + Q~ K~^T)
        on the row-normalized projections Q~ and K~, in O(N d^2):
        (1^T V + Q~(K~^T V)) / (N + Q~(K~^T 1)) row by row, from the
        accumulators of V with a ones column appended, V1 = [V 1]: K~^T V1
        (d x (m+1)) and 1^T V1. No N x N array is formed. The VJP is the
        non-causal linear-transformer gradient through the same accumulators
        (Katharopoulos et al. 2020, sec. 3), then through both
        normalizations."""
        qt, q_div, kt, k_div, vv = self._head_operands("linear", q, k, v)
        v1 = np.concatenate([vv, np.ones(vv.shape[:-1] + (1,))], axis=-1)
        kv1 = np.swapaxes(kt, -1, -2) @ v1
        acc = v1.sum(axis=-2, keepdims=True) + qt @ kv1  # [numerators | denominators]
        denom = acc[..., -1:]
        if np.any(denom <= 0):
            raise DomainError("linear attention denominator N + q~.sum(k~) is not positive")
        out = acc[..., :-1] / denom

        def vjp(g):
            # adjoint of [numerators | denominators], then of the accumulators
            g_num = g / denom
            g_acc = np.concatenate(
                [g_num, -np.sum(g_num * out, axis=1, keepdims=True)], axis=1)
            g_kv1 = qt.T @ g_acc
            g_kt = vv @ g_kv1[:, :-1].T + g_kv1[:, -1]  # the ones column adds a row
            g_v = kt @ g_kv1[:, :-1] + g_num.sum(axis=0, keepdims=True)
            return g_acc @ kv1.T, g_kt, g_v

        return self._record(out, (q, k, v),
                            _through_normalizations(vjp, qt, q_div, kt, k_div))

    def sigmoid_attention(self, q: Ref, k: Ref, v: Ref) -> Ref:
        """Advanced attention S V with S = diag^-1(A 1) A and the dense
        sigmoid kernel A = sigmoid(Q~ K~^T) on the row-normalized projections
        Q~ and K~, in O(N^2 d). Value and VJP run the operations of the
        composed chain (normalize, transpose, matmul, sigmoid, matmul, row
        sum, reciprocal, row scale) in its order, K~^T as a contiguous copy
        included, so they match it bit for bit."""
        qt, q_div, kt, k_div, vv = self._head_operands("sigmoid", q, k, v)
        kt_t = np.swapaxes(kt, -1, -2).copy()  # the chain's contiguous K~^T
        scores = qt @ kt_t
        a = np.empty_like(scores)  # the sigmoid, without overflow either side
        pos = scores >= 0
        a[pos] = 1.0 / (1.0 + np.exp(-scores[pos]))
        ex = np.exp(scores[~pos])
        a[~pos] = ex / (1.0 + ex)
        av = a @ vv
        r = 1.0 / a.sum(axis=-1, keepdims=True)

        def vjp(g):
            g_av = g * r
            g_rs = -np.sum(g * av, axis=1, keepdims=True) * r * r
            g_scores = (g_rs + g_av @ vv.T) * a * (1.0 - a)
            return g_scores @ kt_t.T, (qt.T @ g_scores).T, a.T @ g_av

        return self._record(av * r, (q, k, v),
                            _through_normalizations(vjp, qt, q_div, kt, k_div))

    def add(self, a: Ref, b: Ref) -> Ref:
        av, bv = self._value(a), self._value(b)
        if av.shape[-2:] != bv.shape[-2:]:
            raise DimensionError(f"add shape mismatch: {av.shape} vs {bv.shape}")
        return self._record(av + bv, (a, b), lambda g: (g, g))

    def scale(self, a: Ref, c: float) -> Ref:
        c = float(c)
        return self._record(c * self._value(a), (a,), lambda g: (c * g,))

    def relu(self, a: Ref) -> Ref:
        av = self._value(a)
        mask = av > 0
        return self._record(av * mask, (a,), lambda g: (g * mask,))

    def transpose(self, a: Ref) -> Ref:
        # A contiguous copy: BLAS picks its kernel by layout, so a view
        # could change a product's last bits.
        return self._record(np.swapaxes(self._value(a), -1, -2).copy(), (a,),
                            lambda g: (g.T,))

    def layer_norm(self, a: Ref, eps: float = LAYER_NORM_EPS) -> Ref:
        av = self._value(a)
        mean = av.mean(axis=-1, keepdims=True)
        std = np.sqrt(np.mean((av - mean) ** 2, axis=-1, keepdims=True) + eps)
        y = (av - mean) / std

        def vjp(g):
            gm = g.mean(axis=1, keepdims=True)
            gy = np.mean(g * y, axis=1, keepdims=True)
            return ((g - gm - y * gy) / std,)

        return self._record(y, (a,), vjp)

    def mean_over_list(self, refs: list[Ref]) -> Ref:
        if not refs:
            raise ContractError("mean-over-list needs at least one input")
        values = [self._value(r) for r in refs]
        if any(v.shape[-2:] != values[0].shape[-2:] for v in values):
            raise DimensionError("mean-over-list inputs must share a shape")
        k = len(refs)
        return self._record(sum(values) / k, refs,
                            lambda g: tuple(g / k for _ in range(k)))

    def broadcast_row(self, row: Ref, n: int) -> Ref:
        rv = self._value(row)
        if rv.shape[-2] != 1:
            raise DimensionError(f"broadcast-row needs a 1xd row, got {rv.shape}")
        return self._record(
            np.broadcast_to(rv, rv.shape[:-2] + (n, rv.shape[-1])), (row,),
            lambda g: (g.sum(axis=0, keepdims=True),),
        )

    def masked_cross_entropy(self, logits: Ref, labels: np.ndarray, mask: np.ndarray) -> Ref:
        """Mean negative log-softmax likelihood over masked rows (1x1 output)."""
        lv = self._value(logits)
        rows, targets, shifted, losses = _cross_entropy(lv, labels, mask)
        value = np.array([[float(np.mean(losses))]])

        def vjp(g):
            p = np.exp(shifted)
            p /= p.sum(axis=1, keepdims=True)
            p[np.arange(rows.size), targets] -= 1.0
            grad = np.zeros_like(lv)
            grad[rows] = p * (g[0, 0] / rows.size)
            return (grad,)

        return self._record(value, (logits,), vjp)

    def masked_mse(self, pred: Ref, target: np.ndarray, mask: np.ndarray) -> Ref:
        pv = self._value(pred)
        target = as_matrix(target)
        mask = np.asarray(mask, dtype=bool)
        if target.shape != pv.shape or mask.shape[0] != pv.shape[0]:
            raise DimensionError("target/mask shapes must match predictions")
        rows = np.flatnonzero(mask)
        if rows.size == 0:
            raise ContractError("mask selects no rows")
        diff = pv[rows] - target[rows]
        value = np.array([[float(np.mean(diff**2))]])

        def vjp(g):
            grad = np.zeros_like(pv)
            grad[rows] = diff * (2.0 * g[0, 0] / diff.size)
            return (grad,)

        return self._record(value, (pred,), vjp)

    # -- reverse pass ---------------------------------------------------

    def backward(self, loss: Ref) -> dict[str, np.ndarray]:
        """Reverse accumulation from a scalar loss; returns parameter grads.
        Each node is released once its VJP has run, so a tape is
        differentiated once."""
        if loss.tape is not self:
            raise ContractError("loss belongs to a different tape")
        if loss.shape != (1, 1):
            raise ContractError(f"loss must be 1x1, got {loss.shape}")
        adjoint: dict[int, np.ndarray] = {loss.idx: np.ones((1, 1))}
        grads: dict[str, np.ndarray] = {}
        param_idx = {idx: name for name, (idx, _) in self.params.items()}
        for idx in range(loss.idx, -1, -1):
            g = adjoint.pop(idx, None)
            if g is None:
                continue
            node = self.nodes[idx]
            if node is None:
                raise ContractError("backward already ran through this tape")
            self.nodes[idx] = None
            if idx in param_idx:
                name = param_idx[idx]
                grads[name] = grads.get(name, 0.0) + g
            parents, vjp = node
            if vjp is None:
                continue
            for parent, pg in zip(parents, vjp(g)):
                if parent in adjoint:
                    adjoint[parent] = adjoint[parent] + pg
                else:
                    adjoint[parent] = pg
        for name, (_, shape) in self.params.items():
            grads.setdefault(name, np.zeros(shape))
        return grads


class Eager(Tape):
    """The `Tape` that records nothing: every primitive takes and returns
    plain arrays, and no VJP is kept.

    Every input may carry leading batch axes in front of its last two
    (matrix) axes, and inputs broadcast against each other over them, so a
    stack of B parameter matrices runs B forwards at once. On 2-D inputs
    each value is the one `Tape` computes, bit for bit.
    """

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

    def sym_apply(self, op, a):
        """op.apply on every matrix of `a`, with the batch folded into
        columns: one N x (B d) application."""
        n, d = a.shape[-2:]
        cols = np.moveaxis(a, -2, 0).reshape(n, -1)
        out = op.apply(cols).reshape((n,) + a.shape[:-2] + (d,))
        return np.moveaxis(out, 0, -2)

    def masked_cross_entropy(self, logits, labels, mask) -> np.ndarray:
        """Mean masked-row loss of each matrix in the stack: an array of
        shape logits.shape[:-2] (a 0-d array for a single matrix)."""
        return np.mean(_cross_entropy(logits, labels, mask)[3], axis=-1)
