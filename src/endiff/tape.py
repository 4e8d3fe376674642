"""A minimal reverse-mode differentiation tape over dense float64 matrices,
and a non-recording evaluator with the same primitives.

Each primitive is a `Tape` method: it computes its value eagerly, records
its parents and vector-Jacobian product in execution order, and returns the
value in a `Ref`. The tape keeps no values: each lives as long as its Refs
or a VJP that captured it. `backward` runs reverse accumulation from a
scalar loss, fills per-parameter gradients and releases each node it runs,
so a tape is differentiated once. The graph channel enters through
`sym_apply`, which takes a symmetric operator instead of a dense matrix, and
a simple-attention head is the one fused primitive `linear_attention`, whose
VJP runs through the same O(N d^2) accumulators as its value. A tape is
confined to a single thread for its lifetime; distinct tapes are
independent.

`Eager` computes the same values from plain arrays and records nothing, for
forwards that are never differentiated (evaluation, finite differences). Its
inputs may carry leading batch axes: a stack of B matrices evaluates B
forwards in one pass.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DimensionError, DomainError
from .numerics import LAYER_NORM_EPS, NORM_EPS, as_matrix


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


def _check_matmul(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul shape mismatch: {a.shape} x {b.shape}")


def _check_pair(kind: str, a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[-2:] != b.shape[-2:]:
        raise DimensionError(f"{kind} shape mismatch: {a.shape} vs {b.shape}")


def _check_row_scale(a: np.ndarray, v: np.ndarray) -> None:
    if v.shape[-2:] != (a.shape[-2], 1):
        raise DimensionError(
            f"diag-scale-rows needs a {a.shape[-2]}x1 scale, got {v.shape}"
        )


def _check_row(row: np.ndarray) -> None:
    if row.shape[-2] != 1:
        raise DimensionError(f"broadcast-row needs a 1xd row, got {row.shape}")


def _row_l2_normalize(a: np.ndarray, eps: float):
    norms = np.sqrt(np.sum(a * a, axis=-1, keepdims=True))
    denom = np.maximum(norms, eps)
    return a / denom, norms, denom


def _layer_norm(a: np.ndarray, eps: float):
    mean = a.mean(axis=-1, keepdims=True)
    var = np.mean((a - mean) ** 2, axis=-1, keepdims=True)
    std = np.sqrt(var + eps)
    return (a - mean) / std, std


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


def _linear_attention(qt: np.ndarray, kt: np.ndarray, v: np.ndarray):
    """(1^T V + Q~(K~^T V)) / (N + Q~(K~^T 1)) row by row, over the last two
    axes, from the accumulators of V with a ones column appended, V1 = [V 1]:
    K~^T V1 (d x (m+1)) and 1^T V1. Returns (value, K~^T V1, denominators);
    no N x N array is formed."""
    if qt.shape[-1] != kt.shape[-1] or kt.shape[-2] != v.shape[-2]:
        raise DimensionError(
            f"linear attention shape mismatch: {qt.shape}, {kt.shape}, {v.shape}")
    v1 = np.concatenate([v, np.ones(v.shape[:-1] + (1,))], axis=-1)
    kv1 = np.swapaxes(kt, -1, -2) @ v1
    acc = v1.sum(axis=-2, keepdims=True) + qt @ kv1  # [numerators | denominators]
    denom = acc[..., -1:]
    if np.any(denom <= 0):
        raise DomainError("linear attention denominator N + q~.sum(k~) is not positive")
    return acc[..., :-1] / denom, kv1, denom


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class Tape:
    def __init__(self):
        # (parent indices aligned with the vjp's outputs, vjp or None);
        # None once backward has run the node
        self.nodes: list[tuple | None] = []
        self.params: dict[str, tuple[int, tuple]] = {}  # name -> (idx, shape)

    # -- leaves ---------------------------------------------------------

    def _record(self, value, parents, vjp) -> Ref:
        self.nodes.append((parents, vjp))
        return Ref(self, len(self.nodes) - 1, value)

    def constant(self, value) -> Ref:
        return self._record(as_matrix(value), (), None)

    def parameter(self, name: str, value) -> Ref:
        if name in self.params:
            raise ContractError(f"parameter {name!r} already registered")
        ref = self._record(as_matrix(value), (), None)
        self.params[name] = (ref.idx, ref.shape)
        return ref

    # -- primitives -----------------------------------------------------

    def matmul(self, a: Ref, b: Ref) -> Ref:
        av, bv = a.value, b.value
        _check_matmul(av, bv)
        return self._record(
            av @ bv, (a.idx, b.idx),
            lambda g: (g @ bv.T, av.T @ g),
        )

    def sym_apply(self, op, a: Ref) -> Ref:
        """op.apply(a) for a fixed symmetric linear operator `op`, such as
        `Graph.sym_operator`. Symmetry makes op.apply(g) the VJP."""
        return self._record(op.apply(a.value), (a.idx,),
                            lambda g: (op.apply(g),))

    def linear_attention(self, qt: Ref, kt: Ref, v: Ref) -> Ref:
        """Simple attention S V with S = diag^-1(N + Q~ K~^T 1)(1 + Q~ K~^T),
        in O(N d^2). The VJP is the non-causal linear-transformer gradient
        through the same accumulators (Katharopoulos et al. 2020, sec. 3)."""
        qv, kv, vv = qt.value, kt.value, v.value
        out, kv1, denom = _linear_attention(qv, kv, vv)

        def vjp(g):
            # adjoint of [numerators | denominators], then of the accumulators
            g_num = g / denom
            g_acc = np.concatenate(
                [g_num, -np.sum(g_num * out, axis=1, keepdims=True)], axis=1)
            g_kv1 = qv.T @ g_acc
            g_kt = vv @ g_kv1[:, :-1].T + g_kv1[:, -1]  # the ones column adds a row
            g_v = kv @ g_kv1[:, :-1] + g_num.sum(axis=0, keepdims=True)
            return g_acc @ kv1.T, g_kt, g_v

        return self._record(out, (qt.idx, kt.idx, v.idx), vjp)

    def _elemwise_pair(self, kind, a: Ref, b: Ref, value, vjp) -> Ref:
        _check_pair(kind, a.value, b.value)
        return self._record(value, (a.idx, b.idx), vjp)

    def add(self, a: Ref, b: Ref) -> Ref:
        return self._elemwise_pair(
            "add", a, b, a.value + b.value, lambda g: (g, g)
        )

    def scale(self, a: Ref, c: float) -> Ref:
        c = float(c)
        return self._record(c * a.value, (a.idx,), lambda g: (c * g,))

    def hadamard(self, a: Ref, b: Ref) -> Ref:
        av, bv = a.value, b.value
        return self._elemwise_pair(
            "hadamard", a, b, av * bv, lambda g: (g * bv, g * av)
        )

    def sigmoid(self, a: Ref) -> Ref:
        y = _sigmoid(a.value)
        return self._record(y, (a.idx,), lambda g: (g * y * (1.0 - y),))

    def relu(self, a: Ref) -> Ref:
        av = a.value
        mask = av > 0
        return self._record(av * mask, (a.idx,), lambda g: (g * mask,))

    def reciprocal(self, a: Ref) -> Ref:
        y = 1.0 / a.value
        return self._record(y, (a.idx,), lambda g: (-g * y * y,))

    def transpose(self, a: Ref) -> Ref:
        return self._record(a.value.T.copy(), (a.idx,), lambda g: (g.T,))

    def row_l2_normalize(self, a: Ref, eps: float = NORM_EPS) -> Ref:
        y, norms, denom = _row_l2_normalize(a.value, eps)

        def vjp(g):
            # Rows at/below eps are a plain 1/eps scaling.
            live = norms > eps
            dot = np.sum(g * y, axis=1, keepdims=True)
            grad = np.where(live, (g - y * dot) / denom, g / denom)
            return (grad,)

        return self._record(y, (a.idx,), vjp)

    def layer_norm(self, a: Ref, eps: float = LAYER_NORM_EPS) -> Ref:
        y, std = _layer_norm(a.value, eps)

        def vjp(g):
            gm = g.mean(axis=1, keepdims=True)
            gy = np.mean(g * y, axis=1, keepdims=True)
            return ((g - gm - y * gy) / std,)

        return self._record(y, (a.idx,), vjp)

    def mean_over_list(self, refs: list[Ref]) -> Ref:
        if not refs:
            raise ContractError("mean-over-list needs at least one input")
        shape = refs[0].value.shape
        for r in refs:
            if r.value.shape != shape:
                raise DimensionError("mean-over-list inputs must share a shape")
        k = len(refs)
        value = sum(r.value for r in refs) / k
        return self._record(
            value, tuple(r.idx for r in refs),
            lambda g: tuple(g / k for _ in range(k)),
        )

    def diag_scale_rows(self, a: Ref, v: Ref) -> Ref:
        """Multiply row i of `a` by scalar v[i, 0]."""
        av, vv = a.value, v.value
        _check_row_scale(av, vv)
        return self._record(
            av * vv, (a.idx, v.idx),
            lambda g: (g * vv, np.sum(g * av, axis=1, keepdims=True)),
        )

    def row_sum(self, a: Ref) -> Ref:
        av = a.value
        return self._record(
            av.sum(axis=1, keepdims=True), (a.idx,),
            lambda g: (np.broadcast_to(g, av.shape).copy(),),
        )

    def broadcast_row(self, row: Ref, n: int) -> Ref:
        rv = row.value
        _check_row(rv)
        return self._record(
            np.repeat(rv, n, axis=0), (row.idx,),
            lambda g: (g.sum(axis=0, keepdims=True),),
        )

    def sum_all(self, a: Ref) -> Ref:
        av = a.value
        return self._record(
            np.array([[av.sum()]]), (a.idx,),
            lambda g: (np.full_like(av, g[0, 0]),),
        )

    def masked_cross_entropy(self, logits: Ref, labels: np.ndarray, mask: np.ndarray) -> Ref:
        """Mean negative log-softmax likelihood over masked rows (1x1 output)."""
        lv = logits.value
        rows, targets, shifted, losses = _cross_entropy(lv, labels, mask)
        value = np.array([[float(np.mean(losses))]])

        def vjp(g):
            p = np.exp(shifted)
            p /= p.sum(axis=1, keepdims=True)
            p[np.arange(rows.size), targets] -= 1.0
            grad = np.zeros_like(lv)
            grad[rows] = p * (g[0, 0] / rows.size)
            return (grad,)

        return self._record(value, (logits.idx,), vjp)

    def masked_mse(self, pred: Ref, target: np.ndarray, mask: np.ndarray) -> Ref:
        pv = pred.value
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

        return self._record(value, (pred.idx,), vjp)

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


class Eager:
    """The `Tape` primitives that `model.forward` and the cross-entropy loss
    use, evaluated on plain arrays with nothing recorded.

    Every input may carry leading batch axes in front of its last two
    (matrix) axes, and inputs broadcast against each other over them, so a
    stack of B parameter matrices runs B forwards at once. On 2-D inputs
    each value is the one `Tape` computes.
    """

    def constant(self, value) -> np.ndarray:
        return np.asarray(value, dtype=np.float64)

    def parameter(self, name: str, value) -> np.ndarray:
        return np.asarray(value, dtype=np.float64)

    def matmul(self, a, b):
        _check_matmul(a, b)
        return a @ b

    def sym_apply(self, op, a):
        """op.apply on every matrix of `a`, with the batch folded into
        columns: one N x (B d) application."""
        n, d = a.shape[-2:]
        cols = np.moveaxis(a, -2, 0).reshape(n, -1)
        out = op.apply(cols).reshape((n,) + a.shape[:-2] + (d,))
        return np.moveaxis(out, 0, -2)

    def linear_attention(self, qt, kt, v):
        return _linear_attention(qt, kt, v)[0]

    def add(self, a, b):
        _check_pair("add", a, b)
        return a + b

    def scale(self, a, c: float):
        return float(c) * a

    def sigmoid(self, a):
        return _sigmoid(a)

    def relu(self, a):
        return a * (a > 0)

    def reciprocal(self, a):
        return 1.0 / a

    def transpose(self, a):
        # A contiguous copy, as the tape makes: BLAS picks its kernel by
        # layout, and the same layout keeps 2-D values equal bit for bit.
        return np.ascontiguousarray(np.swapaxes(a, -1, -2))

    def row_l2_normalize(self, a, eps: float = NORM_EPS):
        return _row_l2_normalize(a, eps)[0]

    def layer_norm(self, a, eps: float = LAYER_NORM_EPS):
        return _layer_norm(a, eps)[0]

    def mean_over_list(self, values: list):
        if not values:
            raise ContractError("mean-over-list needs at least one input")
        for v in values:
            _check_pair("mean-over-list", values[0], v)
        return sum(values) / len(values)

    def diag_scale_rows(self, a, v):
        _check_row_scale(a, v)
        return a * v

    def row_sum(self, a):
        return a.sum(axis=-1, keepdims=True)

    def broadcast_row(self, row, n: int):
        _check_row(row)
        return np.broadcast_to(row, row.shape[:-2] + (n, row.shape[-1]))

    def masked_cross_entropy(self, logits, labels, mask) -> np.ndarray:
        """Mean masked-row loss of each matrix in the stack: an array of
        shape logits.shape[:-2] (a 0-d array for a single matrix)."""
        return np.mean(_cross_entropy(logits, labels, mask)[3], axis=-1)
