"""Trainable all-pair propagation network built on the autodiff tape.

Pipeline per forward pass: input projection + LayerNorm + ReLU, then K
propagation layers. Each layer projects per-head Q/K/V, L2-normalizes the
Q and K rows, propagates V through either the linear simple-attention form
(one fused tape primitive per head, O(N d^2)) or the dense sigmoid-kernel
form, and averages the heads. The optional sym-normalized graph channel S
is linear, so mean_h (P_h + S V_h) = mean_h P_h + S mean_h V_h: it costs one
application of the graph's cached sparse operator per layer, O(E d), on the
mean of the heads' V. The result is blended with the previous state at step
size tau before a LayerNorm. The output head is a plain affine map.
`forward` runs on a recording `Tape` for training, or on the non-recording
`Eager` evaluator, whose parameters may be stacks of matrices that run one
forward each.

Attention here acts on the projected Q/K rows; the diffusion and energy
modules audit the un-projected dynamics on the state itself. That split is
intentional: this module is the learned network, those are the analysis
tools.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import ContractError, DimensionError, FormatError, ParameterError
from .graphs import Graph, atomic_write_text
from .tape import Eager, Ref, Tape

VARIANTS = ("simple", "advanced", "mlp")  # mlp: identity coupling, no mixing
ACTIVATIONS = ("none", "relu")


@dataclass(frozen=True)
class ModelConfig:
    variant: str = "simple"
    input_dim: int = 1
    hidden_dim: int = 8
    output_dim: int = 1
    layers: int = 2
    heads: int = 1
    tau: float = 0.5
    use_graph: bool = False
    use_feature_transform: bool = True
    use_source: bool = False
    activation_between_layers: str = "none"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ParameterError(f"unknown variant {self.variant!r}")
        if self.activation_between_layers not in ACTIVATIONS:
            raise ParameterError(
                f"unknown activation {self.activation_between_layers!r}"
            )
        for name in ("input_dim", "hidden_dim", "output_dim", "layers", "heads"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be >= 1")
        if not (0.0 < self.tau <= 1.0):
            raise ParameterError(f"tau must be in (0, 1], got {self.tau}")


def parameter_shapes(cfg: ModelConfig) -> dict[str, tuple[int, int]]:
    """Registry layout; weight matrices act on row vectors from the right
    of their transpose (W_I is hidden x input, matching the column
    convention the shapes follow)."""
    d, dd, c = cfg.hidden_dim, cfg.input_dim, cfg.output_dim
    shapes = {"W_I": (d, dd), "b_I": (1, d)}
    if cfg.use_feature_transform:
        for k in range(cfg.layers):
            for h in range(cfg.heads):
                for role in ("Q", "K", "V"):
                    shapes[f"W_{role}_{k}_{h}"] = (d, d)
    shapes["W_O"] = (d, c)
    shapes["b_O"] = (1, c)
    return shapes


def init_model(cfg: ModelConfig, seed: int) -> dict[str, np.ndarray]:
    """Glorot-uniform weights, zero biases, deterministic per seed."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in parameter_shapes(cfg).items():
        if name.startswith("b_"):
            params[name] = np.zeros(shape)
        else:
            limit = np.sqrt(6.0 / (shape[0] + shape[1]))
            params[name] = rng.uniform(-limit, limit, size=shape)
    return params


def count_params(cfg: ModelConfig) -> int:
    d, dd, c = cfg.hidden_dim, cfg.input_dim, cfg.output_dim
    total = dd * d + d + d * c + c
    if cfg.use_feature_transform:
        total += cfg.layers * cfg.heads * 3 * d * d
    return total


def _advanced_head(t: Tape, qt: Ref, kt: Ref, v: Ref) -> Ref:
    # Dense form: A~ = sigmoid(Q~ K~^T), P = diag^-1(A~ 1) A~ V
    a = t.sigmoid(t.matmul(qt, t.transpose(kt)))
    return t.diag_scale_rows(t.matmul(a, v), t.reciprocal(t.row_sum(a)))


def _head(t, z, refs, k: int, h: int, cfg: ModelConfig):
    """Head h of layer k: attention over the projected rows, and the V it
    propagated."""
    if cfg.use_feature_transform:
        q = t.matmul(z, t.transpose(refs[f"W_Q_{k}_{h}"]))
        key = t.matmul(z, t.transpose(refs[f"W_K_{k}_{h}"]))
        v = t.matmul(z, t.transpose(refs[f"W_V_{k}_{h}"]))
    else:
        q = key = v = z
    if cfg.variant == "mlp":
        return v, v
    qt = t.row_l2_normalize(q)
    kt = t.row_l2_normalize(key)
    if cfg.variant == "simple":
        return t.linear_attention(qt, kt, v), v
    return _advanced_head(t, qt, kt, v), v


def _mean(t, refs):
    return refs[0] if len(refs) == 1 else t.mean_over_list(refs)


def _layer(t, z, z0, refs, k: int, cfg: ModelConfig, graph_op):
    """Layer k: mean of the heads plus the graph channel on the mean of
    their V, blended with the state at step tau (plus the source), then
    LayerNorm. Intermediate values die with the call, which keeps a stacked
    `Eager` forward's memory low."""
    heads = [_head(t, z, refs, k, h, cfg) for h in range(cfg.heads)]
    p_bar = _mean(t, [p for p, _ in heads])
    if graph_op is not None:
        p_bar = t.add(p_bar, t.sym_apply(graph_op, _mean(t, [v for _, v in heads])))
    blend = t.add(t.scale(p_bar, cfg.tau), t.scale(z, 1.0 - cfg.tau))
    if cfg.use_source:
        blend = t.add(blend, t.scale(z0, cfg.tau))
    z = t.layer_norm(blend)
    if cfg.activation_between_layers == "relu":
        z = t.relu(z)
    return z


def forward(params: dict[str, np.ndarray], x: np.ndarray, g: Graph | None,
            cfg: ModelConfig, tape: Tape | Eager | None = None
            ) -> tuple[Ref | np.ndarray, Tape | Eager]:
    """Run the full forward pass on `tape` (a new `Tape` by default) and
    return the N x C logits with the evaluator. On a `Tape` the logits are a
    node and the parameters are registered so backward() can fill their
    gradients. On an `Eager` the logits are an array, and a parameter given
    as a B x r x c stack yields B x N x C logits."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != cfg.input_dim:
        raise DimensionError(
            f"input must be N x {cfg.input_dim}, got {x.shape}"
        )
    if cfg.use_graph and g is None:
        raise ContractError("use_graph set but no graph given")
    expected = parameter_shapes(cfg)
    if set(params) != set(expected):
        raise ContractError("parameter registry does not match config")
    for name, shape in expected.items():
        if params[name].shape[-2:] != shape:
            raise DimensionError(
                f"parameter {name} has shape {params[name].shape}, want {shape}"
            )

    t = tape if tape is not None else Tape()
    n = x.shape[0]
    refs = {name: t.parameter(name, val) for name, val in params.items()}
    x_ref = t.constant(x)

    graph_op = g.sym_operator if cfg.use_graph else None

    z0 = t.relu(t.layer_norm(t.add(t.matmul(x_ref, t.transpose(refs["W_I"])),
                                   t.broadcast_row(refs["b_I"], n))))
    z = z0
    for k in range(cfg.layers):
        z = _layer(t, z, z0, refs, k, cfg, graph_op)

    logits = t.add(t.matmul(z, refs["W_O"]), t.broadcast_row(refs["b_O"], n))
    return logits, t


@dataclass
class Checkpoint:
    config: ModelConfig
    params: dict[str, np.ndarray]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        expected = parameter_shapes(self.config)
        if set(self.params) != set(expected):
            raise ContractError("checkpoint parameters do not match config")
        for name, shape in expected.items():
            arr = np.asarray(self.params[name], dtype=np.float64)
            if arr.shape != shape:
                raise ContractError(
                    f"checkpoint parameter {name} has shape {arr.shape}, want {shape}"
                )
            if not np.isfinite(arr).all():
                raise ContractError(f"parameter {name} is not finite")
            self.params[name] = arr

    def save(self, path) -> None:
        payload = {
            "config": asdict(self.config),
            "params": {k: v.tolist() for k, v in self.params.items()},
            "meta": self.meta,
        }
        atomic_write_text(path, json.dumps(payload, indent=2) + "\n")

    @staticmethod
    def load(path) -> "Checkpoint":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise FormatError(f"{path}: {exc}") from exc
        if not isinstance(payload, dict):
            raise FormatError(f"{path}: expected a JSON object")
        for key in ("config", "params"):
            if not isinstance(payload.get(key), dict):
                raise FormatError(f"{path}: missing {key!r} object")
        try:
            cfg = ModelConfig(**payload["config"])
        except (TypeError, ParameterError) as exc:
            raise FormatError(f"{path}: bad config: {exc}") from exc
        params = {}
        for name, value in payload["params"].items():
            try:
                params[name] = np.array(value, dtype=np.float64)
            except (TypeError, ValueError):  # ragged rows or non-numbers
                raise FormatError(
                    f"{path}: parameter {name} is not a numeric array") from None
        try:
            return Checkpoint(config=cfg, params=params,
                              meta=payload.get("meta", {}))
        except ContractError as exc:
            raise FormatError(f"{path}: {exc}") from exc
