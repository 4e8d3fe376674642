"""Trainable all-pair propagation network built on the autodiff tape.

Pipeline per forward pass: input projection + LayerNorm + ReLU, then K
propagation layers. A layer holds one (H, d, d) weight per role, the
stack of its heads' matrices, and projects the state by it in one matmul:
one (H, N, d) stack per role. It propagates V through one tape primitive
call for all heads, which L2-normalizes the Q and K rows itself and takes
its value from the dynamics' attention kernel in `coupling`: the simple
family's accumulators (`linear_attention`, O(N d^2)) or the advanced
family's dense scores (`sigmoid_attention`, O(N^2 d)). So with identity
projections, one head and unit rows a layer's blend is one Euler step of
the dynamics. The `mlp` variant mixes no rows and holds V alone. The
heads are averaged. The optional sym-normalized graph channel S is linear,
so mean_h (P_h + S V_h) = mean_h P_h + S mean_h V_h: it costs one
application of the graph's cached sparse operator per layer, O(E d), on
the mean of the heads' V. The result is blended with the previous state at
step size tau (plus the source) before a LayerNorm. The output head is a
plain affine map. Every weight is stored as the right operand of its
matmul on row-vector states. `forward` runs on a recording `Tape` for
training, or on the non-recording `Eager` evaluator, whose parameters may
be stacks of copies that run one forward each.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import (ContractError, DimensionError, FormatError, ParameterError,
                     check_flag, check_integer)
from .graphs import Graph, atomic_write_text
from .tape import Eager, Ref, Tape

VARIANTS = ("simple", "advanced", "mlp")  # mlp: identity coupling, no mixing


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
    use_source: bool = False

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ParameterError(f"unknown variant {self.variant!r}")
        for name in ("input_dim", "hidden_dim", "output_dim", "layers", "heads"):
            check_integer(name, getattr(self, name), 1)
        check_flag("use_graph", self.use_graph)
        check_flag("use_source", self.use_source)
        if isinstance(self.tau, bool) or not isinstance(self.tau, (int, float, np.integer)):
            raise ParameterError(f"tau must be a number, got {self.tau!r}")
        if not 0.0 < self.tau <= 1.0:
            raise ParameterError(f"tau must be in (0, 1], got {self.tau}")


# The projections each variant's forward reads: mlp mixes no rows, so it
# needs no Q or K.
_ROLES = {"simple": "QKV", "advanced": "QKV", "mlp": "V"}


def parameter_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Registry layout. Each weight is the right operand of its matmul on
    row-vector states: W_I is input x hidden, and layer k's W_{role}_k is
    the (H, d, d) stack of its heads' matrices, for each role its variant
    reads."""
    d, c = cfg.hidden_dim, cfg.output_dim
    shapes = {"W_I": (cfg.input_dim, d), "b_I": (1, d)}
    for k in range(cfg.layers):
        for role in _ROLES[cfg.variant]:
            shapes[f"W_{role}_{k}"] = (cfg.heads, d, d)
    shapes["W_O"] = (d, c)
    shapes["b_O"] = (1, c)
    return shapes


def init_model(cfg: ModelConfig, seed: int) -> dict[str, np.ndarray]:
    """Glorot-uniform weights, zero biases, deterministic per seed. W_I and
    each head's matrices are drawn d_out x d_in and stored transposed, in
    the order (W_I; per layer, per head: Q, K, V; W_O) of the layout that
    kept one parameter per head, so a seed gives the numbers it gave then.
    Every layer's heads come from one draw, so a model too large for memory
    fails at that one allocation. mlp still draws the Q and K matrices it
    does not keep, which keeps its later draws where they were."""
    rng = np.random.default_rng(seed)
    d = cfg.hidden_dim

    def glorot(*shape):
        limit = np.sqrt(6.0 / (shape[-2] + shape[-1]))
        return rng.uniform(-limit, limit, size=shape)

    params = {"W_I": glorot(d, cfg.input_dim).T.copy(), "b_I": np.zeros((1, d))}
    try:
        heads = glorot(cfg.layers, cfg.heads, 3, d, d)
    except ValueError as exc:  # a shape numpy cannot form
        raise ParameterError(f"a model of layers={cfg.layers}, heads={cfg.heads}, "
                             f"hidden_dim={d} is too large: {exc}") from None
    for k in range(cfg.layers):
        for i, role in enumerate("QKV"):
            if role in _ROLES[cfg.variant]:
                params[f"W_{role}_{k}"] = heads[k, :, i].swapaxes(1, 2).copy()
    params["W_O"] = glorot(d, cfg.output_dim)
    params["b_O"] = np.zeros((1, cfg.output_dim))
    return params


def _layer(t, z, z0, refs, k: int, cfg: ModelConfig, graph_op):
    """Layer k on a state z and source z0 that carry a unit head axis: the
    mean of every head's attention, plus the graph channel on the mean of
    their V, blended with the state at step tau (plus the source), then
    LayerNorm. Intermediate values die with the call, the raw Q and K with
    the attention call that normalizes them and the heads' attention
    outputs with their mean, which keeps a forward's memory low."""
    proj = {role: t.matmul(z, refs[f"W_{role}_{k}"]) for role in _ROLES[cfg.variant]}
    v = proj["V"]
    attention = {"simple": t.linear_attention, "advanced": t.sigmoid_attention}
    p_bar = t.head_mean(attention[cfg.variant](proj.pop("Q"), proj.pop("K"), v)
                        if cfg.variant in attention else v)
    if graph_op is not None:
        p_bar = t.add(p_bar, t.sym_apply(graph_op, t.head_mean(v)))
    blend = t.add(t.scale(t.stack(p_bar), cfg.tau), t.scale(z, 1.0 - cfg.tau))
    if cfg.use_source:
        blend = t.add(blend, t.scale(z0, cfg.tau))
    if k == cfg.layers - 1:
        blend = t.head_mean(blend)  # drop the unit head axis
    return t.layer_norm(blend)


def forward(params: dict[str, np.ndarray], x: np.ndarray, g: Graph | None,
            cfg: ModelConfig, tape: Tape | Eager | None = None
            ) -> tuple[Ref | np.ndarray, Tape | Eager]:
    """Run the full forward pass on `tape` (a new `Tape` by default) and
    return the N x C logits with the evaluator. On a `Tape` the logits are a
    node and the parameters are registered so backward() can fill their
    gradients. On an `Eager` the logits are an array, and a parameter given
    as a stack of B copies, a (B, *shape) array, yields B x N x C logits."""
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
    t = tape if tape is not None else Tape()
    for name, shape in expected.items():
        got = params[name].shape  # only Eager takes stacked copies
        if got[-len(shape):] != shape or (got != shape and not isinstance(t, Eager)):
            raise DimensionError(f"parameter {name} has shape {got}, want {shape}")

    refs = {name: t.parameter(name, val) for name, val in params.items()}

    graph_op = g.sym_operator if cfg.use_graph else None

    # The state is a stack of one head until the last layer's mean: copies of
    # a stacked parameter sit in front of its head axis.
    z = z0 = t.relu(t.layer_norm(t.stack(
        t.add(t.matmul(t.constant(x), refs["W_I"]), refs["b_I"]))))
    for k in range(cfg.layers):
        z = _layer(t, z, z0, refs, k, cfg, graph_op)

    logits = t.add(t.matmul(z, refs["W_O"]), refs["b_O"])
    return logits, t


@dataclass
class Checkpoint:
    config: ModelConfig
    params: dict[str, np.ndarray]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        # the count first: a config's layers may be too many to lay out
        roles = len(_ROLES[self.config.variant])
        if len(self.params) != 4 + self.config.layers * roles:
            raise ContractError("checkpoint parameters do not match config")
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
        config = payload["config"]
        known = {f.name for f in fields(ModelConfig)}
        for key in config:
            if key not in known:
                raise FormatError(f"{path}: bad config: {key} is not a config key")
        try:
            cfg = ModelConfig(**config)
        except ParameterError as exc:
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
