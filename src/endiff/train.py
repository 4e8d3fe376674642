"""Optimization loop, metrics, and mini-batch partitioning.

Semi-supervised setting: the loss sees only the masked (labeled) rows, the
forward pass sees every row in the batch. Mini-batches carry their induced
subgraph; cross-batch edges are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ContractError, DimensionError, ParameterError, UndefinedMetricError
from .graphs import Dataset, Graph, atomic_write_text
from .model import Checkpoint, ModelConfig, forward, init_model
from .tape import Eager

METRIC_KINDS = ("accuracy", "rocauc", "mse")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.01
    weight_decay: float = 0.0
    epochs: int = 200
    batch_size: int = 0  # 0 = full batch
    patience: int = 0  # 0 = never stop early
    seed: int = 0
    metric: str = "accuracy"

    def __post_init__(self):
        if self.lr <= 0:
            raise ParameterError("lr must be > 0")
        if self.epochs < 1:
            raise ParameterError("epochs must be >= 1")
        if self.patience < 0:
            raise ParameterError("patience must be >= 0")
        if self.weight_decay < 0:
            raise ParameterError("weight_decay must be >= 0")
        if self.batch_size < 0:
            raise ParameterError("batch_size must be >= 0")
        if self.metric not in METRIC_KINDS:
            raise ParameterError(f"unknown metric {self.metric!r}")


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0

    @staticmethod
    def for_params(params: dict[str, np.ndarray]) -> "AdamState":
        return AdamState(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
            t=0,
        )


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, lr: float, weight_decay: float = 0.0) -> None:
    """In-place decoupled-weight-decay Adam update."""
    if set(grads) != set(params):
        raise DimensionError("gradient table does not match parameters")
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise DimensionError(f"gradient shape mismatch for {name}")
        if weight_decay > 0:
            p -= lr * weight_decay * p
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def minibatch_partition(n: int, batch_size: int, seed: int, epoch: int) -> list[np.ndarray]:
    """Seeded-per-(seed, epoch) shuffle cut into contiguous chunks."""
    if batch_size == 0:
        return [np.arange(n)]
    if not (1 <= batch_size <= n):
        raise ParameterError(f"batch_size must be in [1, {n}] or 0, got {batch_size}")
    rng = np.random.default_rng((seed, epoch))
    order = rng.permutation(n)
    return [order[i : i + batch_size] for i in range(0, n, batch_size)]


def induced_subgraph(g: Graph, idx: np.ndarray) -> Graph:
    """Subgraph on idx with in-batch edges only, nodes relabeled 0..len-1."""
    pos = np.full(g.n, -1, dtype=np.int64)
    pos[idx] = np.arange(len(idx))
    ends = pos[g.edges]
    return Graph(n=len(idx), edges=ends[(ends >= 0).all(axis=1)])


def metric(kind: str, predictions, labels, mask) -> float:
    """accuracy: argmax agreement; rocauc: Mann-Whitney with tie midranks
    on the positive-class score; mse: mean squared error. All over masked
    rows only."""
    if kind not in METRIC_KINDS:
        raise ParameterError(f"unknown metric {kind!r}")
    predictions = np.asarray(predictions, dtype=np.float64)
    labels = np.asarray(labels)
    mask = np.asarray(mask, dtype=bool)
    rows = np.flatnonzero(mask)
    if rows.size == 0:
        raise ContractError("mask selects no rows")
    pred = predictions[rows]
    lab = labels[rows]
    if kind == "accuracy":
        return float(np.mean(np.argmax(pred, axis=1) == lab))
    if kind == "mse":
        target = np.asarray(lab, dtype=np.float64).reshape(pred.shape)
        return float(np.mean((pred - target) ** 2))
    # rocauc
    lab = lab.astype(np.int64)
    if not np.all((lab == 0) | (lab == 1)):
        raise UndefinedMetricError("rocauc requires binary labels")
    n_pos = int(np.sum(lab == 1))
    n_neg = int(np.sum(lab == 0))
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("rocauc undefined with a single class")
    scores = pred[:, 1] if pred.ndim == 2 and pred.shape[1] >= 2 else pred.ravel()
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(scores.size)
    sorted_scores = scores[order]
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0  # midrank, 1-based
        i = j + 1
    rank_sum = float(np.sum(ranks[lab == 1]))
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    history: list[dict]  # per-epoch: epoch, train_loss, val_metric, test_metric
    best_epoch: int
    test_metric: float


def _evaluate(params, dataset: Dataset, cfg: ModelConfig,
              metric_kind: str) -> tuple[float, float]:
    """(val, test) metrics from one non-recording forward over the whole
    dataset."""
    logits, _ = forward(params, dataset.features, dataset.graph, cfg, tape=Eager())
    return tuple(metric(metric_kind, logits, dataset.labels, dataset.mask(tag))
                 for tag in ("val", "test"))


def _metric_improved(kind: str, new: float, best: float) -> bool:
    return new < best if kind == "mse" else new > best


def train_loop(dataset: Dataset, model_cfg: ModelConfig, train_cfg: TrainConfig) -> TrainResult:
    """Full-protocol training: per epoch partition / forward / masked loss /
    backward / Adam; tracks the validation metric and reports the test
    metric of the best-validation epoch. Ties keep the earlier epoch."""
    if not dataset.mask("train").any() or not dataset.mask("val").any():
        raise ContractError("dataset needs non-empty train and val splits")
    if model_cfg.use_graph and dataset.graph is None:
        raise ContractError("model wants a graph but dataset has none")

    params = init_model(model_cfg, train_cfg.seed)
    state = AdamState.for_params(params)
    history = []
    best_metric = None
    best_params = None
    best_epoch = -1
    stale = 0

    for epoch in range(train_cfg.epochs):
        epoch_losses = []
        batches = minibatch_partition(dataset.n, train_cfg.batch_size,
                                      train_cfg.seed, epoch)
        for idx in batches:
            bmask = dataset.mask("train")[idx]
            if not bmask.any():
                continue
            # A full batch is every node in order, so it keeps the dataset's
            # graph and the operator cached on it.
            sub_g = dataset.graph
            if sub_g is not None and train_cfg.batch_size:
                sub_g = induced_subgraph(sub_g, idx)
            logits, tape = forward(params, dataset.features[idx], sub_g, model_cfg)
            if train_cfg.metric == "mse":
                target = dataset.labels[idx].astype(np.float64).reshape(-1, 1)
                lnode = tape.masked_mse(logits, target, bmask)
            else:
                lnode = tape.masked_cross_entropy(logits, dataset.labels[idx], bmask)
            epoch_losses.append(float(lnode.value[0, 0]))
            grads = tape.backward(lnode)
            adam_step(params, grads, state, train_cfg.lr, train_cfg.weight_decay)

        val_m, test_m = _evaluate(params, dataset, model_cfg, train_cfg.metric)
        history.append({
            "epoch": epoch,
            "train_loss": float(np.mean(epoch_losses)) if epoch_losses else float("nan"),
            "val_metric": val_m,
            "test_metric": test_m,
        })
        if best_metric is None or _metric_improved(train_cfg.metric, val_m, best_metric):
            best_metric = val_m
            best_params = {k: v.copy() for k, v in params.items()}
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if train_cfg.patience and stale >= train_cfg.patience:
                break

    test_best = history[best_epoch]["test_metric"]
    ckpt = Checkpoint(
        config=model_cfg,
        params=best_params,
        meta={
            "epoch": best_epoch,
            "seed": train_cfg.seed,
            "metrics": {
                "val": best_metric,
                "test": test_best,
                "metric_kind": train_cfg.metric,
            },
        },
    )
    return TrainResult(checkpoint=ckpt, history=history,
                       best_epoch=best_epoch, test_metric=test_best)


def write_history_csv(history: list[dict], path) -> None:
    """Metric-history CSV: epoch, train_loss, val_metric, test_metric."""
    atomic_write_text(path, "epoch,train_loss,val_metric,test_metric\n" + "".join(
        f"{row['epoch']},{row['train_loss']:.17g},"
        f"{row['val_metric']:.17g},{row['test_metric']:.17g}\n" for row in history))


def mlp_mode_config(cfg: ModelConfig) -> ModelConfig:
    """Matched baseline with all pairwise propagation removed: identity
    coupling per head and no graph channel, everything else unchanged."""
    return replace(cfg, variant="mlp", use_graph=False)
