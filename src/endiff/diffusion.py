"""Explicit-Euler diffusion steppers and trajectory runner.

The core update is z' = Z - tau * (diag(S 1) - S) Z: each node keeps a
(1 - tau * row_sum) share of its own state and absorbs a tau-weighted mix
of the others. Variants add a source term, blend an attention coupling
with the observed graph, or compute the simple-attention propagation in
O(N) without materializing S.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coupling import CouplingSpec, build_coupling
from .errors import ContractError, DimensionError, ParameterError
from .graphs import Graph, normalized_adjacency
from .numerics import as_matrix, row_l2_normalize, row_norms


@dataclass(frozen=True)
class DiffusionConfig:
    tau: float = 0.5
    steps: int = 1
    beta: float = 0.0
    graph_blend: bool = False
    record_every: int = 1

    def __post_init__(self):
        if not (0.0 < self.tau <= 1.0):
            raise ParameterError(f"tau must be in (0, 1], got {self.tau}")
        if self.steps < 1:
            raise ParameterError("steps must be >= 1")
        if self.beta < 0.0:
            raise ParameterError("beta must be >= 0")
        if self.record_every < 1:
            raise ParameterError("record_every must be >= 1")


@dataclass
class Trajectory:
    snapshots: list[tuple[int, np.ndarray]]
    config: DiffusionConfig
    spec: CouplingSpec
    graph: Graph | None = None
    source: np.ndarray | None = None
    static_coupling: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        steps = [k for k, _ in self.snapshots]
        if not steps or steps[0] != 0 or any(a >= b for a, b in zip(steps, steps[1:])):
            raise ContractError("snapshots must start at step 0 and strictly increase")

    @property
    def steps(self) -> list[int]:
        return [k for k, _ in self.snapshots]

    @property
    def matrices(self) -> list[np.ndarray]:
        return [z for _, z in self.snapshots]


def _check_step_shapes(z: np.ndarray, s: np.ndarray) -> None:
    if s.shape[0] != s.shape[1]:
        raise DimensionError(f"coupling must be square, got {s.shape}")
    if s.shape[0] != z.shape[0]:
        raise DimensionError(
            f"coupling {s.shape} does not match embeddings {z.shape}"
        )


def euler_step(z: np.ndarray, s: np.ndarray, tau: float) -> np.ndarray:
    """One explicit-Euler step Z' = Z - tau * (diag(S 1) - S) Z."""
    z = as_matrix(z)
    s = as_matrix(s)
    _check_step_shapes(z, s)
    row_sums = s.sum(axis=1, keepdims=True)
    return z - tau * (row_sums * z - s @ z)


def graph_blended_step(z: np.ndarray, s_attn: np.ndarray, g: Graph,
                       tau: float) -> np.ndarray:
    """Euler step on the average of an attention coupling and the
    sym-normalized observed adjacency (each weighted tau/2)."""
    z = as_matrix(z)
    s_attn = as_matrix(s_attn)
    _check_step_shapes(z, s_attn)
    if g.n != z.shape[0]:
        raise DimensionError(f"graph n={g.n} does not match embeddings {z.shape}")
    blended = s_attn + normalized_adjacency(g, "sym")
    return euler_step(z, blended, tau / 2.0)


def linear_simple_propagate(z: np.ndarray) -> np.ndarray:
    """Row-normalized simple-attention propagation sum_j s_ij z_j in O(N).

    Uses the shared accumulators sum_j z_j (a d-vector) and sum_j z_j z_j^T
    (a d x d matrix) instead of the dense N x N coupling.
    """
    z = as_matrix(z)
    if np.max(np.abs(row_norms(z) - 1.0)) > 1e-6:
        raise ContractError("linear_simple_propagate requires unit-norm rows")
    n = z.shape[0]
    col_total = z.sum(axis=0)  # sum_j z_j
    gram = z.T @ z  # sum_j z_j z_j^T
    numerator = col_total[None, :] + z @ gram
    denominator = n + z @ col_total
    return numerator / denominator[:, None]


def dense_simple_propagate(z: np.ndarray) -> np.ndarray:
    """O(N^2) reference for linear_simple_propagate (materializes S)."""
    from .coupling import PenaltyFamily

    z = as_matrix(z)
    s = build_coupling(CouplingSpec("attention", PenaltyFamily("simple")), z)
    return s @ z


def run_trajectory(z0: np.ndarray, spec: CouplingSpec, cfg: DiffusionConfig,
                   g: Graph | None = None) -> Trajectory:
    """Iterate the configured diffusion for cfg.steps steps.

    Attention families re-normalize the state to unit rows before each
    diffusivity inference (the dot-product identity behind the scores needs
    it); static families build their coupling once and reuse it. The source
    term (beta > 0) is the initial state.
    """
    z = as_matrix(z0).copy()
    static_s = None
    if not spec.is_attention:
        static_s = build_coupling(spec, z, g)
    else:
        z = row_l2_normalize(z)

    h = z.copy()
    if cfg.graph_blend and g is None:
        raise ParameterError("graph_blend requires a graph")

    snapshots = [(0, z.copy())]
    state = z
    for k in range(cfg.steps):
        if spec.is_attention:
            state = row_l2_normalize(state)
            s = build_coupling(spec, state, g)
        else:
            s = static_s
        if cfg.graph_blend:
            nxt = graph_blended_step(state, s, g, cfg.tau)
        else:
            nxt = euler_step(state, s, cfg.tau)
        if cfg.beta > 0:
            nxt = nxt + cfg.tau * cfg.beta * h
        state = nxt
        if (k + 1) % cfg.record_every == 0 or (k + 1) == cfg.steps:
            snapshots.append((k + 1, state.copy()))
    return Trajectory(snapshots=snapshots, config=cfg, spec=spec, graph=g,
                      source=h if cfg.beta > 0 else None,
                      static_coupling=static_s)


__all__ = [
    "DiffusionConfig",
    "Trajectory",
    "euler_step",
    "graph_blended_step",
    "linear_simple_propagate",
    "dense_simple_propagate",
    "run_trajectory",
]
