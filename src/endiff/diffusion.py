"""Explicit-Euler diffusion steppers and trajectory runner.

The core update is z' = Z - tau * (diag(S 1) - S) Z: each node keeps a
(1 - tau * row_sum) share of its own state and absorbs a tau-weighted mix
of the others. The coupling S is a `coupling.Coupling` operator, so simple
attention runs in O(N d^2) and every graph family in O(E d) per step
without materializing S. Variants add a source term or blend an attention
coupling with the observed graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coupling import Coupling, CouplingSpec, SimpleAttention, coupling_operator
from .errors import ContractError, DimensionError, ParameterError
from .graphs import Graph
from .numerics import as_matrix, row_l2_normalize


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
    coupling: Coupling | None = None  # the static coupling; None for attention

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


def euler_step(z: np.ndarray, s: Coupling, tau: float) -> np.ndarray:
    """One explicit-Euler step Z' = Z - tau * (diag(S 1) - S) Z."""
    z = as_matrix(z)
    return z - tau * _laplacian_apply(s, z)


def _laplacian_apply(s: Coupling, z: np.ndarray) -> np.ndarray:
    """(diag(S 1) - S) Z."""
    if s.n != z.shape[0]:
        raise DimensionError(
            f"coupling on {s.n} nodes does not match embeddings {z.shape}")
    return s.row_sums()[:, None] * z - s.apply(z)


def graph_blended_step(z: np.ndarray, s_attn: Coupling, g: Graph,
                       tau: float) -> np.ndarray:
    """Euler step on the sum of an attention coupling and the
    sym-normalized observed adjacency, each weighted tau/2."""
    z = as_matrix(z)
    lap = _laplacian_apply(s_attn, z) + _laplacian_apply(g.sym_operator, z)
    return z - tau / 2.0 * lap


def linear_simple_propagate(z: np.ndarray) -> np.ndarray:
    """Row-normalized simple-attention propagation sum_j s_ij z_j in O(N d^2),
    through the accumulators of `SimpleAttention` instead of the dense
    N x N coupling."""
    return SimpleAttention(z).apply(z)


def run_trajectory(z0: np.ndarray, spec: CouplingSpec, cfg: DiffusionConfig,
                   g: Graph | None = None) -> Trajectory:
    """Iterate the configured diffusion for cfg.steps steps.

    Attention families re-normalize the state to unit rows before each
    diffusivity inference (the dot-product identity behind the scores needs
    it); static families build their coupling once and reuse it. The source
    term (beta > 0) is the initial state.
    """
    z = as_matrix(z0).copy()
    if spec.is_attention:
        z = row_l2_normalize(z)
    static = None if spec.is_attention else coupling_operator(spec, z, g)

    h = z.copy()
    if cfg.graph_blend and g is None:
        raise ParameterError("graph_blend requires a graph")

    snapshots = [(0, z.copy())]
    state = z
    for k in range(cfg.steps):
        if spec.is_attention:
            state = row_l2_normalize(state)
        s = static if static is not None else coupling_operator(spec, state, g)
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
                      source=h if cfg.beta > 0 else None, coupling=static)
