"""Explicit-Euler diffusion steppers and trajectory runner.

The core update is z' = Z - tau * (diag(S 1) - S) Z: each node keeps a
(1 - tau * row_sum) share of its own state and absorbs a tau-weighted mix
of the others. The coupling S is a `coupling.Coupling` operator, so simple
attention runs in O(N d^2) and every graph family in O(E d) per step
without materializing S. With `use_source` the step also adds the initial
state at step size tau, the source term of the paper's DIFFormer layer:
Z' = Z - tau * (diag(S 1) - S) Z + tau * Z^(0).

Attention dynamics also step a stack of states: a (B, N, d) start runs B
independent trajectories at once, one per slice, each bit for bit the run
of its 2-D start alone. A 2-D start is the case without leading axes.
Static couplings act on one N x d state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coupling import Coupling, CouplingSpec, SimpleAttention, coupling_operator
from .errors import DimensionError, ParameterError
from .graphs import Graph
from .numerics import as_matrix, as_stack, row_l2_normalize


@dataclass(frozen=True)
class DiffusionConfig:
    tau: float = 0.5
    steps: int = 1
    use_source: bool = False

    def __post_init__(self):
        if not (0.0 < self.tau <= 1.0):
            raise ParameterError(f"tau must be in (0, 1], got {self.tau}")
        if self.steps < 1:
            raise ParameterError("steps must be >= 1")
        if not isinstance(self.use_source, (bool, np.bool_)):
            raise ParameterError(
                f"use_source must be true or false, got {self.use_source!r}")


@dataclass
class Trajectory:
    """The states Z^(0), ..., Z^(K) of a run, indexed by step, and for each
    the row sums S 1 of the coupling it diffuses with; the last state's is
    the coupling a further step would use. A stacked run keeps (..., N, d)
    states and (..., N) row sums."""

    snapshots: list[np.ndarray]
    row_sums: list[np.ndarray]
    config: DiffusionConfig
    spec: CouplingSpec
    coupling: Coupling | None = None  # the static coupling; None for attention


def euler_step(z: np.ndarray, s: Coupling, tau: float) -> np.ndarray:
    """One explicit-Euler step Z' = Z - tau * (diag(S 1) - S) Z, slice by
    slice for a stack."""
    z = as_stack(z)
    return z - tau * _laplacian_apply(s, z)


def _laplacian_apply(s: Coupling, z: np.ndarray) -> np.ndarray:
    """(diag(S 1) - S) Z."""
    if s.n != z.shape[-2]:
        raise DimensionError(
            f"coupling on {s.n} nodes does not match embeddings {z.shape}")
    return s.row_sums()[..., None] * z - s.apply(z)


def linear_simple_propagate(z: np.ndarray) -> np.ndarray:
    """Simple-attention propagation S Z of unit rows z in O(N d^2). It stays
    as the one call that replays a propagation: the linear_equiv audit and
    the benchmark's diffuse check (perfbench/checks.py) use it."""
    return SimpleAttention(z).apply(z)


def run_trajectory(z0: np.ndarray, spec: CouplingSpec, cfg: DiffusionConfig,
                   g: Graph | None = None) -> Trajectory:
    """Iterate the configured diffusion for cfg.steps steps, recording every
    state and the row sums of the coupling it diffuses with.

    Attention families re-normalize the state to unit rows before each
    diffusivity inference (the dot-product identity behind the scores needs
    it), so they build steps + 1 couplings, the last one only for its row
    sums; static families build their coupling once and reuse it. With
    cfg.use_source each step adds tau Z^(0), the initial state. The
    GRAPH_FAMILIES couple along g. Unmasked attention steps a stack of
    starts (..., N, d) at once.
    """
    z = row_l2_normalize(z0) if spec.is_attention else as_matrix(z0).copy()
    static = None if spec.is_attention else coupling_operator(spec, z, g)

    def coupled(z: np.ndarray) -> tuple[np.ndarray, Coupling]:
        """The state a step from z diffuses and the coupling it steps with."""
        if static is not None:
            return z, static
        z = row_l2_normalize(z)
        return z, coupling_operator(spec, z, g)

    snapshots = [z]
    state, s = coupled(z)
    row_sums = [s.row_sums()]
    for _ in range(cfg.steps):
        nxt = euler_step(state, s, cfg.tau)
        if cfg.use_source:
            nxt = nxt + cfg.tau * snapshots[0]
        snapshots.append(nxt)
        state, s = coupled(nxt)
        row_sums.append(s.row_sums())
    return Trajectory(snapshots=snapshots, row_sums=row_sums, config=cfg, spec=spec,
                      coupling=static)
