"""Explicit-Euler diffusion steppers and trajectory runner.

The core update is z' = Z - tau * (diag(S 1) - S) Z: each node keeps a
(1 - tau * row_sum) share of its own state and absorbs a tau-weighted mix
of the others. The coupling S is a `coupling.Coupling` operator, so simple
attention runs in O(N d^2) and every graph family in O(E d) per step
without materializing S. With `use_source` the step also adds the initial
state at step size tau, the source term of the paper's DIFFormer layer:
Z' = Z - tau * (diag(S 1) - S) Z + tau * Z^(0).

A step applies S once. A static family applies it to the centred rows
Y = Z - mean(Z), the same step as (diag(S 1) - S) 1 = 0, and the state's
`Step` record keeps Y and S Y for its energy to read; a run whose energies
nobody reads makes no more passes than steps.

Every family also steps a stack of states: a (B, N, d) start runs B
independent trajectories at once, one per slice, each bit for bit the run
of its 2-D start alone. A 2-D start is the case without leading axes.
Attention takes any leading axes; the graph families take a (B, N, d)
start with a sequence of B graphs of equal N, slice b on graph b. The step
size tau is one float, or an array of the start's leading shape with one
tau per slice.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coupling import Coupling, CouplingSpec, PenaltyFamily, coupling_operator
from .errors import DimensionError, ParameterError, check_flag, check_integer
from .graphs import Graph
from .numerics import as_stack, row_dots, row_l2_normalize


@dataclass(frozen=True)
class DiffusionConfig:
    """tau is a float, or an array of them, one per slice of a stacked run,
    kept as a read-only float64 copy."""

    tau: float | np.ndarray = 0.5
    steps: int = 1
    use_source: bool = False

    def __post_init__(self):
        tau = np.asarray(self.tau)
        if tau.dtype.kind not in "iuf" or not np.all((tau > 0.0) & (tau <= 1.0)):
            raise ParameterError(f"tau must be in (0, 1], got {self.tau}")
        if tau.ndim:
            tau = tau.astype(np.float64)
            tau.flags.writeable = False
            object.__setattr__(self, "tau", tau)
        check_integer("steps", self.steps, 1)
        check_flag("use_source", self.use_source)

    @cached_property
    def step_size(self):
        """tau as it scales a state: the float, or the per-slice array as a
        (..., 1, 1) stack."""
        return self.tau if np.ndim(self.tau) == 0 else self.tau[..., None, None]


@dataclass(frozen=True)
class Step:
    """Step k of a run: the state Z^(k), the state `prev` it stepped from
    (None at k = 0) and the coupling S it diffuses with (None for a lone
    state). Y, b, sum b and S Y are made once, when the next step or the
    energy first reads them. A stack gives (..., N, d) states."""

    k: int
    z: np.ndarray
    prev: np.ndarray | None
    coupling: Coupling | None

    @property
    def row_sums(self) -> np.ndarray:
        return self.coupling.row_sums()

    @cached_property
    def y(self) -> np.ndarray:
        """Z - mean(Z), slice by slice, centred by BLAS column sums."""
        n = self.z.shape[-2]
        return self.z - (np.ones(n) @ self.z)[..., None, :] / n

    @cached_property
    def b(self) -> np.ndarray:
        return row_dots(self.y, self.y)

    @cached_property
    def sum_b(self):
        return self.b.sum(axis=-1)

    @cached_property
    def sy(self) -> np.ndarray:
        return self.coupling.apply(self.y)


@dataclass(frozen=True)
class Trajectory:
    """A run from its start Z^(0): iterating it steps the dynamics and
    yields Z^(0), ..., Z^(K) as `Step`s, keeping only the current record,
    its predecessor's state and the start. `coupling` is the coupling Z^(0)
    diffuses with; a static family reuses it at every step, attention builds
    one per step on the re-normalized state. Each pass steps the run afresh."""

    start: np.ndarray
    config: DiffusionConfig
    spec: CouplingSpec
    graph: Graph | Sequence[Graph] | None
    coupling: Coupling

    def __iter__(self) -> Iterator[Step]:
        cfg, spec, s = self.config, self.spec, self.coupling
        tau = cfg.step_size
        state = row_l2_normalize(self.start) if spec.is_attention else None
        step = Step(0, self.start, None, s)
        yield step
        for k in range(1, cfg.steps + 1):
            base, y, sy = ((state, state, s.apply(state)) if spec.is_attention
                           else (step.z, step.y, step.sy))
            z = euler_step(base, y, sy, s.row_sums(), tau)
            if cfg.use_source:
                z = z + tau * self.start
            if spec.is_attention:
                state = row_l2_normalize(z)
                s = coupling_operator(spec, state, self.graph)
            step = Step(k, z, step.z, s)
            yield step


def euler_step(z: np.ndarray, y: np.ndarray, sy: np.ndarray, row_sums: np.ndarray,
               tau) -> np.ndarray:
    """One explicit-Euler step Z' = Z - tau * (diag(S 1) - S) Y from one
    pass (Y, S Y) and the row sums S 1, slice by slice for a stack: Y is Z,
    or Z less a constant row per slice. tau is a float or broadcasts over
    the stack, such as a (B, 1, 1) array of per-slice step sizes."""
    if not z.shape == y.shape == sy.shape or row_sums.shape != z.shape[:-1]:
        raise DimensionError(f"step shapes {z.shape}, {y.shape}, {sy.shape}, {row_sums.shape}")
    # Row sums of exactly 1 (simple attention, the mean coupling) keep Y as
    # it is: 1.0 * y == y, so skipping the product changes no bit.
    kept = y if (row_sums == 1.0).all() else row_sums[..., None] * y
    return z - tau * (kept - sy)


def linear_simple_propagate(z: np.ndarray) -> np.ndarray:
    """Simple-attention propagation S Z of unit rows z in O(N d^2), built
    through `coupling_operator`, which checks them. It stays as the one call
    that replays a propagation: the linear_equiv audit and the benchmark's
    diffuse check (perfbench/checks.py) use it."""
    return coupling_operator(CouplingSpec("attention", PenaltyFamily("simple")), z).apply(z)


def run_trajectory(z0: np.ndarray, spec: CouplingSpec, cfg: DiffusionConfig,
                   g: Graph | Sequence[Graph] | None = None) -> Trajectory:
    """The configured diffusion from z0 for cfg.steps steps, as a
    `Trajectory` that steps it when iterated.

    The coupling Z^(0) diffuses with is built here, so a start or graph the
    family rejects fails at the call. Attention families start from z0's
    unit rows, re-normalize the state before each diffusivity inference
    (the dot-product identity behind the scores needs it) and build one
    more coupling per step, the last one only for its row sums. With
    cfg.use_source each step adds tau Z^(0). The GRAPH_FAMILIES couple
    along g. Unmasked attention steps a stack of starts (..., N, d) at
    once, the other families a (B, N, d) stack along a sequence of B graphs;
    an array tau has the stack's leading shape.
    """
    z = row_l2_normalize(z0) if spec.is_attention else as_stack(z0).copy()
    if np.ndim(cfg.tau) and np.shape(cfg.tau) != z.shape[:-2]:
        raise DimensionError(f"tau of shape {np.shape(cfg.tau)} does not match the "
                             f"starts of shape {z.shape}")
    state = row_l2_normalize(z) if spec.is_attention else z
    return Trajectory(z, cfg, spec, g, coupling_operator(spec, state, g))
