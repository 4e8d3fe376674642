"""Coupling matrices and the penalty pairs (f, delta) behind attention weights.

Each attention family is defined by a scalar penalty function delta of the
squared pairwise distance; its derivative f is the un-normalized attention
score. Valid squared distances lie in [0, 4] (unit-norm embeddings).

The dynamics see a coupling only through the `Coupling` protocol, built by
`coupling_operator`: identity, gin, gcn_sym and gat_masked are sparse edge
operators (`graphs.EdgeOperator`), all_one and quadratic attention the
column mean (`MeanCoupling`), simple attention `SimpleAttention`. Only
advanced and softmax attention materialize N x N (`build_coupling`), which
is otherwise the dense oracle of the tests.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .errors import ContractError, DimensionError, DomainError, ParameterError
from .graphs import EdgeOperator, Graph, atomic_write_text
from .numerics import as_matrix, row_norms

log = logging.getLogger(__name__)

PENALTY_KINDS = ("simple", "advanced", "softmax", "quadratic")
STATIC_FAMILIES = ("identity", "all_one", "gcn_sym", "gin")
ATTENTION_FAMILIES = ("attention", "gat_masked")
COUPLING_FAMILIES = STATIC_FAMILIES + ATTENTION_FAMILIES

Z_SQ_MAX = 4.0
_DOMAIN_SLACK = 1e-9
# Below this dim_scale the softmax delta(4) = 2 (e - 1/e) exp(1/sqrt(d)) overflows.
DIM_SCALE_MIN = math.log(np.finfo(float).max / (2.0 * (math.e - math.exp(-1.0)))) ** -2


@dataclass(frozen=True)
class PenaltyFamily:
    kind: str = "simple"
    dim_scale: float = 1.0  # d in the softmax family's exp(1/sqrt(d)) factor

    def __post_init__(self):
        if self.kind not in PENALTY_KINDS:
            raise ParameterError(f"unknown penalty kind {self.kind!r}")
        if not 0 < self.dim_scale < math.inf:
            raise ParameterError(
                f"dim_scale must be positive and finite, got {self.dim_scale}")
        if self.dim_scale < DIM_SCALE_MIN:
            raise ParameterError(f"dim_scale must be >= {DIM_SCALE_MIN!r}, below which "
                                 f"the softmax penalty overflows, got {self.dim_scale}")


def _check_domain(z_sq: float) -> float:
    z_sq = float(z_sq)
    if not (-_DOMAIN_SLACK <= z_sq <= Z_SQ_MAX + _DOMAIN_SLACK):
        raise DomainError(f"z_sq={z_sq} outside [0, {Z_SQ_MAX}]")
    return min(max(z_sq, 0.0), Z_SQ_MAX)


def penalty_f(p: PenaltyFamily, z_sq: float) -> float:
    """Un-normalized attention score f(z^2), the derivative of delta."""
    u = _check_domain(z_sq)
    if p.kind == "simple":
        return 2.0 - 0.5 * u
    if p.kind == "advanced":
        return 1.0 / (1.0 + math.exp(0.5 * u - 1.0))
    if p.kind == "softmax":
        return math.exp(1.0 - 0.5 * u) * math.exp(1.0 / math.sqrt(p.dim_scale))
    return 1.0  # quadratic: delta(u) = u


def penalty_delta(p: PenaltyFamily, z_sq: float) -> float:
    """Penalty delta(z^2); the softmax family is the antiderivative of f
    anchored at delta(0) = 0."""
    u = _check_domain(z_sq)
    if p.kind == "simple":
        return 2.0 * u - 0.25 * u * u
    if p.kind == "advanced":
        return u - 2.0 * math.log(math.exp(0.5 * u - 1.0) + 1.0)
    if p.kind == "softmax":
        scale = math.exp(1.0 / math.sqrt(p.dim_scale))
        return 2.0 * scale * (math.e - math.exp(1.0 - 0.5 * u))
    return u


def penalty_delta_array(p: PenaltyFamily, z_sq: np.ndarray) -> np.ndarray:
    """Vectorized penalty_delta over an array of squared distances."""
    u = np.asarray(z_sq, dtype=np.float64)
    if np.any(u < -_DOMAIN_SLACK) or np.any(u > Z_SQ_MAX + _DOMAIN_SLACK):
        raise DomainError(f"z_sq values outside [0, {Z_SQ_MAX}]")
    u = np.clip(u, 0.0, Z_SQ_MAX)
    if p.kind == "simple":
        return 2.0 * u - 0.25 * u * u
    if p.kind == "advanced":
        return u - 2.0 * np.log(np.exp(0.5 * u - 1.0) + 1.0)
    if p.kind == "softmax":
        scale = math.exp(1.0 / math.sqrt(p.dim_scale))
        return 2.0 * scale * (math.e - np.exp(1.0 - 0.5 * u))
    return u


def penalty_f_range(p: PenaltyFamily) -> tuple[float, float]:
    """Range of f over the valid interval (f is non-increasing)."""
    return penalty_f(p, Z_SQ_MAX), penalty_f(p, 0.0)


def penalty_conjugate(p: PenaltyFamily, omega: float, tol: float = 1e-10) -> float:
    """Concave conjugate delta~(omega) = inf_{y in [0,4]} (omega*y - delta(y)).

    Closed form for the simple family; bracketed golden-section search
    otherwise (the objective is unimodal because f is monotone).
    """
    lo, hi = penalty_f_range(p)
    if not (lo - 1e-9 <= omega <= hi + 1e-9):
        raise DomainError(f"omega={omega} outside the range of f [{lo}, {hi}]")
    if p.kind == "simple":
        y = 2.0 * (2.0 - omega)
        y = min(max(y, 0.0), Z_SQ_MAX)
        return omega * y - penalty_delta(p, y)

    def objective(y):
        return omega * y - penalty_delta(p, y)

    a, b = 0.0, Z_SQ_MAX
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = objective(d)
    y = 0.5 * (a + b)
    return min(objective(y), objective(0.0), objective(Z_SQ_MAX))


@dataclass(frozen=True)
class CouplingSpec:
    family: str
    penalty: PenaltyFamily | None = None
    graph_mask: Graph | None = None

    def __post_init__(self):
        if self.family not in COUPLING_FAMILIES:
            raise ParameterError(f"unknown coupling family {self.family!r}")
        if self.family in ATTENTION_FAMILIES:
            if self.penalty is None:
                raise ParameterError(f"{self.family} requires a penalty family")
        elif self.penalty is not None:
            raise ParameterError(f"{self.family} does not take a penalty")
        if self.family == "gat_masked" and self.graph_mask is None:
            raise ParameterError("gat_masked requires graph_mask")

    @property
    def is_attention(self) -> bool:
        return self.family in ATTENTION_FAMILIES


def attention_scores(p: PenaltyFamily, z: np.ndarray) -> np.ndarray:
    """Pairwise scores f(||z_i - z_j||^2) via the dot-product identity
    ||z_i - z_j||^2 = 2 - 2 z_i.z_j, valid for unit-norm rows."""
    z = as_matrix(z)
    return _scores(p, z @ z.T)


def _scores(p: PenaltyFamily, gram: np.ndarray) -> np.ndarray:
    """f(2 - 2 g) of an array of dot products g of unit rows."""
    z_sq = np.clip(2.0 - 2.0 * gram, 0.0, Z_SQ_MAX)
    if p.kind == "simple":
        return 2.0 - 0.5 * z_sq
    if p.kind == "advanced":
        return 1.0 / (1.0 + np.exp(0.5 * z_sq - 1.0))
    if p.kind == "softmax":
        return np.exp(1.0 - 0.5 * z_sq) * math.exp(1.0 / math.sqrt(p.dim_scale))
    return np.ones_like(z_sq)


def _unit_rows(z: np.ndarray) -> np.ndarray:
    z = as_matrix(z)
    if np.max(np.abs(row_norms(z) - 1.0), initial=0.0) > 1e-6:
        raise ContractError("attention couplings require unit-norm embedding rows")
    return z


def build_coupling(spec: CouplingSpec, z: np.ndarray) -> np.ndarray:
    """The N x N attention coupling at unit-norm embeddings z: pairwise
    scores row-normalized, masked to the graph's edges plus self-loops for
    gat_masked. A row whose scores sum to zero falls back to a self-loop."""
    if not spec.is_attention:
        raise ParameterError(f"{spec.family} is not an attention family; "
                             "use coupling_operator")
    z = _unit_rows(z)
    omega = attention_scores(spec.penalty, z)
    if spec.family == "gat_masked":
        mask, (u, v) = np.eye(z.shape[0]), spec.graph_mask.edges.T
        mask[u, v] = mask[v, u] = 1.0
        omega = omega * mask
    sums = omega.sum(axis=1)
    dead = sums <= 0.0
    if np.any(dead):
        log.warning("build_coupling: %d degenerate row(s) fell back to self-loops",
                    int(dead.sum()))
        omega[dead, :] = 0.0
        omega[dead, dead] = 1.0
        sums = omega.sum(axis=1)
    return omega / sums[:, None]


def gat_masked_coupling(p: PenaltyFamily, z: np.ndarray, g: Graph) -> EdgeOperator:
    """The gat_masked coupling on the edges of g plus self-loops in O(E d):
    scores f(2 - 2 z_i.z_j) of unit rows, each row normalized by its sum
    (`np.bincount`), with `build_coupling`'s self-loop fallback for a row
    whose scores sum to zero."""
    z = _unit_rows(z)
    if z.shape[0] != g.n:
        raise DimensionError(f"graph n={g.n} does not match embeddings {z.shape}")
    lay = g.neighbours
    edge = _scores(p, np.einsum("ij,ij->i", z[lay.rows], z[lay.cols]))
    loop = _scores(p, np.einsum("ij,ij->i", z, z))
    sums = np.bincount(lay.rows, weights=edge, minlength=g.n) + loop
    dead = sums <= 0.0
    if np.any(dead):
        log.warning("gat_masked_coupling: %d degenerate row(s) fell back to "
                    "self-loops", int(dead.sum()))
        edge[dead[lay.rows]] = 0.0
        loop[dead] = sums[dead] = 1.0
    return EdgeOperator(lay, edge / sums[lay.rows], loop / sums)


class Coupling(Protocol):
    """A row coupling S on N nodes, seen only through what the dynamics use."""

    n: int

    def apply(self, v: np.ndarray) -> np.ndarray:
        """S @ v for an N x d' matrix v."""

    def row_sums(self) -> np.ndarray:
        """S @ 1 as an N-vector."""

    def dense(self) -> np.ndarray:
        """The N x N matrix S; for oracles and tests only."""


def _check_rows(n: int, v: np.ndarray) -> np.ndarray:
    v = as_matrix(v)
    if v.shape[0] != n:
        raise DimensionError(f"coupling on {n} nodes applied to {v.shape[0]} rows")
    return v


class SimpleAttention:
    """Row-normalized simple-attention coupling s_ij = (1 + z_i.z_j) / sum_k
    (1 + z_i.z_k) of unit-norm rows Z, without materializing S.

    With the accumulators sum_j v_j and Z^T V, S V costs O(N d d') time and
    O(d d') scratch. The denominators N + z_i.sum_j z_j are at least 2 for
    unit rows, so no row degenerates.
    """

    def __init__(self, z: np.ndarray):
        self.z = z = _unit_rows(z)
        self.n = z.shape[0]
        self._denominator = self.n + z @ z.sum(axis=0)

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = _check_rows(self.n, v)
        numerator = v.sum(axis=0)[None, :] + self.z @ (self.z.T @ v)
        return numerator / self._denominator[:, None]

    def row_sums(self) -> np.ndarray:
        return self.apply(np.ones((self.n, 1)))[:, 0]

    def dense(self) -> np.ndarray:
        return build_coupling(CouplingSpec("attention", PenaltyFamily("simple")), self.z)


class DenseCoupling:
    """A materialized N x N coupling array."""

    def __init__(self, s: np.ndarray):
        s = as_matrix(s)
        if s.shape[0] != s.shape[1]:
            raise DimensionError(f"coupling must be square, got {s.shape}")
        self.s = s
        self.n = s.shape[0]

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.s @ _check_rows(self.n, v)

    def row_sums(self) -> np.ndarray:
        return self.s.sum(axis=1)

    def dense(self) -> np.ndarray:
        return self.s


class MeanCoupling:
    """S = 1 1^T / N: every row takes the column mean, in O(N d)."""

    def __init__(self, n: int):
        self.n = n

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = _check_rows(self.n, v)
        return np.repeat(v.mean(axis=0, keepdims=True), self.n, axis=0)

    def row_sums(self) -> np.ndarray:
        return np.ones(self.n)

    def dense(self) -> np.ndarray:
        return np.full((self.n, self.n), 1.0 / self.n)


def coupling_operator(spec: CouplingSpec, z: np.ndarray | None = None,
                      g: Graph | None = None) -> Coupling:
    """The coupling of spec at embeddings z (attention) or on graph g
    (static); only unmasked advanced and softmax attention materialize
    an N x N array."""
    if spec.family in ("identity", "all_one"):
        if g is None and z is None:
            raise ParameterError(f"{spec.family} needs a graph or embeddings for N")
        n = g.n if g is not None else as_matrix(z).shape[0]
        if spec.family == "all_one":
            return MeanCoupling(n)
        return EdgeOperator(Graph(n, ()).neighbours, np.zeros(0), np.ones(n))
    if g is None and spec.family in ("gcn_sym", "gin"):
        raise ParameterError(f"{spec.family} requires a graph")
    if spec.family == "gcn_sym":
        return g.sym_operator
    if spec.family == "gin":  # A + I
        return EdgeOperator(g.neighbours, np.ones(len(g.neighbours.rows)), np.ones(g.n))
    if spec.family == "gat_masked":
        return gat_masked_coupling(spec.penalty, z, spec.graph_mask)
    if spec.penalty.kind == "simple":
        return SimpleAttention(z)
    if spec.penalty.kind == "quadratic":  # f = 1, so every s_ij = 1/N
        return MeanCoupling(_unit_rows(z).shape[0])
    return DenseCoupling(build_coupling(spec, z))


def penalty_landscape(p: PenaltyFamily, step: float = 0.01) -> np.ndarray:
    """Table of (z_sq, f, delta) rows over [0, 4]."""
    grid = np.arange(0.0, Z_SQ_MAX + step / 2, step)
    rows = [(u, penalty_f(p, u), penalty_delta(p, u)) for u in grid]
    return np.array(rows)


def write_penalty_landscape(path, p: PenaltyFamily, step: float = 0.01) -> None:
    table = penalty_landscape(p, step)
    atomic_write_text(path, "z_sq,f,delta\n" + "".join(
        f"{u:.2f},{f_val:.17g},{d_val:.17g}\n" for u, f_val, d_val in table))
