"""Coupling matrices, the penalty pairs (f, delta) behind attention weights,
and the one attention kernel that the dynamics and the model share.

Each attention family is defined by a penalty delta of the squared pairwise
distance; its derivative f is the un-normalized attention score. Valid
squared distances lie in [0, 4] (unit-norm embeddings). `PENALTIES` holds
one entry per family, README's family table; every caller goes through
`penalty_f` and `penalty_delta`, which read it behind one domain check, of
a float or an array.

The kernel takes query rows Q~ and key rows K~ apart: a model layer passes
its row-normalized projections, the dynamics Q~ = K~ = Z. Simple attention
runs through the accumulators K~^T V, 1^T K~ and 1^T V, with no ones
column appended to V (`simple_attention`, O(N d d')). Dense attention,
run time and oracle alike, is one object, `DenseAttention`: the scores
A = f(2 - 2 Q~ K~^T), the reciprocal row sums r, S V = (A V) r, and S.

The dynamics see a coupling only through the `Coupling` protocol, built by
`coupling_operator`: the graph families are sparse edge operators
(`graphs.EdgeOperator`), all_one the column mean (`MeanCoupling`), and
unmasked attention its family's entry. GRAPH_FAMILIES take their graph from `g`.
An attention state's rows are checked for unit norm there, once per build;
the couplings it builds from them take them as checked.

Every family takes a stack of states too, each slice bit for bit what its
2-D state alone gives; a 2-D state is the case without leading axes.
Unmasked attention takes a (..., N, d) array over leading axes: that many
couplings on N nodes, built and applied at once. The other families take a
(B, N, d) stack with a sequence of B graphs on N nodes each, slice b
coupled along graph b: the graphs' own operators joined into one
`graphs.EdgeOperator` on their stacked layout, and gat_masked's unit rows
checked once, over the whole stack. With one `Graph`, or none, they couple
one N x d state and reject a stack with a `DimensionError`.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .errors import ContractError, DimensionError, DomainError, ParameterError
from .graphs import EdgeOperator, Graph, atomic_write_text
from .numerics import as_matrix, as_stack, row_dots, row_norms

STATIC_FAMILIES = ("identity", "all_one", "gcn_sym", "gin")
ATTENTION_FAMILIES = ("attention", "gat_masked")
COUPLING_FAMILIES = STATIC_FAMILIES + ATTENTION_FAMILIES
GRAPH_FAMILIES = ("gcn_sym", "gin", "gat_masked")  # the ones that need a graph

Z_SQ_MAX = 4.0
_DOMAIN_SLACK = 1e-9
# Below this dim_scale the softmax delta(4) = 2 (e - 1/e) exp(1/sqrt(d)) overflows.
DIM_SCALE_MIN = math.log(np.finfo(float).max / (2.0 * (math.e - math.exp(-1.0)))) ** -2
_LANDSCAPE_STEP = 0.01


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

    @property
    def softmax_scale(self) -> float:
        """The softmax family's factor exp(1/sqrt(dim_scale))."""
        return math.exp(1.0 / math.sqrt(self.dim_scale))


def _check_within(name: str, x, lo: float, hi: float) -> np.ndarray:
    """x as a float64 array; a value outside [lo, hi] by more than
    _DOMAIN_SLACK, or NaN, raises DomainError naming the first one."""
    x = np.asarray(x, dtype=np.float64)
    inside = (x >= lo - _DOMAIN_SLACK) & (x <= hi + _DOMAIN_SLACK)
    if not inside.all():
        raise DomainError(f"{name}={float(x[~inside][0])} outside [{lo}, {hi}]")
    return x


def _domain(z_sq) -> np.ndarray:
    return np.clip(_check_within("z_sq", z_sq, 0.0, Z_SQ_MAX), 0.0, Z_SQ_MAX)


def penalty_f(p: PenaltyFamily, z_sq):
    """Attention score f(z^2) = delta'(z^2), of a float or elementwise of an array."""
    return PENALTIES[p.kind].f(p, _domain(z_sq))


def penalty_delta(p: PenaltyFamily, z_sq):
    """Penalty delta(z^2) of a float or elementwise of an array."""
    return PENALTIES[p.kind].delta(p, _domain(z_sq))


def penalty_f_range(p: PenaltyFamily) -> tuple[float, float]:
    """Range of f over the valid interval (f is non-increasing)."""
    lo, hi = penalty_f(p, np.array([Z_SQ_MAX, 0.0]))
    return float(lo), float(hi)


@dataclass(frozen=True)
class CouplingSpec:
    family: str
    penalty: PenaltyFamily | None = None

    def __post_init__(self):
        if self.family not in COUPLING_FAMILIES:
            raise ParameterError(f"unknown coupling family {self.family!r}")
        if self.family in ATTENTION_FAMILIES:
            if self.penalty is None:
                raise ParameterError(f"{self.family} requires a penalty family")
        elif self.penalty is not None:
            raise ParameterError(f"{self.family} does not take a penalty")

    @property
    def is_attention(self) -> bool:
        return self.family in ATTENTION_FAMILIES


def _unit_sq_dists(gram: np.ndarray) -> np.ndarray:
    """||z_i - z_j||^2 = 2 - 2 z_i.z_j of dot products of unit rows,
    clipped to the domain against rounding."""
    return np.clip(2.0 - 2.0 * gram, 0.0, Z_SQ_MAX)


def simple_attention(qt: np.ndarray, kt: np.ndarray, v: np.ndarray):
    """Simple attention S V, s_ij = (1 + q~_i.k~_j) / sum_l (1 + q~_i.k~_l),
    in O(N d d'): (Q~ K~^T V + 1 1^T V) / (Q~ K~^T 1 + N) row by row, from
    K~^T V, 1^T K~ and 1^T V. Returns S V, the denominator column, K~^T V,
    1^T K~ and 1^T V, which `Tape.linear_attention`'s VJP reads. Unit
    rows keep a denominator at 2 or more when Q~ = K~; one that signed
    projections cancel to 0 or below raises DomainError."""
    ones = np.ones(v.shape[-2])
    kv, k_sum = np.swapaxes(kt, -1, -2) @ v, ones @ kt
    denom = qt @ k_sum[..., None] + v.shape[-2]
    if np.any(denom <= 0):
        raise DomainError("simple attention denominator N + q~.sum(k~) is not positive")
    v_sum = ones @ v
    out = qt @ kv
    out += v_sum[..., None, :]
    out /= denom
    return out, denom, kv, k_sum, v_sum


def _first_bad_row(bad: np.ndarray) -> tuple[tuple, str]:
    """Index and name of the first True of a per-row mask (..., N): "row i",
    or "slice b row i" in a stack, with b counting the slices in C order."""
    flat = int(np.argmax(bad))
    b, i = divmod(flat, bad.shape[-1])
    name = f"row {i}" if bad.ndim == 1 else f"slice {b} row {i}"
    return np.unravel_index(flat, bad.shape), name


def _unit_rows(z: np.ndarray) -> np.ndarray:
    z = as_stack(z)
    norms = row_norms(z)
    bad = ~(np.abs(norms - 1.0) <= 1e-6)  # NaN and inf rows fail too
    if np.any(bad):
        where, name = _first_bad_row(bad)
        raise ContractError("attention couplings require finite unit-norm embedding "
                            f"rows; {name} has norm {norms[where]}")
    return z


def _row_normalizers(sums: np.ndarray) -> np.ndarray:
    """The score row sums (..., N) an attention coupling divides by. Every
    row holds its own pair at u <= 4e-6 and f(0) > 0 for every family, so a
    row sum that is not positive means a score broke that contract."""
    bad = ~(sums > 0.0)
    if np.any(bad):
        where, name = _first_bad_row(bad)
        raise ContractError(f"attention {name} has score sum {sums[where]}, not positive")
    return sums


def gat_masked_coupling(p: PenaltyFamily, z: np.ndarray, g: Graph) -> EdgeOperator:
    """The gat_masked coupling on the edges of g plus self-loops in O(E d):
    scores f(2 - 2 z_i.z_j) of unit rows, each row normalized by its sum
    (`np.bincount`). z is one N x d state, not a stack, of rows
    `coupling_operator` has checked."""
    z = as_matrix(z)
    if z.shape[0] != g.n:
        raise DimensionError(f"graph n={g.n} does not match embeddings {z.shape}")
    lay = g.neighbours
    edge = penalty_f(p, _unit_sq_dists(row_dots(z[lay.rows], z[lay.cols])))
    loop = penalty_f(p, _unit_sq_dists(row_dots(z, z)))
    sums = _row_normalizers(np.bincount(lay.rows, weights=edge, minlength=g.n) + loop)
    return EdgeOperator(lay, edge / sums[lay.rows], loop / sums)


class Coupling(Protocol):
    """A row coupling S on N nodes, seen only through what the dynamics use.
    A coupling built on a stack of states is a stack of S, one per slice."""

    n: int

    def apply(self, v: np.ndarray) -> np.ndarray:
        """S @ v for an N x d' matrix v, or slice by slice for a stack."""

    def row_sums(self) -> np.ndarray:
        """S @ 1 as an N-vector, or (..., N) for a stack."""


def _check_rows(n: int, v: np.ndarray) -> np.ndarray:
    v = as_stack(v)
    if v.shape[-2] != n:
        raise DimensionError(f"coupling on {n} nodes applied to {v.shape[-2]} rows")
    return v


class SimpleAttention:
    """Simple attention at unit-norm rows Z (..., N, d), as
    `coupling_operator` checks them, without forming S. Its row sums S 1
    are exactly 1: each row of S is its weights over their own sum."""

    def __init__(self, z: np.ndarray):
        self.z = z
        self.n = z.shape[-2]
        self._row_sums = np.ones(z.shape[:-1])

    def apply(self, v: np.ndarray) -> np.ndarray:
        return simple_attention(self.z, self.z, _check_rows(self.n, v))[0]

    def row_sums(self) -> np.ndarray:
        return self._row_sums


class DenseAttention:
    """Dense attention of query rows Q~ over key rows K~, (..., N, d) each:
    the scores A = f(||q~_i - k~_j||^2) = f(2 - 2 Q~ K~^T) of penalty p and
    the column r = 1 / (A 1), applied as S V = (A V) r in O(N^2 d'). It
    checks no rows: a model head's floored zero row scores at its clipped
    distance. Its row sums S 1 are made on the first call to `row_sums`."""

    def __init__(self, p: PenaltyFamily, qt: np.ndarray, kt: np.ndarray):
        self.n = kt.shape[-2]
        self.a = penalty_f(p, _unit_sq_dists(qt @ np.swapaxes(kt, -1, -2)))
        self.r = 1.0 / _row_normalizers(self.a.sum(axis=-1))[..., None]
        self._row_sums = None

    def apply(self, v: np.ndarray) -> np.ndarray:
        return (self.a @ _check_rows(self.n, v)) * self.r

    def row_sums(self) -> np.ndarray:
        if self._row_sums is None:
            self._row_sums = self.apply(np.ones(self.a.shape[:-1] + (1,)))[..., 0]
        return self._row_sums

    def dense(self) -> np.ndarray:
        return self.a / self.a.sum(axis=-1)[..., None]


class MeanCoupling:
    """S = 1 1^T / N: every row takes the column mean, in O(N d); `batch`
    is the leading shape of a stack of them."""

    def __init__(self, n: int, batch: tuple[int, ...] = ()):
        self.n = n
        self.batch = tuple(batch)

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = _check_rows(self.n, v)
        return np.repeat(v.mean(axis=-2, keepdims=True), self.n, axis=-2)

    def row_sums(self) -> np.ndarray:
        return np.ones(self.batch + (self.n,))


@dataclass(frozen=True)
class PenaltyEntry:
    """One penalty family; each callable takes the family p first."""

    f: Callable  # f(p, u) of a float or an array u of squared distances
    delta: Callable  # delta(p, u), whose derivative is f
    coupling: Callable[[PenaltyFamily, np.ndarray], Coupling]  # S at checked unit rows z
    poly: tuple[float, float] | None = None  # (a, b) if delta(u) = a u + b u^2: a closed sum


PENALTIES = {
    "simple": PenaltyEntry(
        f=lambda p, u: 2.0 - 0.5 * u,
        delta=lambda p, u: 2.0 * u - 0.25 * u * u,
        coupling=lambda p, z: SimpleAttention(z),
        poly=(2.0, -0.25)),
    "advanced": PenaltyEntry(
        f=lambda p, u: 1.0 / (1.0 + np.exp(0.5 * u - 1.0)),
        delta=lambda p, u: u - 2.0 * np.log(np.exp(0.5 * u - 1.0) + 1.0),
        coupling=lambda p, z: DenseAttention(p, z, z)),
    "softmax": PenaltyEntry(  # delta is f's antiderivative anchored at delta(0) = 0
        f=lambda p, u: np.exp(1.0 - 0.5 * u) * p.softmax_scale,
        delta=lambda p, u: 2.0 * p.softmax_scale * (math.e - np.exp(1.0 - 0.5 * u)),
        coupling=lambda p, z: DenseAttention(p, z, z)),
    "quadratic": PenaltyEntry(  # f = 1: every s_ij = 1/N
        f=lambda p, u: np.ones_like(u)[()],  # [()] unwraps a 0-d result
        delta=lambda p, u: u,
        coupling=lambda p, z: MeanCoupling(z.shape[-2], z.shape[:-2]),
        poly=(1.0, 0.0)),
}
PENALTY_KINDS = tuple(PENALTIES)


def coupling_operator(spec: CouplingSpec, z: np.ndarray | None = None,
                      g: Graph | Sequence[Graph] | None = None) -> Coupling:
    """The coupling of spec at embeddings z (attention) or on graph g (a
    static family); gat_masked needs both. Unmasked attention takes a stack
    of states; every other family one N x d state on one graph, or a
    (B, N, d) stack on a sequence of B graphs. An attention state's rows
    are checked here, once per build, a stack's bad row named with its
    slice."""
    if spec.family != "attention" and g is not None and not isinstance(g, Graph):
        return _block_coupling(spec, z, list(g))
    if z is not None and spec.family != "attention" and np.ndim(z) != 2:
        raise DimensionError(f"{spec.family} couples one N x d state, not an array "
                             f"of shape {np.shape(z)}")
    if (z is not None and g is not None and not spec.is_attention
            and np.shape(z)[0] != g.n):
        raise DimensionError(f"{spec.family} on {g.n} nodes needs {g.n} rows, got a "
                             f"state of shape {np.shape(z)}")
    if spec.family in ("identity", "all_one"):
        if g is None and z is None:
            raise ParameterError(f"{spec.family} needs a graph or embeddings for N")
        n = g.n if g is not None else as_matrix(z).shape[0]
        if spec.family == "all_one":
            return MeanCoupling(n)
        return EdgeOperator(Graph(n, ()).neighbours, np.zeros(0), np.ones(n))
    if g is None and spec.family in GRAPH_FAMILIES:
        raise ParameterError(f"{spec.family} requires a graph")
    if spec.family == "gcn_sym":
        return g.sym_operator
    if spec.family == "gin":  # A + I
        return EdgeOperator(g.neighbours, np.ones(len(g.neighbours.rows)), np.ones(g.n))
    z = _unit_rows(z)  # only the attention families are left
    if spec.family == "gat_masked":
        return gat_masked_coupling(spec.penalty, z, g)
    return PENALTIES[spec.penalty.kind].coupling(spec.penalty, z)


def _block_coupling(spec: CouplingSpec, z: np.ndarray | None,
                    graphs: list[Graph]) -> Coupling:
    """The coupling of a non-attention family on each of B graphs of equal
    N, at the slices of a (B, N, d) stack z where it reads one."""
    if not graphs:
        raise ParameterError(f"{spec.family} on a sequence of graphs needs at least one")
    n = graphs[0].n
    if any(g.n != n for g in graphs):
        raise DimensionError("stacked graphs must share one node count, got "
                             f"{[g.n for g in graphs]}")
    if z is not None and (np.ndim(z) != 3 or np.shape(z)[:2] != (len(graphs), n)):
        raise DimensionError(f"{len(graphs)} graphs on {n} nodes couple a "
                             f"({len(graphs)}, {n}, d) stack, not an array of shape "
                             f"{np.shape(z)}")
    if spec.family == "all_one":
        return MeanCoupling(n, (len(graphs),))
    if spec.is_attention:  # the stack's rows checked once, a bad row named with its slice
        z = _unit_rows(z)
        return EdgeOperator.stack([gat_masked_coupling(spec.penalty, z[b], g)
                                   for b, g in enumerate(graphs)])
    return EdgeOperator.stack([coupling_operator(spec, None if z is None else z[b], g)
                               for b, g in enumerate(graphs)])


def write_penalty_landscape(path, p: PenaltyFamily) -> None:
    """CSV table of (z_sq, f, delta) rows over [0, 4] in steps of 0.01."""
    u = np.arange(0.0, Z_SQ_MAX + _LANDSCAPE_STEP / 2, _LANDSCAPE_STEP)
    rows = zip(u.tolist(), penalty_f(p, u).tolist(), penalty_delta(p, u).tolist())
    atomic_write_text(path, "z_sq,f,delta\n" + "".join(
        f"{u_val:.2f},{f_val:.17g},{d_val:.17g}\n" for u_val, f_val, d_val in rows))
