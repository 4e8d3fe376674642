"""Energy functionals and the descent / bound / over-smoothing audits.

Pairwise sums follow the all-ordered-pairs convention (i and j both range
over all nodes, diagonal included), which matches the row-normalization
denominators of the attention couplings. A coupling-weighted pairwise sum
takes one `apply` of the coupling (`_coupled_pair_sum`), so it costs
O(E d) on a graph and never forms an N x N array.

Pairwise distances do not change when every row is shifted by the same
vector, so diversity and the simple family's penalty are evaluated in
closed form on the centred rows Y = Z - mean(Z), in O(N d) and O(N d^2).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from .coupling import (Coupling, PenaltyFamily, attention_scores,
                       coupling_operator, penalty_conjugate, penalty_delta_array)
from .diffusion import Trajectory
from .errors import ContractError, DimensionError, ParameterError
from .graphs import Graph, atomic_write_text
from .numerics import as_matrix, laplacian_spectral_bracket, row_l2_normalize

DESCENT_SLACK = 1e-9
BOUND_REL_SLACK = 1e-8
# Squared row norms up to 1 + this count as inside the unit ball, so unit
# rows that round just above 1 keep the closed form; pairs then reach at
# most u = 4 + 4e-12, well inside the pairwise domain check's slack.
UNIT_BALL_SLACK = 1e-12


def _pairwise_sq_dists(z: np.ndarray) -> np.ndarray:
    gram = z @ z.T
    sq = np.diag(gram)
    return np.maximum(sq[:, None] + sq[None, :] - 2.0 * gram, 0.0)


def _check_same_shape(z: np.ndarray, z_prev: np.ndarray) -> None:
    if z.shape != z_prev.shape:
        raise DimensionError(f"shape mismatch: {z.shape} vs {z_prev.shape}")


def _coupled_pair_sum(s: Coupling, z: np.ndarray) -> float:
    """sum_ij s_ij ||z_i - z_j||^2 = sum_i r_i b_i + (S b)_i - 2 y_i.(S Y)_i
    over the centred rows Y = Z - mean(Z), with b_i = ||y_i||^2 and r = S 1,
    from one `apply` on [Y | b]; exact for an asymmetric S too. Centring
    keeps the terms small when the rows gather around a common point, and
    a diagonal entry's terms cancel exactly row by row."""
    if s.n != z.shape[0]:
        raise DimensionError(f"coupling on {s.n} nodes does not match {z.shape}")
    y = z - z.mean(axis=0)
    b = (y * y).sum(axis=1)
    sy = s.apply(np.column_stack([y, b]))
    per_row = s.row_sums() * b + sy[:, -1] - 2.0 * (y * sy[:, :-1]).sum(axis=1)
    return float(per_row.sum())


def quadratic_energy(z, z_prev, s: Coupling, lam: float) -> float:
    """||Z - Z_prev||_F^2 + lam * sum_ij s_ij ||z_i - z_j||^2."""
    z = as_matrix(z)
    z_prev = as_matrix(z_prev)
    _check_same_shape(z, z_prev)
    if lam < 0:
        raise ParameterError("lam must be >= 0")
    local = float(np.sum((z - z_prev) ** 2))
    return local + lam * _coupled_pair_sum(s, z)


def source_energy(z, z_prev, s, lam: float, eta: float, h) -> float:
    """Quadratic energy with the anchor shifted to Z_prev + eta * H."""
    z_prev = as_matrix(z_prev)
    h = as_matrix(h)
    _check_same_shape(z_prev, h)
    return quadratic_energy(z, z_prev + eta * h, s, lam)


def _penalty_sum(penalty: PenaltyFamily, z: np.ndarray) -> float:
    """sum_ij delta(||z_i - z_j||^2) over all ordered pairs.

    The simple family, delta(u) = 2u - u^2/4, takes its exact closed form
    when every row lies in the unit ball (up to rounding), which keeps every
    pairwise u in the domain [0, 4]. With b_i = |y_i|^2: sum u = 2N sum b
    and sum u^2 = 2N sum b^2 + 2 (sum b)^2 + 4 ||Y^T Y||_F^2. Any other case
    goes pair by pair, which rejects a u outside the domain.
    """
    if (penalty.kind == "simple"
            and np.max(np.sum(z * z, axis=1)) <= 1.0 + UNIT_BALL_SLACK):
        n = z.shape[0]
        y = z - z.mean(axis=0)
        b = np.sum(y * y, axis=1)
        sum_b = float(b.sum())
        gram = y.T @ y
        sum_u = 2.0 * n * sum_b
        sum_u2 = (2.0 * n * float(b @ b) + 2.0 * sum_b**2
                  + 4.0 * float(np.sum(gram * gram)))
        return 2.0 * sum_u - 0.25 * sum_u2
    return float(np.sum(penalty_delta_array(penalty, _pairwise_sq_dists(z))))


def regularized_energy(z, z_prev, penalty: PenaltyFamily, lam: float) -> float:
    """||Z - Z_prev||_F^2 + lam * sum_ij delta(||z_i - z_j||^2)."""
    z = as_matrix(z)
    z_prev = as_matrix(z_prev)
    _check_same_shape(z, z_prev)
    local = float(np.sum((z - z_prev) ** 2))
    return local + lam * _penalty_sum(penalty, z)


def surrogate_energy(z, z_prev, omega, penalty: PenaltyFamily, lam: float) -> float:
    """Variational upper bound: the pairwise penalty is replaced by
    omega_ij * ||z_i - z_j||^2 - delta~(omega_ij) with the concave
    conjugate delta~."""
    z = as_matrix(z)
    z_prev = as_matrix(z_prev)
    omega = as_matrix(omega)
    _check_same_shape(z, z_prev)
    if omega.shape != (z.shape[0], z.shape[0]):
        raise DimensionError(f"omega {omega.shape} does not match {z.shape}")
    d2 = _pairwise_sq_dists(z)
    local = float(np.sum((z - z_prev) ** 2))
    pair = float(np.sum(omega * d2))
    conj = sum(penalty_conjugate(penalty, w) for w in omega.ravel())
    return local + lam * (pair - conj)


def graph_regularized_energy(z, z_prev, penalty: PenaltyFamily, g: Graph,
                             lam: float) -> float:
    """Regularized energy plus the quadratic penalty
    sum_ij a_ij ||z_i - z_j||^2 of the sym-normalized adjacency a, each
    half-weighted. The graph-blended dynamics step on the same two halves
    but do not always descend this energy: on seeded ER(20, 0.3) instances
    at tau = 0.25 some steps raise it."""
    z = as_matrix(z)
    z_prev = as_matrix(z_prev)
    _check_same_shape(z, z_prev)
    edge_term = _coupled_pair_sum(g.sym_operator, z)
    local = float(np.sum((z - z_prev) ** 2))
    pen = _penalty_sum(penalty, z)
    return local + 0.5 * lam * pen + 0.5 * lam * edge_term


def diversity(z) -> float:
    """sum_{i<j} ||z_i - z_j||^2 = N ||Z - mean(Z)||_F^2, the
    embedding-collapse diagnostic, in O(N d)."""
    z = as_matrix(z)
    y = z - z.mean(axis=0)
    return z.shape[0] * float(np.sum(y * y))


@dataclass
class EnergyReport:
    energies: list[float]
    descent_ok: list[bool]
    violations: list[dict] = field(default_factory=list)
    diversity_series: list[float] = field(default_factory=list)
    lam: float = 0.0
    tau: float = 0.0
    bracket: tuple[float, float] | None = None
    min_ratio: float | None = None
    max_ratio: float | None = None
    notes: dict = field(default_factory=dict)

    @property
    def num_violations(self) -> int:
        return len(self.violations)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, default=float)


def _require_dense_recording(traj: Trajectory) -> None:
    if traj.config.record_every != 1:
        raise ContractError("audits need record_every = 1")
    steps = traj.steps
    if steps != list(range(len(steps))):
        raise ContractError("audits need every step recorded")


def _trajectory_energy(traj: Trajectory, k_next: int, lam: float) -> float:
    """E(Z^(k_next), k_next-1) with the energy form matching the trajectory:
    quadratic for static couplings, regularized for attention, source /
    graph-regularized variants when configured."""
    cfg = traj.config
    spec = traj.spec
    z = traj.snapshots[k_next][1]
    z_prev = traj.snapshots[k_next - 1][1]
    eta = lam * cfg.beta
    if spec.is_attention:
        anchor = z_prev if cfg.beta == 0 else z_prev + eta * traj.source
        if cfg.graph_blend:
            return graph_regularized_energy(z, anchor, spec.penalty, traj.graph, lam)
        return regularized_energy(z, anchor, spec.penalty, lam)
    if cfg.beta > 0:
        return source_energy(z, z_prev, traj.coupling, lam, eta, traj.source)
    return quadratic_energy(z, z_prev, traj.coupling, lam)


def audit_descent(traj: Trajectory, lam: float | None = None,
                  slack: float = DESCENT_SLACK) -> EnergyReport:
    """Check E(Z^(k+1), k) <= E(Z^(k), k-1) along a fully recorded
    trajectory; lam defaults to tau (gradient step fixed at one)."""
    _require_dense_recording(traj)
    if lam is None:
        lam = traj.config.tau
    mats = traj.matrices
    if len(mats) < 3:
        raise ContractError("descent audit needs at least two steps")
    energies = [_trajectory_energy(traj, k, lam) for k in range(1, len(mats))]
    flags = []
    violations = []
    for k in range(1, len(energies)):
        ok = energies[k] <= energies[k - 1] + slack
        flags.append(bool(ok))
        if not ok:
            violations.append({
                "step": k,
                "energy_prev": energies[k - 1],
                "energy_next": energies[k],
                "excess": energies[k] - energies[k - 1],
            })
    return EnergyReport(
        energies=energies,
        descent_ok=flags,
        violations=violations,
        diversity_series=[diversity(m) for m in mats],
        lam=lam,
        tau=traj.config.tau,
        notes={"lam_rule": "lam = tau (gradient step alpha fixed at 1)"},
    )


def audit_bounds(traj: Trajectory) -> EnergyReport:
    """Check the per-step energy bracket
    (1 - tau*l1)^2 E_k <= E_{k+1} <= (1 - tau*l2)^2 E_k for a static
    coupling at lam = tau, with l1/l2 the largest/smallest singular values
    of its Laplacian (an SVD of the dense coupling)."""
    _require_dense_recording(traj)
    if traj.spec.is_attention or traj.config.beta > 0 or traj.config.graph_blend:
        raise ContractError("bound audit applies to plain static-coupling runs")
    tau = lam = traj.config.tau
    bracket = laplacian_spectral_bracket(traj.coupling.dense())
    if tau > 1.0 / bracket.lambda_max + 1e-12:
        raise ContractError(
            f"tau={tau} exceeds 1/lambda_max={1.0 / bracket.lambda_max}"
        )
    lo = (1.0 - tau * bracket.lambda_max) ** 2
    hi = (1.0 - tau * bracket.lambda_min) ** 2
    mats = traj.matrices
    energies = [_trajectory_energy(traj, k, lam) for k in range(1, len(mats))]
    flags = []
    violations = []
    ratios = []
    for k in range(1, len(energies)):
        e_prev, e_next = energies[k - 1], energies[k]
        slack = BOUND_REL_SLACK * max(e_prev, 1e-300)
        ok = (lo * e_prev - slack <= e_next <= hi * e_prev + slack)
        if e_prev > 0:
            ratios.append(e_next / e_prev)
        flags.append(bool(ok))
        if not ok:
            violations.append({
                "step": k,
                "ratio": e_next / e_prev if e_prev > 0 else float("inf"),
                "bracket": [lo, hi],
            })
    return EnergyReport(
        energies=energies,
        descent_ok=flags,
        violations=violations,
        diversity_series=[diversity(m) for m in mats],
        lam=lam,
        tau=tau,
        bracket=(bracket.lambda_max, bracket.lambda_min),
        min_ratio=min(ratios) if ratios else None,
        max_ratio=max(ratios) if ratios else None,
    )


def inferred_omega(penalty: PenaltyFamily, z) -> np.ndarray:
    """Variational parameters from the diffusivity inference: the raw
    pairwise scores f(||z_i - z_j||^2) before row normalization."""
    return attention_scores(penalty, row_l2_normalize(as_matrix(z)))


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Trajectory CSV: step, energy (at lam = tau), diversity, min_row_sum,
    max_row_sum.

    The row sums are S 1 of the coupling each snapshot diffuses with. The
    text is built first and written once, so a run that fails part way
    leaves no partial file.
    """
    lam = traj.config.tau
    lines = ["step,energy,diversity,min_row_sum,max_row_sum\n"]
    for pos, (k, z) in enumerate(traj.snapshots):
        energy = float("nan") if pos == 0 else _trajectory_energy(traj, pos, lam)
        s = (coupling_operator(traj.spec, row_l2_normalize(z), traj.graph)
             if traj.spec.is_attention else traj.coupling)
        sums = s.row_sums()
        lines.append(f"{k},{energy:.17g},{diversity(z):.17g},"
                     f"{sums.min():.17g},{sums.max():.17g}\n")
    atomic_write_text(path, "".join(lines))
