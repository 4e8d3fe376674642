"""Energy functionals, the descent and ratio-bracket audits, and the
trajectory CSV.

The functionals take the energy weight lam as an argument. A trajectory's
energies, which both audits and the CSV read, fix lam = tau in one place
(`_trajectory_energy`): the paper fixes the gradient step at one, so
every audited statement (Thm 1, Prop 1, Thm 2) holds at lam = tau. Each
audit and the CSV make one pass over the run's steps, reading each step's
energy as it is made, and the two audits differ only in the test they
apply to consecutive energies. `descent_violations` is the descent test
alone, so a caller that holds a bound audit's report tests descent on the
same energies without a second pass.

Pairwise sums follow the all-ordered-pairs convention (i and j both range
over all nodes, diagonal included), which matches the row-normalization
denominators of the attention couplings. A coupling-weighted pairwise sum
takes one `apply` of the coupling (`_coupled_pair_sum`), so it costs
O(E d) on a graph and never forms an N x N array.

Pairwise distances do not change when every row is shifted by the same
vector, so diversity and the quadratic and simple families' penalties are
evaluated in closed form on the centred rows Y = Z - mean(Z), in O(N d) for
the first two and O(N d^2) for the last.

The energies, `diversity` and both audits take stacked runs: states
(..., N, d) reduce slice by slice to one value per slice, each bit for bit
that of the slice alone, and a 2-D state gives a float. The unit-ball gate
of the closed forms is decided per slice. `audit_bounds` takes a stacked
static run on a sequence of graphs, not a stacked attention run. The CSV
takes one N x d trajectory and rejects a stack with a `DimensionError`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .coupling import Coupling, PenaltyFamily, penalty_conjugate, penalty_delta
from .diffusion import Step, Trajectory
from .errors import ContractError, DimensionError, ParameterError
from .graphs import atomic_write_text
from .numerics import (SpectralBracket, as_matrix, as_stack, laplacian_spectral_bracket,
                       row_dots)

DESCENT_SLACK = 1e-9
BOUND_REL_SLACK = 1e-8
# Squared row norms up to 1 + this count as inside the unit ball, so unit
# rows that round just above 1 keep the closed form; pairs then reach at
# most u = 4 + 4e-12, well inside the pairwise domain check's slack.
UNIT_BALL_SLACK = 1e-12


def _pairwise_sq_dists(z: np.ndarray) -> np.ndarray:
    gram = z @ np.swapaxes(z, -1, -2)
    sq = np.diagonal(gram, axis1=-2, axis2=-1)
    return np.maximum(sq[..., :, None] + sq[..., None, :] - 2.0 * gram, 0.0)


def _slice_sum(x: np.ndarray) -> np.ndarray:
    """The sum of every entry of each matrix slice of x (..., N, d)."""
    return np.sum(x, axis=(-2, -1))


def _slice_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_ij a_ij b_ij of each pair of slices (..., N, d): one BLAS dot per
    slice, bit for bit as alone (einsum's is not past 8192 entries)."""
    lead = a.shape[:-2]
    return (a.reshape(lead + (1, -1)) @ b.reshape(lead + (-1, 1)))[..., 0, 0]


def _per_slice(x: np.ndarray):
    """A float for a 2-D state's value, the array of values for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def _check_one_state(z: np.ndarray, what: str) -> None:
    if z.ndim != 2:
        raise DimensionError(f"{what} takes one N x d trajectory, not a stack of "
                             f"shape {z.shape}")


def _check_same_shape(z: np.ndarray, z_prev: np.ndarray) -> None:
    if z.shape != z_prev.shape:
        raise DimensionError(f"shape mismatch: {z.shape} vs {z_prev.shape}")


def _coupled_pair_sum(s: Coupling, z: np.ndarray) -> np.ndarray:
    """sum_ij s_ij ||z_i - z_j||^2 = sum_i r_i b_i + (S b)_i - 2 y_i.(S Y)_i
    over the centred rows Y = Z - mean(Z), with b_i = ||y_i||^2 and r = S 1,
    from one `apply` on [Y | b]; exact for an asymmetric S too. Centring
    keeps the terms small when the rows gather around a common point, and
    a diagonal entry's terms cancel exactly row by row. One value per slice
    of a stack."""
    if s.n != z.shape[-2]:
        raise DimensionError(f"coupling on {s.n} nodes does not match {z.shape}")
    y = z - z.mean(axis=-2, keepdims=True)
    b = np.sum(y * y, axis=-1)
    sy = s.apply(np.concatenate([y, b[..., None]], axis=-1))
    per_row = s.row_sums() * b + sy[..., -1] - 2.0 * np.sum(y * sy[..., :-1], axis=-1)
    return np.sum(per_row, axis=-1)


def quadratic_energy(z, z_prev, s: Coupling, lam):
    """||Z - Z_prev||_F^2 + lam * sum_ij s_ij ||z_i - z_j||^2: a float, or
    one value per slice of a stack, whose lam may be one per slice."""
    z = as_stack(z)
    z_prev = as_stack(z_prev)
    _check_same_shape(z, z_prev)
    if np.any(np.less(lam, 0)):
        raise ParameterError("lam must be >= 0")
    local = _slice_sum((z - z_prev) ** 2)
    return _per_slice(local + lam * _coupled_pair_sum(s, z))


def _penalty_sum(penalty: PenaltyFamily, z: np.ndarray, in_domain: bool):
    """sum_ij delta(||z_i - z_j||^2) over all ordered pairs, per slice.

    The quadratic family, delta(u) = u, and the simple family,
    delta(u) = 2u - u^2/4, take their exact closed forms when every pairwise
    u lies in the domain [0, 4]: for a slice whose rows all lie in the unit
    ball (up to rounding), or for every slice when the caller knows it
    (`in_domain`). With b_i = |y_i|^2: sum u = 2N sum b, in O(N d), and
    sum u^2 = 2N sum b^2 + 2 (sum b)^2 + 4 ||Y^T Y||_F^2. Every other slice,
    and every slice of a family without a closed form, goes pair by pair,
    which rejects a u outside the domain.
    """
    if penalty.kind not in ("simple", "quadratic"):
        return _slice_sum(penalty_delta(penalty, _pairwise_sq_dists(z)))
    if in_domain:
        return _closed_penalty_sum(penalty, z)
    closed = np.max(row_dots(z, z), axis=-1) <= 1.0 + UNIT_BALL_SLACK
    if closed.all():  # the common case, without copying the closed slices out
        return _closed_penalty_sum(penalty, z)
    sums = np.empty(z.shape[:-2])
    if closed.any():
        sums[closed] = _closed_penalty_sum(penalty, z[closed])
    sums[~closed] = _slice_sum(penalty_delta(penalty, _pairwise_sq_dists(z[~closed])))
    return sums


def _closed_penalty_sum(penalty: PenaltyFamily, z: np.ndarray) -> np.ndarray:
    """The closed forms of `_penalty_sum`, per slice."""
    n = z.shape[-2]
    y = z - (np.ones(n) @ z)[..., None, :] / n
    b = row_dots(y, y)
    sum_b = b.sum(axis=-1)
    sum_u = 2.0 * n * sum_b
    if penalty.kind == "quadratic":
        return sum_u
    gram = np.swapaxes(y, -1, -2) @ y
    b_dot_b = (b[..., None, :] @ b[..., :, None])[..., 0, 0]
    # sum_b * sum_b: a scalar sum_b**2 (a 2-D state) may round apart via pow
    sum_u2 = 2.0 * n * b_dot_b + 2.0 * sum_b * sum_b + 4.0 * _slice_dot(gram, gram)
    return 2.0 * sum_u - 0.25 * sum_u2


def _regularized(z, z_prev, penalty: PenaltyFamily, lam: float, in_domain: bool):
    z = as_stack(z)
    z_prev = as_stack(z_prev)
    _check_same_shape(z, z_prev)
    step = z - z_prev
    return _per_slice(_slice_dot(step, step) + lam * _penalty_sum(penalty, z, in_domain))


def regularized_energy(z, z_prev, penalty: PenaltyFamily, lam: float):
    """||Z - Z_prev||_F^2 + lam * sum_ij delta(||z_i - z_j||^2): a float,
    or one value per slice of a stack."""
    return _regularized(z, z_prev, penalty, lam, in_domain=False)


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
    conj = float(np.sum(penalty_conjugate(penalty, omega)))
    return local + lam * (pair - conj)


def diversity(z):
    """sum_{i<j} ||z_i - z_j||^2 = N ||Z - mean(Z)||_F^2, the
    embedding-collapse diagnostic, in O(N d): a float, or one value per
    slice of a stack."""
    z = as_stack(z)
    y = z - (np.ones(z.shape[-2]) @ z)[..., None, :] / z.shape[-2]
    return _per_slice(z.shape[-2] * _slice_dot(y, y))


@dataclass
class EnergyReport:
    """What an audit read off a trajectory: the per-step energies
    E(Z^(k), k-1) for k = 1..K at lam = tau (an array over the slices of a
    stacked run), and one dict per step that broke the audited statement
    (per slice and step in a stacked run). The bound audit adds the
    Laplacian's (lambda_max, lambda_min) and the range of the observed
    energy ratios, None without a positive energy to divide by; a stacked
    run gives a list of them, one per slice."""

    energies: list
    violations: list[dict]
    bracket: tuple[float, float] | list | None = None
    min_ratio: float | list | None = None
    max_ratio: float | list | None = None

    @property
    def num_violations(self) -> int:
        return len(self.violations)


def _trajectory_energy(traj: Trajectory, step: Step):
    """E(Z^(k), k-1) of step k with the energy form matching the trajectory:
    quadratic for static couplings, regularized for attention, at
    lam = tau; NaN at k = 0, which has no predecessor. The source term
    shifts the anchor to Z^(k-1) + tau * Z^(0).

    Under quadratic attention (S = 1/N), the pair differences of every
    state are (1 - tau)(s_i - s_j), plus tau (z0_i - z0_j) with the
    source, with s the unit rows the step diffused and z0 the unit-row
    start: a mix of unit-row differences with total weight at most 1, so
    every u <= 4 and the closed form needs no gate."""
    if step.prev is None:
        return float("nan")
    cfg = traj.config
    spec = traj.spec
    lam = cfg.tau
    anchor = step.prev + cfg.step_size * traj.start if cfg.use_source else step.prev
    if not spec.is_attention:
        return quadratic_energy(step.z, anchor, traj.coupling, lam)
    in_domain = spec.family == "attention" and spec.penalty.kind == "quadratic"
    return _regularized(step.z, anchor, spec.penalty, lam, in_domain)


def _energies(traj: Trajectory) -> list:
    """E(Z^(k), k-1) for k = 1..K, from one pass over the run's steps."""
    return [_trajectory_energy(traj, step) for step in traj][1:]


def descent_violations(energies: list, slack: float = DESCENT_SLACK) -> list[dict]:
    """The descent rule E(Z^(k+1), k) <= E(Z^(k), k-1) + slack over a run's
    per-step energies, as an `EnergyReport` holds them: one dict per step
    that broke it, slice by slice for a stacked run, each naming its slice
    (in C order over the leading axes)."""
    if len(energies) < 2:
        raise ContractError("descent audit needs at least two steps")
    stacked = np.ndim(energies[0]) > 0
    return [
        {**({"slice": b} if stacked else {}), "step": k, "energy_prev": e_prev,
         "energy_next": e_next, "excess": e_next - e_prev}
        for b, series in enumerate(np.reshape(energies, (len(energies), -1)).T.tolist())
        for k, (e_prev, e_next) in enumerate(zip(series, series[1:]), 1)
        if not e_next <= e_prev + slack
    ]


def audit_descent(traj: Trajectory, slack: float = DESCENT_SLACK) -> EnergyReport:
    """Check the descent rule (`descent_violations`) along a trajectory,
    from one pass over its steps."""
    energies = _energies(traj)
    return EnergyReport(energies=energies, violations=descent_violations(energies, slack))


def audit_bounds(traj: Trajectory,
                 brackets: Sequence[SpectralBracket] | None = None) -> EnergyReport:
    """Check the per-step energy bracket
    (1 - tau*l1)^2 E_k <= E_{k+1} <= (1 - tau*l2)^2 E_k for a static
    coupling, with l1/l2 the largest/smallest singular values of its
    Laplacian: from `brackets`, one per slice (a 2-D run is one slice),
    when the caller has them, else from an SVD of each dense coupling.
    A stacked run is checked slice by slice: each violation names its
    slice, and the report's bracket and ratio range are lists over the
    slices."""
    stacked = traj.start.ndim > 2
    if stacked and traj.spec.is_attention:
        raise DimensionError("the bound audit takes a stack of static runs only, not "
                             f"an attention run of shape {traj.start.shape}")
    if traj.spec.is_attention or traj.config.use_source:
        raise ContractError("bound audit applies to plain static-coupling runs")
    if brackets is None:
        dense = traj.coupling.dense()
        brackets = [laplacian_spectral_bracket(s)
                    for s in dense.reshape((-1,) + dense.shape[-2:])]
    taus = np.broadcast_to(traj.config.tau, traj.start.shape[:-2]).ravel().tolist()
    if len(brackets) != len(taus):
        raise DimensionError(f"{len(brackets)} brackets for {len(taus)} slices")
    for b, (tau, bracket) in enumerate(zip(taus, brackets)):
        # a zero Laplacian leaves every state put, so no tau is too large
        if bracket.lambda_max > 0.0 and tau > 1.0 / bracket.lambda_max + 1e-12:
            raise ContractError(f"{f'slice {b}: ' if stacked else ''}tau={tau} exceeds "
                                f"1/lambda_max={1.0 / bracket.lambda_max}")
    energies = _energies(traj)
    series = np.reshape(energies, (len(energies), -1)).T.tolist()
    violations, lows, highs = [], [], []
    for b, (tau, bracket, e) in enumerate(zip(taus, brackets, series)):
        lo = (1.0 - tau * bracket.lambda_max) ** 2
        hi = (1.0 - tau * bracket.lambda_min) ** 2
        pairs = list(zip(e, e[1:]))
        for k, (e_prev, e_next) in enumerate(pairs, 1):
            slack = BOUND_REL_SLACK * max(e_prev, 1e-300)
            if not lo * e_prev - slack <= e_next <= hi * e_prev + slack:
                violations.append({
                    **({"slice": b} if stacked else {}),
                    "step": k,
                    "ratio": e_next / e_prev if e_prev > 0 else float("inf"),
                    "bracket": [lo, hi],
                })
        ratios = [e_next / e_prev for e_prev, e_next in pairs if e_prev > 0]
        lows.append(min(ratios) if ratios else None)
        highs.append(max(ratios) if ratios else None)
    bracket = [(br.lambda_max, br.lambda_min) for br in brackets]
    if not stacked:
        bracket, lows, highs = bracket[0], lows[0], highs[0]
    return EnergyReport(energies=energies, violations=violations, bracket=bracket,
                        min_ratio=lows, max_ratio=highs)


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Trajectory CSV: step, energy (at lam = tau), diversity, min_row_sum,
    max_row_sum.

    The row sums are each step's record of S 1 for the coupling its state
    diffuses with. The text is built first and written once, so a run that
    fails part way leaves no partial file.
    """
    _check_one_state(traj.start, "the trajectory CSV")
    lines = ["step,energy,diversity,min_row_sum,max_row_sum\n"]
    for step in traj:
        lines.append(f"{step.k},{_trajectory_energy(traj, step):.17g},"
                     f"{diversity(step.z):.17g},{step.row_sums.min():.17g},"
                     f"{step.row_sums.max():.17g}\n")
    atomic_write_text(path, "".join(lines))
