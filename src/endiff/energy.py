"""The energy each coupling family's run descends, the descent and
ratio-bracket audits, and the trajectory CSV.

Each coupling family has one energy E(Z^(k), k-1) = ||Z^(k) - A||_F^2 +
lam * P(Z^(k)): the anchor A is Z^(k-1), plus tau Z^(0) with the source,
and P the family's pair sum, which `_energy_of` chooses once per
trajectory. A trajectory's energies fix lam = tau: the paper fixes the
gradient step at one, so every audited statement (Thm 1, Prop 1, Thm 2)
holds at lam = tau. Each audit and the CSV make one pass over the run's
steps, reading each step's energy from its record (`diffusion.Step`); the
audits differ only in the test applied to consecutive energies
(`descent_violations` is the descent test alone). Thm 2's surrogate
energy and the concave conjugate behind it belong to the proof, not to a
run: no command computes them, and tests/dense_oracles.py holds them.

Pairwise sums follow the all-ordered-pairs convention (i and j both range
over all nodes, diagonal included), which matches the row-normalization
denominators of the attention couplings. Pairwise distances do not change
when every row is shifted by the same vector, so the closed forms read the
record's centred rows Y = Z - mean(Z): a static family's coupled sum reads
the S Y its Euler step made and adds O(N d), and diversity costs O(N d).

The energies, `diversity` and both audits take stacked runs: states
(..., N, d) reduce slice by slice to one value per slice, each bit for bit
that of the slice alone, and a 2-D state gives a float. The unit-ball gate
of the closed forms is decided per slice. `audit_bounds` takes a stacked
static run on a sequence of graphs, not a stacked attention run. The CSV
takes one N x d trajectory and rejects a stack with a `DimensionError`.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import partial

import numpy as np

from .coupling import PENALTIES, MeanCoupling, PenaltyFamily, penalty_delta
from .diffusion import Step, Trajectory
from .errors import ContractError, DimensionError
from .graphs import atomic_write_text
from .numerics import as_stack, row_dots

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


def _slice_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_ij a_ij b_ij of each pair of slices (..., N, d): one BLAS dot per
    slice, bit for bit as alone (einsum's is not past 8192 entries)."""
    lead = a.shape[:-2]
    return (a.reshape(lead + (1, -1)) @ b.reshape(lead + (-1, 1)))[..., 0, 0]


def _per_slice(x: np.ndarray):
    """A float for a 2-D state's value, the array of values for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def _energy(step: Step, anchor: np.ndarray, lam, pair_sum: Callable[[Step], np.ndarray]):
    """||Z - anchor||_F^2 + lam * pair_sum(step), a float or one per slice."""
    diff = step.z - anchor
    return _per_slice(_slice_dot(diff, diff) + lam * pair_sum(step))


def _coupled_pair_sum(step: Step) -> np.ndarray:
    """sum_ij s_ij ||z_i - z_j||^2 = 2 sum_i r_i b_i - y_i.(S Y)_i, per slice,
    from the record's centred rows Y, b_i = ||y_i||^2, S Y and r = S 1:
    every static coupling is symmetric, so sum_i (S b)_i = (S^T 1).b = r.b.
    A diagonal entry's terms cancel exactly row by row."""
    return 2.0 * np.sum(step.row_sums * step.b - row_dots(step.y, step.sy), axis=-1)


def _penalty_sum(penalty: PenaltyFamily, step: Step):
    """sum_ij delta(||z_i - z_j||^2) of a step's state, per slice. A family
    with a polynomial delta takes its closed form on a slice whose rows lie
    in the unit ball (up to rounding), and on any slice under the mean
    coupling S = 1/N, whose pair differences (1 - tau)(s_i - s_j), plus
    tau (z0_i - z0_j) with the source, of unit rows s and z0, keep every
    u <= 4. Other slices go pair by pair, rejecting a u > 4."""
    z, poly = step.z, PENALTIES[penalty.kind].poly
    if poly is None:
        return penalty_delta(penalty, _pairwise_sq_dists(z)).sum(axis=(-2, -1))
    closed = (isinstance(step.coupling, MeanCoupling)
              or np.max(row_dots(z, z), axis=-1) <= 1.0 + UNIT_BALL_SLACK)
    if np.all(closed):  # the common case, without copying the closed slices out
        return _closed_penalty_sum(*poly, step.y, step.b, step.sum_b)
    sums = np.empty(z.shape[:-2])
    if closed.any():
        sums[closed] = _closed_penalty_sum(*poly, step.y[closed], step.b[closed],
                                           step.sum_b[closed])
    sums[~closed] = penalty_delta(penalty, _pairwise_sq_dists(z[~closed])).sum(axis=(-2, -1))
    return sums


def _closed_penalty_sum(a: float, c: float, y: np.ndarray, b: np.ndarray, sum_b):
    """sum_ij delta(u_ij) per slice for delta(u) = a u + c u^2 from the
    centred rows Y, b_i = |y_i|^2 and sum b: sum u = 2N sum b and
    sum u^2 = 2N sum b^2 + 2 (sum b)^2 + 4 ||Y^T Y||_F^2."""
    n = y.shape[-2]
    sum_u = 2.0 * n * sum_b
    if not c:  # a linear delta needs no second moment: O(N d)
        return a * sum_u
    gram = np.swapaxes(y, -1, -2) @ y
    b_dot_b = (b[..., None, :] @ b[..., :, None])[..., 0, 0]
    # sum_b * sum_b: a scalar sum_b**2 (a 2-D state) may round apart via pow
    sum_u2 = 2.0 * n * b_dot_b + 2.0 * sum_b * sum_b + 4.0 * _slice_dot(gram, gram)
    return a * sum_u + c * sum_u2


def diversity(z):
    """sum_{i<j} ||z_i - z_j||^2 = N ||Z - mean(Z)||_F^2, the
    embedding-collapse diagnostic, in O(N d): a float, or one value per
    slice of a stack."""
    z = as_stack(z)
    return _per_slice(z.shape[-2] * Step(0, z, None, None).sum_b)


@dataclass
class EnergyReport:
    """What an audit read off a trajectory: the per-step energies
    E(Z^(k), k-1) for k = 1..K at lam = tau (an array over the slices of a
    stacked run), and one dict per step that broke the audited statement
    (per slice and step in a stacked run). The bound audit adds the
    Laplacian's lambda_max it was given and the range of the observed
    energy ratios, None without a positive energy to divide by; a stacked
    run gives a list of them, one per slice."""

    energies: list
    violations: list[dict]
    lambda_max: float | list | None = None
    min_ratio: float | list | None = None
    max_ratio: float | list | None = None

    @property
    def num_violations(self) -> int:
        return len(self.violations)


def _energy_of(traj: Trajectory) -> Callable[[Step], float | np.ndarray]:
    """E(Z^(k), k-1) at lam = tau as a function of step k, NaN at k = 0,
    with its family's pair sum chosen once."""
    cfg, spec = traj.config, traj.spec
    pair_sum = partial(_penalty_sum, spec.penalty) if spec.is_attention else _coupled_pair_sum
    source = cfg.step_size * traj.start if cfg.use_source else None

    def energy(step: Step):
        if step.prev is None:
            return float("nan")
        anchor = step.prev if source is None else step.prev + source
        return _energy(step, anchor, cfg.tau, pair_sum)

    return energy


def _energies(traj: Trajectory) -> list:
    """E(Z^(k), k-1) for k = 1..K, from one pass over the run's steps."""
    energy = _energy_of(traj)
    return [energy(step) for step in traj][1:]


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


def audit_bounds(traj: Trajectory, lambda_max: float | Sequence[float]) -> EnergyReport:
    """Check the per-step energy bracket
    (1 - tau*l1)^2 E_k <= E_{k+1} <= E_k for a static coupling, with l1
    the largest singular value of its Laplacian: `lambda_max`, one per
    slice from the caller (a float for a 2-D run, which is one slice). The
    upper factor (1 - tau*l2)^2 is 1, as the smallest singular value l2 is
    0: L 1 = S 1 - S 1 = 0. A stacked run is checked slice by slice: each
    violation names its slice, and the report's lambda_max and ratio range
    are lists over the slices."""
    stacked = traj.start.ndim > 2
    if stacked and traj.spec.is_attention:
        raise DimensionError("the bound audit takes a stack of static runs only, not "
                             f"an attention run of shape {traj.start.shape}")
    if traj.spec.is_attention or traj.config.use_source:
        raise ContractError("bound audit applies to plain static-coupling runs")
    lams = np.ravel(lambda_max).tolist()
    taus = np.broadcast_to(traj.config.tau, traj.start.shape[:-2]).ravel().tolist()
    if len(lams) != len(taus):
        raise DimensionError(f"{len(lams)} lambda_max values for {len(taus)} slices")
    for b, (tau, lam) in enumerate(zip(taus, lams)):
        # a zero Laplacian leaves every state put, so no tau is too large
        if lam > 0.0 and tau > 1.0 / lam + 1e-12:
            raise ContractError(f"{f'slice {b}: ' if stacked else ''}tau={tau} exceeds "
                                f"1/lambda_max={1.0 / lam}")
    energies = _energies(traj)
    series = np.reshape(energies, (len(energies), -1)).T.tolist()
    violations, lows, highs = [], [], []
    for b, (tau, lam, e) in enumerate(zip(taus, lams, series)):
        lo = (1.0 - tau * lam) ** 2
        pairs = list(zip(e, e[1:]))
        for k, (e_prev, e_next) in enumerate(pairs, 1):
            slack = BOUND_REL_SLACK * max(e_prev, 1e-300)
            if not lo * e_prev - slack <= e_next <= e_prev + slack:
                violations.append({
                    **({"slice": b} if stacked else {}),
                    "step": k,
                    "ratio": e_next / e_prev if e_prev > 0 else float("inf"),
                    "bracket": [lo, 1.0],
                })
        ratios = [e_next / e_prev for e_prev, e_next in pairs if e_prev > 0]
        lows.append(min(ratios) if ratios else None)
        highs.append(max(ratios) if ratios else None)
    if not stacked:
        lams, lows, highs = lams[0], lows[0], highs[0]
    return EnergyReport(energies=energies, violations=violations, lambda_max=lams,
                        min_ratio=lows, max_ratio=highs)


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Trajectory CSV: step, energy (at lam = tau), diversity, min_row_sum,
    max_row_sum.

    The row sums are each step's record of S 1 for the coupling its state
    diffuses with. The text is built first and written once, so a run that
    fails part way leaves no partial file.
    """
    if traj.start.ndim != 2:
        raise DimensionError("the trajectory CSV takes one N x d trajectory, not a "
                             f"stack of shape {traj.start.shape}")
    energy, n = _energy_of(traj), traj.start.shape[0]
    lines = ["step,energy,diversity,min_row_sum,max_row_sum\n"]
    for step in traj:  # diversity(step.z), from the centring the energy reads
        lines.append(f"{step.k},{energy(step):.17g},{n * step.sum_b:.17g},"
                     f"{step.row_sums.min():.17g},{step.row_sums.max():.17g}\n")
    atomic_write_text(path, "".join(lines))
