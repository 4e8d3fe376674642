import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import endiff.energy as energy
from dense_oracles import (SPARSE_CASES, normalized_adjacency, pair_sum_loop,
                           quadratic_energy_loop, sparse_case)
from endiff.coupling import (CouplingSpec, DenseCoupling, PenaltyFamily,
                             coupling_operator, penalty_delta,
                             penalty_delta_array)
from endiff.diffusion import DiffusionConfig, run_trajectory
from endiff.energy import (_pairwise_sq_dists, audit_bounds, audit_descent,
                           diversity, graph_regularized_energy, inferred_omega,
                           quadratic_energy, regularized_energy, source_energy,
                           surrogate_energy, write_trajectory_csv)
from endiff.errors import ContractError, DimensionError, DomainError, ParameterError
from endiff.graphs import EdgeOperator, Graph, er_graph
from endiff.numerics import row_l2_normalize


def test_quadratic_energy_matches_double_loop():
    # trace identity against the explicit pairwise sum
    rng = np.random.default_rng(0)
    z = rng.standard_normal((7, 3))
    zp = rng.standard_normal((7, 3))
    s = np.abs(rng.standard_normal((7, 7)))
    fast = quadratic_energy(z, zp, DenseCoupling(s), 0.7)
    slow = quadratic_energy_loop(z, zp, s, 0.7)
    assert fast == pytest.approx(slow, rel=1e-12)


def test_quadratic_energy_zero_at_rest_with_identity_coupling():
    z = np.random.default_rng(1).standard_normal((4, 2))
    assert quadratic_energy(z, z, DenseCoupling(np.eye(4)), 1.0) == pytest.approx(0.0, abs=1e-12)


def test_quadratic_energy_errors():
    z = np.ones((3, 2))
    with pytest.raises(DimensionError):
        quadratic_energy(z, np.ones((4, 2)), DenseCoupling(np.ones((3, 3))), 1.0)
    with pytest.raises(DimensionError):
        quadratic_energy(z, z, DenseCoupling(np.ones((4, 4))), 1.0)
    with pytest.raises(ParameterError):
        quadratic_energy(z, z, DenseCoupling(np.ones((3, 3))), -1.0)


def test_source_energy_shifts_anchor():
    rng = np.random.default_rng(2)
    z = rng.standard_normal((5, 3))
    zp = rng.standard_normal((5, 3))
    h = rng.standard_normal((5, 3))
    s = DenseCoupling(np.abs(rng.standard_normal((5, 5))))
    direct = source_energy(z, zp, s, 0.5, 0.3, h)
    assert direct == pytest.approx(quadratic_energy(z, zp + 0.3 * h, s, 0.5))


def test_regularized_energy_quadratic_family_matches_quadratic_form():
    # delta(u) = u makes the penalty the unweighted pairwise energy
    rng = np.random.default_rng(3)
    z = row_l2_normalize(rng.standard_normal((6, 3)))
    zp = rng.standard_normal((6, 3))
    p = PenaltyFamily("quadratic")
    reg = regularized_energy(z, zp, p, 0.4)
    ones = np.ones((6, 6))
    # sum_ij ||z_i - z_j||^2 = 2 * tr(Z^T (N I - 11^T) Z)
    half = DenseCoupling(0.5 * ones)
    assert reg == pytest.approx(quadratic_energy(z, zp, half, 0.8), rel=1e-10)


def test_surrogate_tight_at_inferred_omega():
    rng = np.random.default_rng(4)
    z = row_l2_normalize(rng.standard_normal((8, 4)))
    zp = rng.standard_normal((8, 4))
    for kind in ("simple", "advanced"):
        p = PenaltyFamily(kind)
        omega = inferred_omega(p, z)
        sur = surrogate_energy(z, zp, omega, p, 0.6)
        reg = regularized_energy(z, zp, p, 0.6)
        assert abs(sur - reg) <= 1e-7


def test_surrogate_upper_bounds_regularized():
    rng = np.random.default_rng(5)
    z = row_l2_normalize(rng.standard_normal((6, 3)))
    zp = rng.standard_normal((6, 3))
    p = PenaltyFamily("simple")
    lo, hi = 0.0, 2.0
    reg = regularized_energy(z, zp, p, 0.6)
    for _ in range(50):
        omega = rng.uniform(lo, hi, size=(6, 6))
        assert surrogate_energy(z, zp, omega, p, 0.6) >= reg - 1e-9


def test_graph_regularized_energy_half_weights():
    rng = np.random.default_rng(6)
    g = er_graph(5, 0.6, 0)
    z = row_l2_normalize(rng.standard_normal((5, 3)))
    zp = rng.standard_normal((5, 3))
    p = PenaltyFamily("simple")
    val = graph_regularized_energy(z, zp, p, g, 0.8)
    # oracle: explicit double loop with lam/2 on both terms
    a = normalized_adjacency(g, "sym")
    expect = float(np.sum((z - zp) ** 2))
    for i in range(5):
        for j in range(5):
            d2 = float(np.sum((z[i] - z[j]) ** 2))
            expect += 0.4 * penalty_delta(p, d2) + 0.4 * a[i, j] * d2
    assert val == pytest.approx(expect, rel=1e-10)


def test_diversity_hand_value():
    z = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    # pairs: 1 + 4 + 5
    assert diversity(z) == pytest.approx(10.0)
    assert diversity(np.ones((5, 3))) == pytest.approx(0.0, abs=1e-12)


def _static_traj(seed=0, steps=6, tau=0.4):
    g = er_graph(10, 0.4, seed)
    z0 = np.random.default_rng(seed).standard_normal((10, 3))
    return run_trajectory(z0, CouplingSpec("gcn_sym"),
                          DiffusionConfig(tau=tau, steps=steps), g)


def test_audit_descent_static_passes():
    rep = audit_descent(_static_traj())
    assert rep.num_violations == 0
    assert all(rep.descent_ok)
    assert len(rep.energies) == 6
    assert rep.lam == rep.tau == 0.4


def test_audit_descent_flags_fabricated_violation():
    traj = _static_traj()
    # corrupt a middle snapshot so the energy must jump
    traj.snapshots[3] = (3, traj.snapshots[3][1] + 50.0)
    rep = audit_descent(traj)
    assert rep.num_violations >= 1
    assert rep.violations[0]["excess"] > 0


def test_audit_descent_requires_dense_recording():
    g = er_graph(8, 0.4, 1)
    z0 = np.random.default_rng(1).standard_normal((8, 3))
    traj = run_trajectory(z0, CouplingSpec("gcn_sym"),
                          DiffusionConfig(steps=6, record_every=2), g)
    with pytest.raises(ContractError):
        audit_descent(traj)


def test_audit_descent_attention():
    rng = np.random.default_rng(2)
    z0 = row_l2_normalize(rng.standard_normal((12, 5)))
    spec = CouplingSpec("attention", PenaltyFamily("simple"))
    traj = run_trajectory(z0, spec, DiffusionConfig(tau=0.25, steps=8))
    rep = audit_descent(traj, slack=1e-8)
    assert rep.num_violations == 0
    assert rep.diversity_series[0] > 0


def test_audit_bounds_bracket_holds():
    from endiff.numerics import laplacian_spectral_bracket

    g = er_graph(10, 0.4, 3)
    s = normalized_adjacency(g, "sym")
    bracket = laplacian_spectral_bracket(s)
    tau = 0.9 / bracket.lambda_max
    z0 = np.random.default_rng(3).standard_normal((10, 3))
    traj = run_trajectory(z0, CouplingSpec("gcn_sym"),
                          DiffusionConfig(tau=tau, steps=10), g)
    rep = audit_bounds(traj)
    assert rep.num_violations == 0
    lo = (1 - tau * bracket.lambda_max) ** 2
    hi = (1 - tau * bracket.lambda_min) ** 2
    assert rep.min_ratio >= lo - 1e-8
    assert rep.max_ratio <= hi + 1e-8


def test_audit_bounds_rejects_excessive_tau():
    traj = _static_traj(tau=1.0)
    with pytest.raises(ContractError):
        audit_bounds(traj)


def test_audit_bounds_rejects_attention_runs():
    rng = np.random.default_rng(4)
    z0 = row_l2_normalize(rng.standard_normal((8, 3)))
    spec = CouplingSpec("attention", PenaltyFamily("simple"))
    traj = run_trajectory(z0, spec, DiffusionConfig(tau=0.25, steps=3))
    with pytest.raises(ContractError):
        audit_bounds(traj)


def test_energy_report_json_round_trips():
    rep = audit_descent(_static_traj())
    payload = json.loads(rep.to_json())
    assert payload["lam"] == pytest.approx(0.4)
    assert payload["violations"] == []
    assert len(payload["energies"]) == len(rep.energies)


def test_write_trajectory_csv(tmp_path):
    traj = _static_traj(steps=4)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,energy,diversity,min_row_sum,max_row_sum"
    assert len(lines) == 6  # header + snapshots 0..4
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "nan"


SIMPLE_P = PenaltyFamily("simple")


def _close(fast: float, slow: float, z: np.ndarray) -> bool:
    """Agreement to 1e-12 relative; the pairwise oracle's own rounding,
    about 1e-16 * N * sum |z_i|^2, bounds it where rows nearly coincide."""
    return fast == pytest.approx(slow, rel=1e-12,
                                 abs=1e-12 * z.shape[0] * float(np.sum(z * z)))


@st.composite
def _ball_rows(draw):
    """Rows in the closed unit ball: on the sphere, inside it, at the
    origin, and repeated (collapsed)."""
    n = draw(st.integers(1, 10))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.standard_normal((n, d))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    for i in range(n):
        pick = draw(st.sampled_from(("sphere", "inside", "origin", "repeat")))
        if pick == "inside":
            z[i] *= draw(st.floats(0.0, 1.0))
        elif pick == "origin":
            z[i] = 0.0
        elif pick == "repeat" and i > 0:
            z[i] = z[draw(st.integers(0, i - 1))]
    z_prev = rng.standard_normal((n, d))
    return z, z_prev, draw(st.floats(0.0, 1.0))


def _pairwise_penalty(z):
    return float(np.sum(penalty_delta_array(SIMPLE_P, _pairwise_sq_dists(z))))


def _refuse(*args, **kwargs):
    raise AssertionError("closed form fell back to the pairwise path")


@settings(max_examples=200, deadline=None)
@given(_ball_rows())
@example((np.array([[0.6, 0.8]]), np.zeros((1, 2)), 1.0))  # N = 1
@example((np.tile([[0.0, 1.0]], (4, 1)), np.ones((4, 2)), 0.5))  # collapsed
@example((np.array([[1.0, 0.0], [-1.0, 0.0]]), np.zeros((2, 2)), 1.0))  # u = 4
def test_simple_energies_closed_form_match_pairwise(case):
    z, z_prev, lam = case
    g = er_graph(z.shape[0], 0.4, z.shape[0])
    local = float(np.sum((z - z_prev) ** 2))
    pen = _pairwise_penalty(z)
    edges = float(np.sum(normalized_adjacency(g, "sym") * _pairwise_sq_dists(z)))
    slow = local + lam * pen
    slow_graph = local + 0.5 * lam * pen + 0.5 * lam * edges
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(energy, "_pairwise_sq_dists", _refuse)
        fast = regularized_energy(z, z_prev, SIMPLE_P, lam)
        fast_graph = graph_regularized_energy(z, z_prev, SIMPLE_P, g, lam)
    assert _close(fast, slow, z)
    assert _close(fast_graph, slow_graph, z)


def test_simple_energy_outside_the_unit_ball_uses_the_pairwise_domain():
    # a row norm above 1 with every pair still in [0, 4]: pairwise value
    z = np.array([[1.2, 0.0], [1.0, 0.0], [0.9, 0.3]])
    assert regularized_energy(z, z, SIMPLE_P, 0.7) == pytest.approx(
        0.7 * _pairwise_penalty(z), rel=1e-12)
    # a pair at u = 9 > 4 is outside the penalty's domain
    z = np.array([[1.5, 0.0], [-1.5, 0.0], [0.0, 1.0]])
    with pytest.raises(DomainError):
        regularized_energy(z, z, SIMPLE_P, 0.7)
    with pytest.raises(DomainError):
        graph_regularized_energy(z, z, SIMPLE_P, er_graph(3, 0.5, 0), 0.7)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(1, 4), st.integers(0, 2**32 - 1),
       st.sampled_from((1e-6, 1.0, 1e3)), st.booleans())
def test_diversity_matches_pairwise_and_is_never_negative(n, d, seed, scale, collapse):
    rng = np.random.default_rng(seed)
    z = scale * rng.standard_normal((n, d))
    if collapse:  # every row the same point, away from the origin
        z[:] = z[0]
    fast = diversity(z)
    assert fast >= 0.0
    assert _close(fast, 0.5 * float(_pairwise_sq_dists(z).sum()), z)


def test_failed_trajectory_csv_leaves_no_file(tmp_path):
    # the source pushes rows out of the unit ball and pairs past u = 4
    z0 = row_l2_normalize(np.random.default_rng(0).standard_normal((12, 3)))
    spec = CouplingSpec("attention", PenaltyFamily("simple"))
    traj = run_trajectory(z0, spec, DiffusionConfig(tau=0.5, steps=6, beta=1.0))
    with pytest.raises(DomainError):
        write_trajectory_csv(traj, tmp_path / "traj.csv")
    assert list(tmp_path.iterdir()) == []


@st.composite
def _coupled_case(draw):
    """A coupling on a random graph (N = 1, no edges and isolated nodes
    included) with its dense oracle, rows Z in the unit ball, Z_prev, H."""
    n = draw(st.integers(1, 10))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    g = Graph.from_edge_list(n, draw(st.lists(pairs, max_size=3 * n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 4))
    unit = row_l2_normalize(rng.standard_normal((n, d)))
    name = draw(st.sampled_from(SPARSE_CASES + ("asymmetric", "dense_asymmetric")))
    if name == "asymmetric":  # an edge operator with one-sided weights
        lay = g.neighbours
        op = EdgeOperator(lay, rng.uniform(0.0, 2.0, len(lay.rows)),
                          rng.uniform(0.0, 2.0, n))
        want = np.zeros((n, n))
        want[lay.rows, lay.cols] = op.weights
        want += np.diag(op.diagonal)
    elif name == "dense_asymmetric":
        want = rng.uniform(0.0, 2.0, (n, n))
        op = DenseCoupling(want)
    else:
        op, want = sparse_case(name, g, unit)
    z = unit * rng.uniform(0.0, 1.0, (n, 1))
    return g, op, want, z, rng.standard_normal((n, d)), rng.standard_normal((n, d))


def _pair_terms(z, s):
    """sum_ij |s_ij| (|z_i|^2 + |z_j|^2): the size of the terms that cancel
    in a pairwise sum, which bounds its rounding."""
    b = np.sum((z - z.mean(axis=0)) ** 2, axis=1)
    return float(np.sum(np.abs(s) * (b[:, None] + b[None, :])))


def _fixed_case(name, n, edges):
    g = Graph.from_edge_list(n, edges)
    rng = np.random.default_rng(n)
    z = 0.9 * row_l2_normalize(rng.standard_normal((n, 3)))
    op, want = sparse_case(name, g, z / 0.9)
    return g, op, want, z, rng.standard_normal((n, 3)), rng.standard_normal((n, 3))


@settings(max_examples=300, deadline=None)
@given(_coupled_case(), st.floats(0.0, 2.0), st.floats(0.0, 1.5))
@example(_fixed_case("gin", 1, []), 0.7, 0.3)  # N = 1
@example(_fixed_case("gat_simple", 4, []), 0.7, 0.3)  # no edges
@example(_fixed_case("gcn_sym", 6, [(0, 1), (1, 2)]), 0.7, 0.3)  # isolated nodes
def test_coupled_energies_match_the_pairwise_loop(case, lam, eta):
    g, op, s, z, z_prev, h = case
    with pytest.MonkeyPatch.context() as mp:  # the fast forms stay sparse
        mp.setattr(type(op), "dense", _refuse)
        fast = quadratic_energy(z, z_prev, op, lam)
        fast_source = source_energy(z, z_prev, op, lam, eta, h)
    floor = 1e-12 * lam * _pair_terms(z, s)
    assert fast == pytest.approx(quadratic_energy_loop(z, z_prev, s, lam),
                                 rel=1e-12, abs=floor)
    assert fast_source == pytest.approx(
        quadratic_energy_loop(z, z_prev + eta * h, s, lam), rel=1e-12, abs=floor)

    a = normalized_adjacency(g, "sym")
    slow = (float(np.sum((z - z_prev) ** 2)) + 0.5 * lam * _pairwise_penalty(z)
            + 0.5 * lam * pair_sum_loop(z, a))
    assert graph_regularized_energy(z, z_prev, SIMPLE_P, g, lam) == pytest.approx(
        slow, rel=1e-12, abs=floor + 1e-12 * lam * _pair_terms(z, a)
        + 1e-12 * z.shape[0] * float(np.sum(z * z)))


def test_quadratic_energy_is_exact_on_a_diagonal_coupling():
    # each diagonal entry's terms cancel row by row: S = I gives exactly 0
    z = np.random.default_rng(3).standard_normal((6, 4))
    op = coupling_operator(CouplingSpec("identity"), z)
    assert quadratic_energy(z, z, op, 0.7) == 0.0


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="graph-blended attention does not always descend "
                   "graph_regularized_energy")
def test_graph_blended_dynamics_descend_the_graph_regularized_energy():
    # ER(20, 0.3) seed 49 at tau = 0.25: one step raises the energy by ~0.245
    g = er_graph(20, 0.3, 49)
    z0 = row_l2_normalize(np.random.default_rng((49, 2)).standard_normal((20, 8)))
    spec = CouplingSpec("attention", PenaltyFamily("simple"))
    traj = run_trajectory(z0, spec, DiffusionConfig(tau=0.25, steps=10,
                                                    graph_blend=True), g)
    rep = audit_descent(traj, lam=0.25, slack=1e-8)
    assert rep.num_violations == 0, rep.violations
