import numpy as np
import pytest

from dense_oracles import normalized_adjacency
from endiff.coupling import (CouplingSpec, DenseCoupling, PenaltyFamily,
                             SimpleAttention, build_coupling)
from endiff.diffusion import (DiffusionConfig, Trajectory, euler_step,
                              graph_blended_step, linear_simple_propagate,
                              run_trajectory)
from endiff.errors import ContractError, DimensionError, ParameterError
from endiff.graphs import Graph, er_graph
from endiff.numerics import laplacian, row_l2_normalize


def test_euler_step_matches_laplacian_form():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((6, 3))
    s = np.abs(rng.standard_normal((6, 6)))
    tau = 0.3
    expected = z - tau * laplacian(s) @ z
    assert np.allclose(euler_step(z, DenseCoupling(s), tau), expected, atol=1e-12)


def test_euler_step_identity_coupling_fixed_point():
    # S = I: the Laplacian vanishes, nothing moves
    z = np.random.default_rng(2).standard_normal((4, 3))
    assert np.allclose(euler_step(z, DenseCoupling(np.eye(4)), 0.7), z)


def test_euler_step_preserves_column_means_for_symmetric_coupling():
    # symmetric S: the update is mean-preserving per feature column
    rng = np.random.default_rng(3)
    z = rng.standard_normal((8, 4))
    s = np.abs(rng.standard_normal((8, 8)))
    s = 0.5 * (s + s.T)
    out = euler_step(z, DenseCoupling(s), 0.25)
    assert np.allclose(out.mean(axis=0), z.mean(axis=0), atol=1e-12)


def test_euler_step_shape_errors():
    with pytest.raises(DimensionError):
        euler_step(np.ones((3, 2)), DenseCoupling(np.ones((4, 4))), 0.5)
    with pytest.raises(DimensionError):
        euler_step(np.ones((3, 2)), DenseCoupling(np.ones((3, 4))), 0.5)


def test_graph_blended_step_halves_tau_on_sum():
    rng = np.random.default_rng(5)
    g = er_graph(6, 0.5, 0)
    z = rng.standard_normal((6, 3))
    s_attn = np.abs(rng.standard_normal((6, 6)))
    blended = s_attn + normalized_adjacency(g, "sym")
    assert np.allclose(graph_blended_step(z, DenseCoupling(s_attn), g, 0.6),
                       euler_step(z, DenseCoupling(blended), 0.3))


def test_linear_simple_propagate_matches_dense():
    # O(N) accumulator form against the materialized coupling
    for seed in range(5):
        rng = np.random.default_rng(seed)
        z = row_l2_normalize(rng.standard_normal((40, 8)))
        linear = linear_simple_propagate(z)
        dense = SimpleAttention(z).dense() @ z
        assert np.max(np.abs(linear - dense)) <= 1e-10


def test_linear_simple_propagate_requires_unit_rows():
    with pytest.raises(ContractError):
        linear_simple_propagate(np.ones((4, 3)))


def test_diffusion_config_validation():
    with pytest.raises(ParameterError):
        DiffusionConfig(tau=0.0)
    with pytest.raises(ParameterError):
        DiffusionConfig(tau=1.5)
    with pytest.raises(ParameterError):
        DiffusionConfig(steps=0)
    with pytest.raises(ParameterError):
        DiffusionConfig(beta=-1.0)


def test_trajectory_snapshot_contract():
    cfg = DiffusionConfig()
    spec = CouplingSpec("identity")
    with pytest.raises(ContractError):
        Trajectory(snapshots=[(1, np.ones((2, 2)))], config=cfg, spec=spec)
    with pytest.raises(ContractError):
        Trajectory(snapshots=[(0, np.ones((2, 2))), (0, np.ones((2, 2)))],
                   config=cfg, spec=spec)


def test_run_trajectory_static_records_every_step():
    rng = np.random.default_rng(6)
    g = er_graph(8, 0.4, 1)
    z0 = rng.standard_normal((8, 3))
    traj = run_trajectory(z0, CouplingSpec("gcn_sym"), DiffusionConfig(steps=5), g)
    assert traj.steps == [0, 1, 2, 3, 4, 5]
    s = normalized_adjacency(g, "sym")
    manual = z0.copy()
    for k in range(5):
        manual = euler_step(manual, DenseCoupling(s), 0.5)
        assert np.allclose(traj.matrices[k + 1], manual, atol=1e-12)


def test_run_trajectory_record_every():
    rng = np.random.default_rng(7)
    z0 = rng.standard_normal((6, 2))
    traj = run_trajectory(z0, CouplingSpec("identity"),
                          DiffusionConfig(steps=7, record_every=3))
    assert traj.steps == [0, 3, 6, 7]


def test_run_trajectory_attention_normalizes_state_per_step():
    rng = np.random.default_rng(8)
    z0 = rng.standard_normal((10, 4))
    spec = CouplingSpec("attention", PenaltyFamily("simple"))
    traj = run_trajectory(z0, spec, DiffusionConfig(tau=0.25, steps=3))
    # step 0 snapshot is the normalized start
    assert np.allclose(np.linalg.norm(traj.matrices[0], axis=1), 1.0)
    # each later snapshot is one euler step from the re-normalized previous
    for k in range(3):
        state = row_l2_normalize(traj.matrices[k])
        s = build_coupling(spec, state)
        assert np.allclose(traj.matrices[k + 1], euler_step(state, DenseCoupling(s), 0.25),
                           atol=1e-12)


def test_run_trajectory_source_defaults_to_initial_state():
    rng = np.random.default_rng(9)
    z0 = rng.standard_normal((6, 3))
    g = er_graph(6, 0.5, 2)
    traj = run_trajectory(z0, CouplingSpec("gcn_sym"),
                          DiffusionConfig(steps=2, beta=1.0), g)
    assert np.allclose(traj.source, z0)
    s = normalized_adjacency(g, "sym")
    step1 = euler_step(z0, DenseCoupling(s), 0.5) + 0.5 * z0
    assert np.allclose(traj.matrices[1], step1, atol=1e-12)


def test_run_trajectory_graph_blend_requires_graph():
    z0 = row_l2_normalize(np.random.default_rng(10).standard_normal((5, 3)))
    spec = CouplingSpec("attention", PenaltyFamily("simple"))
    with pytest.raises(ParameterError):
        run_trajectory(z0, spec, DiffusionConfig(steps=1, graph_blend=True))


def test_row_stochastic_update_is_convex_combination():
    # maximum principle: each output entry stays inside the input range
    rng = np.random.default_rng(11)
    z = row_l2_normalize(rng.standard_normal((15, 4)))
    spec = CouplingSpec("attention", PenaltyFamily("simple"))
    s = build_coupling(spec, z)
    out = euler_step(z, DenseCoupling(s), 0.5)
    for j in range(z.shape[1]):
        assert out[:, j].max() <= z[:, j].max() + 1e-12
        assert out[:, j].min() >= z[:, j].min() - 1e-12
