import numpy as np
import pytest

from dense_oracles import (DenseCoupling, coupled_step, kept_steps, normalized_adjacency,
                           rebuilt_row_sums)
from endiff.coupling import (PENALTY_KINDS, STATIC_FAMILIES, CouplingSpec, MeanCoupling,
                             DenseAttention, PenaltyFamily, SimpleAttention)
from endiff.diffusion import (DiffusionConfig, euler_step, linear_simple_propagate,
                              run_trajectory)
from endiff.energy import audit_descent, write_trajectory_csv
from endiff.errors import ContractError, DimensionError, ParameterError
from endiff.graphs import EdgeOperator, NeighbourLayout, er_graph
from endiff.numerics import laplacian, row_l2_normalize


def test_euler_step_matches_laplacian_form():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((6, 3))
    s = np.abs(rng.standard_normal((6, 6)))
    tau = 0.3
    expected = z - tau * laplacian(s) @ z
    assert np.allclose(coupled_step(z, DenseCoupling(s), tau), expected, atol=1e-12)
    # on the centred rows, as a static run steps: (diag(S 1) - S) 1 = 0
    y = z - z.mean(axis=0)
    got = euler_step(z, y, s @ y, s.sum(axis=1), tau)
    assert np.allclose(got, expected, atol=1e-12)


def test_euler_step_identity_coupling_fixed_point():
    # S = I: the Laplacian vanishes, nothing moves
    z = np.random.default_rng(2).standard_normal((4, 3))
    assert np.allclose(coupled_step(z, DenseCoupling(np.eye(4)), 0.7), z)


def test_euler_step_preserves_column_means_for_symmetric_coupling():
    # symmetric S: the update is mean-preserving per feature column
    rng = np.random.default_rng(3)
    z = rng.standard_normal((8, 4))
    s = np.abs(rng.standard_normal((8, 8)))
    s = 0.5 * (s + s.T)
    out = coupled_step(z, DenseCoupling(s), 0.25)
    assert np.allclose(out.mean(axis=0), z.mean(axis=0), atol=1e-12)


def _euler_case(name):
    z = row_l2_normalize(np.random.default_rng(3).standard_normal((2, 12, 3)))
    tau = np.array([0.1, 0.5])[:, None, None]
    if name == "simple_attention":
        return z, SimpleAttention(z), tau
    if name == "mean":
        return z, MeanCoupling(12, (2,)), tau
    return z[0], er_graph(12, 0.3, 1).sym_operator, 0.25  # row sums not all 1


@pytest.mark.parametrize("name", ["simple_attention", "mean", "gcn_sym"])
def test_euler_step_is_the_row_sum_form_bit_for_bit(name):
    # the product by row sums of exactly 1 is skipped; it changed no bit
    z, s, tau = _euler_case(name)
    want = z - tau * (s.row_sums()[..., None] * z - s.apply(z))
    assert euler_step(z, z, s.apply(z), s.row_sums(), tau).tobytes() == want.tobytes()


def test_euler_step_shape_errors():
    z = np.ones((3, 2))
    with pytest.raises(DimensionError):
        euler_step(z, z, np.ones((4, 2)), np.ones(3), 0.5)
    with pytest.raises(DimensionError):
        euler_step(z, np.ones((3, 3)), np.ones((3, 3)), np.ones(3), 0.5)
    with pytest.raises(DimensionError):
        euler_step(z, z, z, np.ones(4), 0.5)
    with pytest.raises(DimensionError):
        coupled_step(z, DenseCoupling(np.ones((4, 4))), 0.5)


def test_linear_simple_propagate_matches_dense():
    # O(N) accumulator form against the materialized coupling
    for seed in range(5):
        rng = np.random.default_rng(seed)
        z = row_l2_normalize(rng.standard_normal((40, 8)))
        linear = linear_simple_propagate(z)
        dense = DenseAttention(PenaltyFamily("simple"), z, z).dense() @ z
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
    for value in (2.5, True, "3", None):
        with pytest.raises(ParameterError, match=f"steps must be an integer, got {value!r}"):
            DiffusionConfig(steps=value)
    assert DiffusionConfig(steps=np.int64(3)).steps == 3


def test_run_trajectory_static_records_every_step():
    rng = np.random.default_rng(6)
    g = er_graph(8, 0.4, 1)
    z0 = rng.standard_normal((8, 3))
    traj = run_trajectory(z0, CouplingSpec("gcn_sym"), DiffusionConfig(steps=5), g)
    steps = kept_steps(traj)
    assert [step.k for step in steps] == list(range(6))
    s = normalized_adjacency(g, "sym")
    manual = z0.copy()
    for before, step in zip(steps, steps[1:]):
        assert step.prev is before.z
        manual = coupled_step(manual, DenseCoupling(s), 0.5)
        assert np.allclose(step.z, manual, atol=1e-12)


@pytest.mark.parametrize("family", ["gcn_sym", "gin", "identity"])
def test_run_trajectory_rejects_a_start_off_its_graph_at_the_call(family):
    # one graph on 4 nodes, a start of 5 rows: the call raises, before any step
    with pytest.raises(DimensionError, match="on 4 nodes needs 4 rows"):
        run_trajectory(np.ones((5, 2)), CouplingSpec(family), DiffusionConfig(),
                       er_graph(4, 0.9, 0))


def test_run_trajectory_attention_normalizes_state_per_step():
    rng = np.random.default_rng(8)
    z0 = rng.standard_normal((10, 4))
    spec = CouplingSpec("attention", PenaltyFamily("simple"))
    traj = run_trajectory(z0, spec, DiffusionConfig(tau=0.25, steps=3))
    steps = kept_steps(traj)
    # step 0 is the normalized start
    assert np.allclose(np.linalg.norm(steps[0].z, axis=1), 1.0)
    assert steps[0].prev is None
    # each later state is one euler step from the re-normalized previous
    for before, step in zip(steps, steps[1:]):
        assert step.prev is before.z
        state = row_l2_normalize(before.z)
        s = DenseAttention(spec.penalty, state, state).dense()
        assert np.allclose(step.z, coupled_step(state, DenseCoupling(s), 0.25), atol=1e-12)


def test_run_trajectory_source_defaults_to_initial_state():
    rng = np.random.default_rng(9)
    z0 = rng.standard_normal((6, 3))
    g = er_graph(6, 0.5, 2)
    traj = run_trajectory(z0, CouplingSpec("gcn_sym"),
                          DiffusionConfig(steps=2, use_source=True), g)
    assert np.array_equal(traj.start, z0)
    s = normalized_adjacency(g, "sym")
    step1 = coupled_step(z0, DenseCoupling(s), 0.5) + 0.5 * z0
    assert np.allclose(kept_steps(traj)[1].z, step1, atol=1e-12)


def _every_family() -> list:
    """(spec, graph) for each static family, gat_masked and attention under
    each penalty."""
    g = er_graph(12, 0.4, 3)
    return ([pytest.param(CouplingSpec(f), g, id=f) for f in STATIC_FAMILIES]
            + [pytest.param(CouplingSpec("gat_masked", PenaltyFamily("advanced")), g,
                            id="gat_masked")]
            + [pytest.param(CouplingSpec("attention", PenaltyFamily(k)), None,
                            id=f"attention-{k}") for k in PENALTY_KINDS])


@pytest.mark.parametrize("spec, g", _every_family())
def test_a_run_records_the_row_sums_it_stepped_with(spec, g, coupling_builds, tmp_path):
    # attention builds one coupling at the call and one per step, the last
    # only for its row sums; a static family builds its one coupling
    z0 = np.random.default_rng(13).standard_normal((12, 3))
    traj = run_trajectory(z0, spec, DiffusionConfig(tau=0.1, steps=4), g)
    write_trajectory_csv(traj, tmp_path / "traj.csv")
    assert coupling_builds == [spec.family] * (5 if spec.is_attention else 1)
    steps = kept_steps(traj)
    assert len(steps) == 5
    for step, want in zip(steps, rebuilt_row_sums(traj, g)):
        assert np.array_equal(step.row_sums, want)


@pytest.mark.parametrize("spec, g", _every_family())
def test_a_trajectory_iterated_twice_yields_the_same_steps(spec, g):
    z0 = np.random.default_rng(14).standard_normal((12, 3))
    traj = run_trajectory(z0, spec, DiffusionConfig(tau=0.1, steps=4, use_source=True), g)
    first, second = kept_steps(traj), kept_steps(traj)
    assert len(first) == len(second) == 5
    for a, b in zip(first, second):
        assert a.k == b.k
        assert np.array_equal(a.z, b.z)
        assert (a.prev is None) == (b.prev is None)
        assert a.prev is None or np.array_equal(a.prev, b.prev)
        assert np.array_equal(a.row_sums, b.row_sums)


def test_a_static_run_builds_each_scatter_index_once(tmp_path, monkeypatch):
    # a K-step static run whose energies are read applies its operator
    # K + 1 times, all at d columns: each state's step and energy share one
    # pass, and the last state's energy makes one more. Unread, the run
    # makes K. Each run builds one flat scatter index, a stack of graphs on
    # its stacked layout; a gat_masked run applies each step's coupling once
    applied, built = [], []  # built keeps every index alive: a rebuilt one is new
    apply, short_index = EdgeOperator.apply, NeighbourLayout.short_index

    def counted(self, v):
        applied.append((self.layout.batch, v.shape[-1]))
        return apply(self, v)

    def record(self, d):
        built.append((self.batch, short_index(self, d)))
        return built[-1][1]

    monkeypatch.setattr(EdgeOperator, "apply", counted)
    monkeypatch.setattr(NeighbourLayout, "short_index", record)
    g = er_graph(300, 0.05, 0)
    z0 = np.random.default_rng(0).standard_normal((300, 16))
    traj = run_trajectory(z0, CouplingSpec("gcn_sym"), DiffusionConfig(steps=20), g)
    write_trajectory_csv(traj, tmp_path / "traj.csv")
    graphs = [er_graph(80, 0.1, seed) for seed in range(3)]
    z0 = np.random.default_rng(1).standard_normal((3, 80, 16))
    traj = run_trajectory(z0, CouplingSpec("gcn_sym"), DiffusionConfig(steps=20), graphs)
    audit_descent(traj)
    for batch in ((), (3,)):
        assert [d for b, d in applied if b == batch] == [16] * 21
        assert len({id(index) for b, index in built if b == batch}) == 1
    applied.clear()
    assert len(kept_steps(traj)) == 21 and applied == [((3,), 16)] * 20
    applied.clear()
    masked = CouplingSpec("gat_masked", PenaltyFamily("simple"))
    z0 = row_l2_normalize(np.random.default_rng(2).standard_normal((300, 16)))
    write_trajectory_csv(run_trajectory(z0, masked, DiffusionConfig(tau=0.1, steps=20), g),
                         tmp_path / "masked.csv")
    assert applied == [((), 16)] * 20


def test_row_stochastic_update_is_convex_combination():
    # maximum principle: each output entry stays inside the input range
    rng = np.random.default_rng(11)
    z = row_l2_normalize(rng.standard_normal((15, 4)))
    spec = CouplingSpec("attention", PenaltyFamily("simple"))
    s = DenseAttention(spec.penalty, z, z).dense()
    out = coupled_step(z, DenseCoupling(s), 0.5)
    for j in range(z.shape[1]):
        assert out[:, j].max() <= z[:, j].max() + 1e-12
        assert out[:, j].min() >= z[:, j].min() - 1e-12
