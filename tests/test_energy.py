import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import endiff.diffusion as diffusion
import endiff.energy as energy
from dense_oracles import (STATIC_FAMILY_MODES, dense_of, kept_steps, normalized_adjacency,
                           quadratic_energy_loop, regularized_energy, surrogate_energy)
from endiff.coupling import (PENALTY_KINDS, STATIC_FAMILIES, CouplingSpec, DenseAttention,
                             PenaltyFamily, coupling_operator, penalty_delta)
from endiff.diffusion import DiffusionConfig, euler_step, run_trajectory
from endiff.energy import (_pairwise_sq_dists, audit_bounds, audit_descent,
                           diversity, write_trajectory_csv)
from endiff.errors import ContractError, DimensionError, DomainError
from endiff.graphs import Graph, er_graph
from endiff.numerics import laplacian_lambda_max, row_l2_normalize


def _static_energies(traj, dense) -> list:
    """(energy of step k, its pairwise oracle, the oracle's rounding floor)
    for k = 1..K of a 2-D static run whose coupling is the dense array."""
    cfg, out = traj.config, []
    energy_of = energy._energy_of(traj)
    for step in kept_steps(traj)[1:]:
        anchor = step.prev + cfg.tau * traj.start if cfg.use_source else step.prev
        out.append((energy_of(step), quadratic_energy_loop(step.z, anchor, dense, cfg.tau),
                    1e-12 * cfg.tau * _pair_terms(step.z, dense)))
    return out


def test_quadratic_energy_matches_double_loop():
    # each static family's per-step energy against the explicit pairwise sum
    g = er_graph(9, 0.4, 2)
    z0 = np.random.default_rng(0).standard_normal((9, 3))
    for family, use_source in itertools.product(STATIC_FAMILIES, (False, True)):
        cfg = DiffusionConfig(tau=0.15, steps=4, use_source=use_source)
        traj = run_trajectory(z0, CouplingSpec(family), cfg, g)
        for fast, slow, _ in _static_energies(traj, dense_of(traj.coupling)):
            assert fast == pytest.approx(slow, rel=1e-12)


def test_quadratic_energy_zero_at_rest_with_identity_coupling():
    # a consensus start stays put under every static family: energy 0
    z0 = np.tile(np.random.default_rng(1).standard_normal((1, 2)), (4, 1))
    for family in STATIC_FAMILIES:
        traj = run_trajectory(z0, CouplingSpec(family), DiffusionConfig(tau=0.5, steps=3),
                              er_graph(4, 0.9, 0))
        assert audit_descent(traj).energies == pytest.approx([0.0] * 3, abs=1e-12)


def test_quadratic_energy_errors():
    # the quadratic penalty's energy takes one state shape and its predecessor's
    with pytest.raises(DimensionError):
        regularized_energy(np.ones((3, 2)), np.ones((4, 2)), QUADRATIC_P, 1.0)
    with pytest.raises(DimensionError):
        regularized_energy(np.ones(3), np.ones(3), QUADRATIC_P, 1.0)


def test_regularized_energy_quadratic_family_matches_quadratic_form():
    # delta(u) = u makes the penalty the unweighted pairwise energy
    rng = np.random.default_rng(3)
    z = row_l2_normalize(rng.standard_normal((6, 3)))
    zp = rng.standard_normal((6, 3))
    reg = regularized_energy(z, zp, QUADRATIC_P, 0.4)
    assert reg == pytest.approx(quadratic_energy_loop(z, zp, np.ones((6, 6)), 0.4), rel=1e-12)


def test_surrogate_tight_at_inferred_omega():
    rng = np.random.default_rng(4)
    z = row_l2_normalize(rng.standard_normal((8, 4)))
    zp = rng.standard_normal((8, 4))
    for kind in ("simple", "advanced"):
        p = PenaltyFamily(kind)
        omega = DenseAttention(p, z, z).a
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
    assert len(rep.energies) == 6


def test_audit_descent_flags_fabricated_violation(monkeypatch):
    traj = _static_traj()
    # corrupt the third step's state so the energy must jump
    made = itertools.count(1)

    def corrupted(z, y, sy, row_sums, tau):
        return euler_step(z, y, sy, row_sums, tau) + (50.0 if next(made) == 3 else 0.0)

    monkeypatch.setattr(diffusion, "euler_step", corrupted)
    rep = audit_descent(traj)
    assert rep.num_violations >= 1
    assert rep.violations[0]["excess"] > 0


def _attention_traj():
    z0 = row_l2_normalize(np.random.default_rng(2).standard_normal((12, 5)))
    spec = CouplingSpec("attention", PenaltyFamily("simple"))
    return run_trajectory(z0, spec, DiffusionConfig(tau=0.25, steps=8))


def test_audit_descent_attention():
    rep = audit_descent(_attention_traj(), slack=1e-8)
    assert rep.num_violations == 0


@pytest.mark.parametrize("weight", [2.0, -1.0])
def test_a_planted_family_energy_is_caught(monkeypatch, weight):
    # a static pair term weighted by 2 tau instead of tau misses the
    # pairwise oracle. Descent cannot see it: every term of a static run
    # contracts on its own, whatever its positive weight. One of the wrong
    # sign, for a static or an attention family, breaks descent too
    traj = _static_traj()
    pair_sum, penalty_sum = energy._coupled_pair_sum, energy._penalty_sum
    monkeypatch.setattr(energy, "_coupled_pair_sum", lambda step: weight * pair_sum(step))
    monkeypatch.setattr(energy, "_penalty_sum",
                        lambda p, step: weight * penalty_sum(p, step))
    assert not any(fast == pytest.approx(slow, rel=1e-12)
                   for fast, slow, _ in _static_energies(traj, dense_of(traj.coupling)))
    if weight < 0:
        assert audit_descent(traj).num_violations >= 1
        assert audit_descent(_attention_traj(), slack=1e-8).num_violations >= 1


def test_audit_bounds_bracket_holds():
    g = er_graph(10, 0.4, 3)
    lam = laplacian_lambda_max(normalized_adjacency(g, "sym"))
    tau = 0.9 / lam
    z0 = np.random.default_rng(3).standard_normal((10, 3))
    traj = run_trajectory(z0, CouplingSpec("gcn_sym"),
                          DiffusionConfig(tau=tau, steps=10), g)
    rep = audit_bounds(traj, lam)
    assert rep.num_violations == 0
    assert rep.lambda_max == lam
    assert rep.min_ratio >= (1 - tau * lam) ** 2 - 1e-8
    assert rep.max_ratio <= 1 + 1e-8


def test_audit_bounds_rejects_excessive_tau():
    traj = _static_traj(tau=1.0)
    with pytest.raises(ContractError):
        audit_bounds(traj, laplacian_lambda_max(dense_of(traj.coupling)))


@pytest.mark.parametrize("family, g", [("gcn_sym", Graph(4, ())),
                                        ("identity", er_graph(4, 0.9, 0)),
                                        ("identity", None)])
def test_audit_bounds_passes_a_zero_laplacian_at_any_tau(family, g):
    # lambda_max = 0: no tau is too large, the bracket is [1, 1] and the
    # energy stays put, as does every state
    z0 = np.random.default_rng(5).standard_normal((4, 2))
    traj = run_trajectory(z0, CouplingSpec(family), DiffusionConfig(tau=1.0, steps=4), g)
    rep = audit_bounds(traj, laplacian_lambda_max(dense_of(traj.coupling)))
    assert rep.num_violations == 0
    assert rep.lambda_max == 0.0
    assert rep.energies == [rep.energies[0]] * 4
    assert all(np.array_equal(step.z, z0) for step in traj)


def test_audit_bounds_rejects_attention_runs():
    rng = np.random.default_rng(4)
    z0 = row_l2_normalize(rng.standard_normal((8, 3)))
    spec = CouplingSpec("attention", PenaltyFamily("simple"))
    traj = run_trajectory(z0, spec, DiffusionConfig(tau=0.25, steps=3))
    with pytest.raises(ContractError):
        audit_bounds(traj, 1.0)


def test_write_trajectory_csv(tmp_path):
    traj = _static_traj(steps=4)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,energy,diversity,min_row_sum,max_row_sum"
    assert len(lines) == 6  # header + steps 0..4
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "nan"


def test_write_trajectory_csv_attention_reads_the_run(tmp_path):
    # the energy column is the audit's energies, the row-sum columns the
    # range of the run's recorded row sums
    z0 = row_l2_normalize(np.random.default_rng(5).standard_normal((12, 4)))
    spec = CouplingSpec("attention", PenaltyFamily("advanced"))
    traj = run_trajectory(z0, spec, DiffusionConfig(tau=0.25, steps=5))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    rows = [[float(v) for v in line.split(",")]
            for line in path.read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == list(range(6))
    assert [row[1] for row in rows[1:]] == audit_descent(traj).energies
    assert [row[3:] for row in rows] == [[step.row_sums.min(), step.row_sums.max()]
                                         for step in traj]


SIMPLE_P = PenaltyFamily("simple")
QUADRATIC_P = PenaltyFamily("quadratic")


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


def _pairwise_penalty(z, p=SIMPLE_P):
    return float(np.sum(penalty_delta(p, _pairwise_sq_dists(z))))


def _refuse(*args, **kwargs):
    raise AssertionError("closed form fell back to the pairwise path")


@settings(max_examples=200, deadline=None)
@given(_ball_rows())
@example((np.array([[0.6, 0.8]]), np.zeros((1, 2)), 1.0))  # N = 1
@example((np.tile([[0.0, 1.0]], (4, 1)), np.ones((4, 2)), 0.5))  # collapsed
@example((np.array([[1.0, 0.0], [-1.0, 0.0]]), np.zeros((2, 2)), 1.0))  # u = 4
def test_simple_energies_closed_form_match_pairwise(case):
    z, z_prev, lam = case
    slow = float(np.sum((z - z_prev) ** 2)) + lam * _pairwise_penalty(z)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(energy, "_pairwise_sq_dists", _refuse)
        fast = regularized_energy(z, z_prev, SIMPLE_P, lam)
    assert _close(fast, slow, z)


@settings(max_examples=200, deadline=None)
@given(_ball_rows())
@example((np.array([[0.6, 0.8]]), np.zeros((1, 2)), 1.0))  # N = 1
@example((np.tile([[0.0, 1.0]], (4, 1)), np.ones((4, 2)), 0.5))  # collapsed
@example((np.array([[1.0, 0.0], [-1.0, 0.0]]), np.zeros((2, 2)), 1.0))  # u = 4
def test_quadratic_energy_closed_form_matches_pairwise(case):
    z, z_prev, lam = case
    slow = float(np.sum((z - z_prev) ** 2)) + lam * _pairwise_penalty(z, QUADRATIC_P)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(energy, "_pairwise_sq_dists", _refuse)
        fast = regularized_energy(z, z_prev, QUADRATIC_P, lam)
    assert _close(fast, slow, z)


def test_quadratic_energy_outside_the_unit_ball_goes_pair_by_pair():
    z = np.array([[1.2, 0.0], [1.0, 0.0], [0.9, 0.3]])
    assert regularized_energy(z, z, QUADRATIC_P, 0.7) == 0.7 * _pairwise_penalty(
        z, QUADRATIC_P)
    z = np.array([[1.5, 0.0], [-1.5, 0.0], [0.0, 1.0]])  # u = 9 > 4
    with pytest.raises(DomainError):
        regularized_energy(z, z, QUADRATIC_P, 0.7)


def test_simple_energy_outside_the_unit_ball_uses_the_pairwise_domain():
    # a row norm above 1 with every pair still in [0, 4]: pairwise value
    z = np.array([[1.2, 0.0], [1.0, 0.0], [0.9, 0.3]])
    assert regularized_energy(z, z, SIMPLE_P, 0.7) == pytest.approx(
        0.7 * _pairwise_penalty(z), rel=1e-12)
    # a pair at u = 9 > 4 is outside the penalty's domain
    z = np.array([[1.5, 0.0], [-1.5, 0.0], [0.0, 1.0]])
    with pytest.raises(DomainError):
        regularized_energy(z, z, SIMPLE_P, 0.7)


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
    traj = run_trajectory(z0, spec, DiffusionConfig(tau=0.5, steps=6, use_source=True))
    with pytest.raises(DomainError):
        write_trajectory_csv(traj, tmp_path / "traj.csv")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("consumer", ["csv", "descent"])
def test_a_run_holds_its_current_states_only(consumer, tmp_path, traced_peak):
    # ten times the steps cost no more memory: no consumer keeps the states
    z0 = row_l2_normalize(np.random.default_rng(6).standard_normal((2000, 16)))
    consume = {"csv": lambda traj: write_trajectory_csv(traj, tmp_path / "traj.csv"),
               "descent": audit_descent}[consumer]

    def peak(steps: int) -> int:
        """The peak while a simple-attention run of `steps` from z0 is made
        and handed to consume."""
        return traced_peak(lambda: consume(run_trajectory(
            z0, CouplingSpec("attention", PenaltyFamily("simple")),
            DiffusionConfig(tau=0.25, steps=steps))))[0]

    assert peak(200) <= 1.5 * peak(20)


@st.composite
def _static_case(draw):
    """B random graphs on N nodes (N = 1, no edges and isolated nodes
    included), a static family, its (B, N, d) start, a step size of at most
    1 / (largest row sum), the step count and the source flag."""
    n, b = draw(st.integers(1, 10)), draw(st.integers(1, 3))
    pairs = st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n)
    graphs = [Graph.from_edge_list(n, draw(pairs)) for _ in range(b)]
    family = draw(st.sampled_from(STATIC_FAMILIES))
    z0 = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(
        (b, n, draw(st.integers(1, 4))))
    rmax = max(coupling_operator(CouplingSpec(family), None, g).row_sums().max()
               for g in graphs)
    tau = min(draw(st.floats(0.05, 1.0)) / max(rmax, 1e-300), 1.0)
    return graphs, family, z0, tau, draw(st.integers(1, 4)), draw(st.booleans())


def _pair_terms(z, s):
    """sum_ij |s_ij| (|z_i|^2 + |z_j|^2): the size of the terms that cancel
    in a pairwise sum, which bounds its rounding."""
    b = np.sum((z - z.mean(axis=0)) ** 2, axis=1)
    return float(np.sum(np.abs(s) * (b[:, None] + b[None, :])))


@settings(max_examples=150, deadline=None)
@given(_static_case())
@example(([Graph(1, ())], "gin", np.ones((1, 1, 2)), 0.5, 2, True))  # N = 1
@example(([Graph.from_edge_list(6, [(0, 1), (1, 2)])] * 2, "gcn_sym",
          np.arange(24.0).reshape(2, 6, 2), 0.7, 3, False))  # isolated nodes
def test_coupled_energies_match_the_pairwise_loop(case):
    # each static family's step energies, 2-D and stacked, against the
    # pairwise loop; each slice's energy is bit for bit the slice alone's
    graphs, family, z0, tau, steps, use_source = case
    spec, cfg = CouplingSpec(family), DiffusionConfig(tau=tau, steps=steps,
                                                      use_source=use_source)
    stacked = energy._energies(run_trajectory(z0, spec, cfg, graphs))
    for b, g in enumerate(graphs):
        traj = run_trajectory(z0[b], spec, cfg, g)
        with pytest.MonkeyPatch.context() as mp:  # the energies stay sparse
            mp.setattr(type(traj.coupling), "dense", _refuse, raising=False)
            oracle = _static_energies(traj, normalized_adjacency(g, STATIC_FAMILY_MODES[family]))
        assert [e[b] for e in stacked] == [fast for fast, _, _ in oracle]
        for fast, slow, floor in oracle:
            assert fast == pytest.approx(slow, rel=1e-12, abs=floor)


def test_quadratic_energy_is_exact_on_a_diagonal_coupling():
    # each diagonal entry's terms cancel row by row: S = I gives exactly 0
    z0 = np.random.default_rng(3).standard_normal((6, 4))
    traj = run_trajectory(z0, CouplingSpec("identity"), DiffusionConfig(tau=0.7, steps=3))
    assert audit_descent(traj).energies == [0.0] * 3


def _every_family() -> list:
    """Each static family, gat_masked under each penalty and attention under
    each penalty, as (spec, graph)."""
    g = er_graph(30, 0.2, 4)
    return ([pytest.param(CouplingSpec(f), g, id=f) for f in STATIC_FAMILIES]
            + [pytest.param(CouplingSpec(family, PenaltyFamily(k)), g, id=f"{family}-{k}")
               for family in ("gat_masked", "attention") for k in PENALTY_KINDS])


@pytest.mark.parametrize("spec, g", _every_family())
def test_the_csv_diversity_is_the_records(spec, g, tmp_path):
    # the diversity column is N sum b from each step's record
    z0 = row_l2_normalize(np.random.default_rng(7).standard_normal((30, 5)))
    traj = run_trajectory(z0, spec, DiffusionConfig(tau=0.1, steps=6), g)
    write_trajectory_csv(traj, tmp_path / "traj.csv")
    column = [float(line.split(",")[2])
              for line in (tmp_path / "traj.csv").read_text().splitlines()[1:]]
    want = [diversity(step.z) for step in traj]
    assert column == pytest.approx(want, rel=1e-13)
