"""The stack convention of the dynamics: a (B, N, d) state is B
independent states, and every stacked coupling, step, run, energy and audit
gives on each slice, bit for bit, what the slice alone gives as a 2-D
state. Attention stacks share no graph; a static or masked stack couples
slice b along graph b of a sequence of B graphs on N nodes each, through
one block-diagonal edge operator, at one step size or one per slice. The
audit suites step their seeds in such stacks and report what a loop over
the seeds reports."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import endiff.coupling as coupling
import endiff.energy as energy
import endiff.suites as suites
from dense_oracles import (coupled_step, dense_of, kept_steps, regularized_energy,
                           suite_oversmooth_per_seed, suite_prop1_per_seed,
                           suite_thm1_per_seed, suite_thm2_per_seed)
from endiff.coupling import (PENALTY_KINDS, STATIC_FAMILIES, CouplingSpec,
                             DenseAttention, PenaltyFamily, coupling_operator,
                             gat_masked_coupling)
from endiff.diffusion import DiffusionConfig, run_trajectory
from endiff.energy import (_pairwise_sq_dists, audit_bounds, audit_descent, diversity,
                           write_trajectory_csv)
from endiff.errors import ContractError, DimensionError, ParameterError
from endiff.graphs import SLOT_MIN_ROWS, EdgeOperator, Graph, er_graph
from endiff.numerics import NORM_EPS, laplacian_lambda_max, row_l2_normalize, row_norms
from endiff.suites import SEED_STACK

SIMPLE = CouplingSpec("attention", PenaltyFamily("simple"))


def _attention(kind: str) -> CouplingSpec:
    return CouplingSpec("attention", PenaltyFamily(kind))


def _assert_slices(stacked, per_slice) -> None:
    """Slice i of stacked equals per_slice[i] bit for bit, shape included."""
    stacked = np.asarray(stacked)
    assert len(stacked) == len(per_slice)
    for got, want in zip(stacked, per_slice):
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)


@st.composite
def _unit_stacks(draw):
    """A stack (B, N, d) of unit-row states, B >= 1 and N >= 1, with repeated
    and antipodal rows mixed in, and a stack of blocks V."""
    b, n, d = draw(st.integers(1, 4)), draw(st.integers(1, 8)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = row_l2_normalize(rng.standard_normal((b, n, d)))
    for i in range(1, n):
        pick = draw(st.sampled_from(("own", "repeat", "antipode")))
        if pick != "own":
            j = draw(st.integers(0, i - 1))
            z[:, i] = z[:, j] if pick == "repeat" else -z[:, j]
    return z, rng.standard_normal((b, n, draw(st.integers(1, 3))))


@settings(max_examples=150, deadline=None)
@given(_unit_stacks(), st.sampled_from(PENALTY_KINDS), st.floats(0.01, 1.0))
@example((np.array([[[1.0, 0.0]]]), np.array([[[2.0]]])), "simple", 0.5)  # B = N = 1
def test_stacked_couplings_and_steps_match_their_slices(case, kind, tau):
    z, v = case
    spec = _attention(kind)
    op = coupling_operator(spec, z)
    slices = [coupling_operator(spec, zi) for zi in z]
    assert op.n == z.shape[1]
    _assert_slices(op.apply(v), [s.apply(vi) for s, vi in zip(slices, v)])
    _assert_slices(op.row_sums(), [s.row_sums() for s in slices])
    _assert_slices(dense_of(op), [dense_of(s) for s in slices])
    _assert_slices(coupled_step(z, op, tau),
                   [coupled_step(zi, s, tau) for zi, s in zip(z, slices)])
    if kind != "quadratic":
        oracle = DenseAttention(spec.penalty, z, z).dense()
        _assert_slices(oracle, [DenseAttention(spec.penalty, zi, zi).dense() for zi in z])


def _runs(z0, spec: CouplingSpec, cfg: DiffusionConfig, graphs=None):
    """The stacked run of z0, on graphs when given, and the run of each
    slice alone, on its own graph at its own tau; or None when a slice's
    run breaks the unit-row contract (tau = 1 sends antipodal rows to their
    zero mean), which the stacked run must break too."""
    taus = np.broadcast_to(cfg.tau, len(z0)).tolist()
    alone = [None] * len(z0) if graphs is None else graphs
    try:
        runs = [run_trajectory(zi, spec, dataclasses.replace(cfg, tau=tau), g)
                for zi, tau, g in zip(z0, taus, alone)]
        for run in runs:
            kept_steps(run)
    except ContractError:
        with pytest.raises(ContractError):
            kept_steps(run_trajectory(z0, spec, cfg, graphs))
        return None
    return run_trajectory(z0, spec, cfg, graphs), runs


@settings(max_examples=100, deadline=None)
@given(_unit_stacks(), st.sampled_from(PENALTY_KINDS), st.floats(0.01, 1.0),
       st.booleans(), st.integers(1, 4))
def test_stacked_runs_match_their_slices(case, kind, tau, use_source, steps):
    z0, _ = case
    runs = _runs(z0, _attention(kind),
                 DiffusionConfig(tau=tau, steps=steps, use_source=use_source))
    if runs is None:
        return
    traj, runs = runs
    stacked, alone = kept_steps(traj), [kept_steps(run) for run in runs]
    assert len(stacked) == steps + 1
    for k, step in enumerate(stacked):
        _assert_slices(step.z, [run[k].z for run in alone])
        _assert_slices(step.row_sums, [run[k].row_sums for run in alone])


@st.composite
def _gated_stacks(draw):
    """A stack whose slices fall on both sides of the unit-ball gate of the
    closed-form energies: rows inside the ball, on the sphere, or a common
    shift of rows of radius 1/2 that puts them outside it with every pair
    still within u <= 1. Also an anchor stack and lam."""
    b, n, d = draw(st.integers(1, 4)), draw(st.integers(1, 8)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    unit = row_l2_normalize(rng.standard_normal((b, n, d)))
    z = np.empty_like(unit)
    for i in range(b):
        where = draw(st.sampled_from(("inside", "sphere", "outside")))
        if where == "inside":
            z[i] = unit[i] * rng.uniform(0.0, 1.0, (n, 1))
        elif where == "sphere":
            z[i] = unit[i]
        else:
            z[i] = 0.5 * unit[i] + 0.9 * row_l2_normalize(rng.standard_normal((1, d)))
    return z, rng.standard_normal((b, n, d)), draw(st.floats(0.0, 2.0))


MIXED = (np.stack([[[0.6, 0.0], [0.0, 0.8]], [[1.2, 0.0], [1.0, 0.3]]]),
         np.zeros((2, 2, 2)), 0.7)  # slice 0 inside the ball, slice 1 outside
# a row and three copies of its antipode, as a tau = 1 step leaves them: the
# squared sum of |y_i|^2 is where a scalar power once rounded apart from
# the stack's square
_ROW = [-0.48721221247010954, 0.032744873137818716, 0.8722759971803468, 0.026203397607968748]
_FLIP = [0.48721221247010993, -0.03274487313781876, -0.8722759971803473, -0.026203397607968765]
ANTIPODES = (np.array([[_ROW, _FLIP, _ROW, _ROW]]), np.array([[_ROW, _FLIP, _ROW, _ROW]]), 1.0)


@settings(max_examples=150, deadline=None)
@given(_gated_stacks(), st.sampled_from(PENALTY_KINDS))
@example(MIXED, "simple")
@example(MIXED, "quadratic")
@example(ANTIPODES, "simple")
def test_stacked_energies_match_their_slices(case, kind):
    z, z_prev, lam = case
    p = PenaltyFamily(kind)
    _assert_slices(regularized_energy(z, z_prev, p, lam),
                   [regularized_energy(zi, pi, p, lam) for zi, pi in zip(z, z_prev)])
    _assert_slices(diversity(z), [diversity(zi) for zi in z])


def test_a_two_dimensional_state_gives_floats():
    z = row_l2_normalize(np.random.default_rng(0).standard_normal((5, 3)))
    assert type(diversity(z)) is float
    assert type(regularized_energy(z, z, PenaltyFamily("advanced"), 0.5)) is float
    assert diversity(z[None]).shape == (1,)
    assert diversity(np.stack([z[None], z[None]])).shape == (2, 1)


@settings(max_examples=60, deadline=None)
@given(_unit_stacks(), st.sampled_from(("simple", "advanced", "quadratic")),
       st.sampled_from((0.25, 0.5, 1.0)), st.sampled_from((1e-8, 0.0, -1e-3)))
def test_stacked_descent_audits_match_their_slices(case, kind, tau, slack):
    # a negative slack flags steps that descend by less than |slack|, so
    # some slices break the audit and others do not
    z0, _ = case
    runs = _runs(z0, _attention(kind), DiffusionConfig(tau=tau, steps=4))
    if runs is None:
        return
    rep = audit_descent(runs[0], slack)
    reps = [audit_descent(run, slack) for run in runs[1]]
    for k, energies in enumerate(rep.energies):
        _assert_slices(energies, [r.energies[k] for r in reps])
    assert rep.violations == [{"slice": b, **v} for b, r in enumerate(reps)
                              for v in r.violations]
    assert rep.num_violations == sum(r.num_violations for r in reps)


def test_violations_name_their_slice_in_c_order():
    z0 = row_l2_normalize(np.random.default_rng(1).standard_normal((2, 3, 6, 2)))
    traj = run_trajectory(z0, SIMPLE, DiffusionConfig(tau=0.5, steps=3))
    rep = audit_descent(traj, slack=-np.inf)  # every step of every slice
    assert [(v["slice"], v["step"]) for v in rep.violations] == [
        (b, k) for b in range(6) for k in (1, 2)]
    assert rep.energies[0].shape == (2, 3)


def test_stacks_reach_no_single_state_consumer(tmp_path):
    z = row_l2_normalize(np.random.default_rng(2).standard_normal((2, 6, 3)))
    g = er_graph(6, 0.5, 0)
    traj = run_trajectory(z, SIMPLE, DiffusionConfig(tau=0.25, steps=2))
    with pytest.raises(DimensionError, match="trajectory CSV"):
        write_trajectory_csv(traj, tmp_path / "traj.csv")
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(DimensionError, match="bound audit"):
        audit_bounds(traj, [1.0, 1.0])
    with pytest.raises(DimensionError):
        gat_masked_coupling(PenaltyFamily("simple"), z, g)
    gat = CouplingSpec("gat_masked", PenaltyFamily("simple"))
    for spec in [CouplingSpec(f) for f in STATIC_FAMILIES] + [gat]:
        with pytest.raises(DimensionError, match="one N x d state"):
            coupling_operator(spec, z, g)
        with pytest.raises(DimensionError):
            run_trajectory(z, spec, DiffusionConfig(steps=1), g)


def test_contract_errors_name_the_slice_and_the_row(monkeypatch):
    z = row_l2_normalize(np.random.default_rng(3).standard_normal((3, 4, 2)))
    z[2, 1] = [0.0, 2.0]
    for kind in PENALTY_KINDS:
        with pytest.raises(ContractError, match="slice 2 row 1 has norm 2.0"):
            coupling_operator(_attention(kind), z)
    with pytest.raises(ContractError, match="; row 1 has norm 2.0"):
        coupling_operator(SIMPLE, z[2])
    # slices count in C order over every leading axis
    with pytest.raises(ContractError, match="slice 5 row 1 has norm 2.0"):
        coupling_operator(SIMPLE, np.concatenate([row_l2_normalize(z), z]).reshape(2, 3, 4, 2))

    def zero_second_slice(p, u):
        return np.where(np.arange(len(u))[:, None, None] == 1, 0.0, 1.0)

    monkeypatch.setattr(coupling, "penalty_f", zero_second_slice)
    with pytest.raises(ContractError, match="attention slice 1 row 0 has score sum 0.0"):
        coupling_operator(_attention("advanced"), row_l2_normalize(z))


def _counted_runs(monkeypatch) -> list:
    """The leading shape of every start `suites` hands `run_trajectory`."""
    shapes = []
    run = suites.run_trajectory

    def counted(z0, *args, **kwargs):
        shapes.append(np.shape(z0)[:-2])
        return run(z0, *args, **kwargs)

    monkeypatch.setattr(suites, "run_trajectory", counted)
    return shapes


def test_thm2_steps_its_seeds_in_stacks(monkeypatch):
    # two full stacks and a ragged one, against the audit one seed at a time
    seeds = 2 * SEED_STACK + 3
    shapes = _counted_runs(monkeypatch)
    report = suites.suite_thm2(seeds=seeds)
    assert len(shapes) == 10 * math.ceil(seeds / SEED_STACK)
    assert sorted(set(shapes)) == [(3,), (SEED_STACK,)]
    assert report == suite_thm2_per_seed(seeds=seeds)


def test_oversmooth_steps_its_attention_seeds_in_stacks(monkeypatch):
    seeds = SEED_STACK + 2
    shapes = _counted_runs(monkeypatch)
    report = suites.suite_oversmooth(seeds=seeds)
    # every case, the static ones on their seeds' graphs too, in a full
    # stack and a ragged one
    assert shapes == [(SEED_STACK,), (2,)] * 4
    assert report == suite_oversmooth_per_seed(seeds=seeds, steps=suites.OVERSMOOTH_STEPS)


@pytest.mark.parametrize("suite, per_seed", [("thm1", suite_thm1_per_seed),
                                             ("prop1", suite_prop1_per_seed)])
def test_static_suites_step_their_seeds_in_stacks(monkeypatch, suite, per_seed):
    # two full stacks and a ragged one, each at its instances' own tau,
    # against the audit one seed at a time
    seeds = 2 * SEED_STACK + 3
    shapes = _counted_runs(monkeypatch)
    report = suites._static_reports(seeds=seeds)[suite]
    assert shapes == [(SEED_STACK,), (SEED_STACK,), (3,)]
    assert report == per_seed(seeds=seeds)


def test_prop1_takes_one_svd_per_instance(monkeypatch):
    calls, svd = [], suites.laplacian_lambda_max
    monkeypatch.setattr(suites, "laplacian_lambda_max",
                        lambda s: calls.append(1) or svd(s))
    seeds = SEED_STACK + 5
    list(suites.run_suites(["prop1"], seeds))
    assert len(calls) == seeds


def test_prop1_counts_a_rising_step_once(monkeypatch):
    # a rise planted at one step pair of every instance leaves the upper
    # bracket, whose factor (1 - tau lambda_min)^2 is 1: one violation per
    # instance, in the stacked suite and the per-seed oracle
    real = energy._energies

    def planted(traj):
        e = np.array(real(traj))
        e[10:] *= 1.01 * e[9] / e[10]
        return list(e)

    monkeypatch.setattr(energy, "_energies", planted)
    report = dict(suites.run_suites(["prop1"], 3))["prop1"]
    assert report["seeds"] == report["connected_instances"] == 3
    assert report["violations"] == 3
    assert suite_prop1_per_seed(seeds=3)["violations"] == 3


def _graph_stack(b: int, n: int, d: int, seed: int, isolated: int):
    """B graphs on n nodes each, with uneven degrees (a hub on half the
    nodes over a sparse random graph) and `isolated` nodes cut off in each;
    and a (B, n, d) stack of starts."""
    rng = np.random.default_rng(seed)
    graphs = []
    for _ in range(b):
        edges = np.argwhere(np.triu(rng.random((n, n)) < rng.uniform(0.02, 0.15), 1))
        hub = np.stack([np.full(n // 2, rng.integers(n)),
                        rng.choice(n, n // 2, replace=False)], axis=1)
        edges = np.concatenate([edges, hub])
        cut = np.isin(edges, rng.choice(n, isolated, replace=False)).any(axis=1)
        graphs.append(Graph.from_edge_list(n, edges[~cut]))
    return graphs, rng.standard_normal((b, n, d))


# N >= SLOT_MIN_ROWS, so that neighbour slots long enough to be summed
# apart from the pooled short entries occur
_graph_stacks = st.builds(_graph_stack, st.integers(1, 3),
                          st.integers(SLOT_MIN_ROWS + 8, SLOT_MIN_ROWS + 32),
                          st.integers(1, 3), st.integers(0, 2**32 - 1), st.integers(0, 6))
LONG_SLOTS = (3, SLOT_MIN_ROWS + 8, 2, 5, 4)


def test_the_graph_stacks_reach_long_slots_and_isolated_nodes():
    graphs, _ = _graph_stack(*LONG_SLOTS)
    for g in graphs:
        assert g.neighbours.slots
        assert np.count_nonzero(g.neighbours.deg == 0) >= 1
        assert len(set(g.neighbours.deg.tolist())) > 3


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10), st.integers(1, 4), st.integers(0, 2**32 - 1),
       st.floats(0.01, 1.0), st.booleans(), st.integers(1, 6), st.booleans())
@example(2, 2, 0, 0.5, True, 3, True)
@example(2, 1, 0, 1.0, False, 2, False)  # two antipodal rows collapse to zero
@example(2, 1, 0, 1.0 - 2**-53, False, 1, False)  # ... and to 1e-16, below NORM_EPS
def test_quadratic_attention_with_a_source_keeps_every_pair_in_the_domain(
        n, d, seed, tau, use_source, steps, antipodes):
    # the closed-form energy of these runs takes no unit-ball gate; its
    # argument is that every pairwise u stays within the domain [0, 4]
    z0 = np.random.default_rng(seed).standard_normal((n, d))
    if antipodes:  # pairs of rows at u = 4
        z0[1::2] = -z0[: n // 2 * 2 : 2]
    spec = _attention("quadratic")
    cfg = DiffusionConfig(tau=tau, steps=steps, use_source=use_source)
    traj = run_trajectory(z0, spec, cfg)
    made, step = 0, None
    try:
        for step in traj:
            z = step.z
            assert float(_pairwise_sq_dists(z).max()) <= 4.0 + 1e-9
            made += 1
            if step.prev is None:
                continue
            # the closed form against the pair sum
            anchor = step.prev + (tau * traj.start if use_source else 0.0)
            pairwise = float(np.sum((z - anchor) ** 2) + tau * np.sum(_pairwise_sq_dists(z)))
            assert energy._energy_of(traj)(step) == pytest.approx(
                pairwise, rel=1e-12, abs=1e-12 * n * float(np.sum(z * z)))
    except ContractError as exc:
        # a step sent a row into the NORM_EPS ball round the origin, say tau
        # at or next to 1 without the source on rows whose mean is zero, so
        # re-normalizing leaves it short of unit norm, and the next coupling
        # rejects the state, naming that row and its re-normalized norm
        assert 0 < made <= steps
        state = row_l2_normalize(step.z)
        z = coupled_step(state, coupling_operator(spec, state), tau)
        if use_source:
            z = z + tau * traj.start
        norms = row_norms(row_l2_normalize(z))
        row = int(np.argmax(~(np.abs(norms - 1.0) <= 1e-6)))
        assert float(np.sqrt(np.sum(z[row] ** 2))) < NORM_EPS
        assert str(exc).endswith(f"; row {row} has norm {norms[row]}")


MASKED = ("gat_masked",)


def _spec(family: str) -> CouplingSpec:
    return CouplingSpec(family, PenaltyFamily("simple") if family in MASKED else None)


def _starts(spec: CouplingSpec, z0: np.ndarray) -> np.ndarray:
    return row_l2_normalize(z0) if spec.is_attention else z0


@settings(max_examples=40, deadline=None)
@given(_graph_stacks, st.sampled_from(STATIC_FAMILIES + MASKED))
@example(_graph_stack(*LONG_SLOTS), "gcn_sym")
@example(_graph_stack(*LONG_SLOTS), "gin")  # a diagonal added after the entries
def test_the_block_operator_matches_each_graphs_own(case, family):
    graphs, v = case
    spec = _spec(family)
    z = _starts(spec, v)
    op = coupling_operator(spec, z, graphs)
    alone = [coupling_operator(spec, zi, g) for zi, g in zip(z, graphs)]
    if family != "all_one":
        assert isinstance(op, EdgeOperator) and op.layout.batch == (len(graphs),)
    _assert_slices(op.apply(v), [s.apply(vi) for s, vi in zip(alone, v)])
    _assert_slices(op.row_sums(), [s.row_sums() for s in alone])
    _assert_slices(dense_of(op), [dense_of(s) for s in alone])


@settings(max_examples=40, deadline=None)
@given(_graph_stacks, st.sampled_from(STATIC_FAMILIES + MASKED), st.booleans(),
       st.integers(1, 4), st.floats(0.05, 1.0), st.booleans(),
       st.sampled_from((1e-9, -1e-3)))
@example(_graph_stack(*LONG_SLOTS), "gcn_sym", False, 4, 0.9, True, 1e-9)
@example(_graph_stack(*LONG_SLOTS), "gin", True, 3, 0.5, False, -1e-3)
def test_stacked_static_runs_match_each_graph_alone(case, family, use_source, steps,
                                                     frac, per_slice_tau, slack):
    graphs, z0 = case
    spec = _spec(family)
    z0 = _starts(spec, z0)
    # the source would take a masked run's rows out of the unit ball
    use_source = use_source and not spec.is_attention
    alone = [coupling_operator(spec, zi, g) for zi, g in zip(z0, graphs)]
    lams = [laplacian_lambda_max(dense_of(s)) for s in alone]
    taus = [min(frac / lam, 1.0) if lam > 0 else frac for lam in lams]
    cfg = DiffusionConfig(tau=np.array(taus) if per_slice_tau else frac, steps=steps,
                          use_source=use_source)
    runs = _runs(z0, spec, cfg, graphs)
    if runs is None:
        return
    traj, runs = runs
    stacked, each = kept_steps(traj), [kept_steps(run) for run in runs]
    for k, step in enumerate(stacked):
        _assert_slices(step.z, [run[k].z for run in each])
        _assert_slices(step.row_sums, [run[k].row_sums for run in each])
        if k:
            _assert_slices(energy._energy_of(traj)(step),
                           [energy._energy_of(run)(steps_b[k])
                            for run, steps_b in zip(runs, each)])
    if steps >= 2:
        rep, reps = audit_descent(traj, slack), [audit_descent(run, slack) for run in runs]
        assert rep.violations == [{"slice": b, **v} for b, r in enumerate(reps)
                                  for v in r.violations]
    if spec.is_attention or use_source or not all(
            lam > 0 and tau <= 1.0 / lam
            for lam, tau in zip(lams, np.broadcast_to(cfg.tau, len(graphs)))):
        return
    # each slice's own lambda_max, and lambda_max = 0, whose lower edge 1
    # nearly every step breaks
    for given in (lams, [0.0] * len(lams)):
        rep = audit_bounds(traj, given)
        reps = [audit_bounds(run, lam) for run, lam in zip(runs, given)]
        for k, energies in enumerate(rep.energies):
            _assert_slices(energies, [r.energies[k] for r in reps])
        assert rep.violations == [{"slice": b, **v} for b, r in enumerate(reps)
                                  for v in r.violations]
        assert rep.lambda_max == [r.lambda_max for r in reps]
        assert rep.min_ratio == [r.min_ratio for r in reps]
        assert rep.max_ratio == [r.max_ratio for r in reps]


def test_stacked_graph_runs_reject_a_mismatch_up_front():
    graphs = [er_graph(6, 0.5, seed) for seed in range(3)]
    z = np.random.default_rng(5).standard_normal((3, 6, 2))
    spec, cfg = CouplingSpec("gcn_sym"), DiffusionConfig(tau=0.5, steps=2)
    with pytest.raises(DimensionError, match=r"3 graphs on 6 nodes couple a \(3, 6, d\)"):
        run_trajectory(z[:2], spec, cfg, graphs)
    with pytest.raises(DimensionError, match="2 graphs on 6 nodes"):
        run_trajectory(z, spec, cfg, graphs[:2])
    with pytest.raises(DimensionError, match="one node count"):
        run_trajectory(z, spec, cfg, graphs[:2] + [er_graph(7, 0.5, 0)])
    with pytest.raises(ParameterError, match="at least one"):
        run_trajectory(z, spec, cfg, [])
    with pytest.raises(DimensionError, match="one N x d state"):
        run_trajectory(z, spec, cfg, graphs[0])
    for tau in (np.full(2, 0.5), np.full((3, 1), 0.5), np.full(1, 0.5)):
        with pytest.raises(DimensionError, match="tau of shape"):
            run_trajectory(z, spec, DiffusionConfig(tau=tau, steps=2), graphs)
    with pytest.raises(DimensionError, match="tau of shape"):
        run_trajectory(z[0], spec, DiffusionConfig(tau=np.full(1, 0.5)), graphs[0])
    traj = run_trajectory(z, spec, DiffusionConfig(tau=np.full(3, 0.5), steps=2), graphs)
    with pytest.raises(DimensionError, match="2 lambda_max values for 3 slices"):
        audit_bounds(traj, [laplacian_lambda_max(g.sym_operator.dense())
                            for g in graphs[:2]])
    with pytest.raises(DimensionError, match=r"applied to shape \(2, 6, 2\)"):
        traj.coupling.apply(z[:2])


def test_a_bad_row_of_a_masked_stack_is_named_with_its_slice():
    graphs = [er_graph(8, 0.4, seed) for seed in range(3)]
    z = row_l2_normalize(np.random.default_rng(9).standard_normal((3, 8, 4)))
    z[2, 5] = 0.0
    for spec, g in ((SIMPLE, None), (_spec("gat_masked"), graphs)):
        with pytest.raises(ContractError) as exc:
            coupling_operator(spec, z, g)
        assert str(exc.value) == ("attention couplings require finite unit-norm "
                                  "embedding rows; slice 2 row 5 has norm 0.0")


def test_an_edge_operator_applies_only_to_its_own_rows():
    graphs = [er_graph(6, 0.5, seed) for seed in range(3)]
    alone = graphs[0].sym_operator
    stacked = coupling_operator(CouplingSpec("gcn_sym"), None, graphs)
    v = np.random.default_rng(4).standard_normal((3, 6, 2))
    for op, bad in ((alone, v), (alone, v[0, :5]), (stacked, v[0]), (stacked, v[:2])):
        with pytest.raises(DimensionError, match=f"applied to shape {re.escape(str(bad.shape))}"):
            op.apply(bad)
    assert alone.apply(v[0]).shape == (6, 2) and stacked.apply(v).shape == (3, 6, 2)


@pytest.mark.parametrize("tau", [0.0, -0.5, 1.5, np.nan, True, np.bool_(True), "0.5",
                                 [0.5, 0.0], np.array([0.5, 1.01]), np.array([True]),
                                 np.array([0.5, np.nan])])
def test_a_tau_outside_the_unit_interval_or_a_bool_is_rejected(tau):
    with pytest.raises(ParameterError, match="tau must be in"):
        DiffusionConfig(tau=tau)


def test_a_per_slice_tau_is_a_read_only_copy():
    taus = np.array([0.25, 1.0])
    cfg = DiffusionConfig(tau=taus)
    taus[0] = 0.5
    assert cfg.tau.tolist() == [0.25, 1.0]
    assert not cfg.tau.flags.writeable
    assert cfg.step_size.shape == (2, 1, 1)
    assert DiffusionConfig(tau=0.25).step_size == 0.25
