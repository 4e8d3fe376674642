import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_oracles import SPARSE_CASES, adjacency, sparse_case
from endiff.coupling import (CouplingSpec, DenseCoupling,
                             MeanCoupling, PenaltyFamily, SimpleAttention,
                             attention_scores, build_coupling,
                             coupling_operator, gat_masked_coupling,
                             penalty_conjugate, penalty_delta,
                             penalty_delta_array, penalty_f, penalty_f_range,
                             penalty_landscape)
from endiff.diffusion import graph_blended_step
from endiff.errors import ContractError, DimensionError, DomainError, ParameterError
from endiff.graphs import EdgeOperator, Graph, er_graph
from endiff.numerics import row_l2_normalize

FD_FAMILIES = [PenaltyFamily("simple"), PenaltyFamily("advanced"),
               PenaltyFamily("softmax", dim_scale=4.0)]


def test_penalty_simple_values():
    p = PenaltyFamily("simple")
    assert penalty_f(p, 0.0) == 2.0
    assert penalty_f(p, 4.0) == 0.0
    assert penalty_delta(p, 0.0) == 0.0
    assert penalty_delta(p, 4.0) == 4.0  # 2*4 - 16/4


def test_penalty_advanced_values():
    p = PenaltyFamily("advanced")
    assert penalty_f(p, 2.0) == pytest.approx(0.5)  # sigmoid at 0
    assert penalty_f(p, 0.0) == pytest.approx(1.0 / (1.0 + math.exp(-1.0)))
    # delta(0) = -2 ln(1 + 1/e), a nonzero constant offset of this family
    assert penalty_delta(p, 0.0) == pytest.approx(-2.0 * math.log(1.0 + math.exp(-1.0)))


def test_penalty_softmax_values():
    p = PenaltyFamily("softmax", dim_scale=9.0)
    scale = math.exp(1.0 / 3.0)
    assert penalty_f(p, 2.0) == pytest.approx(scale)  # exp(0) * scale
    assert penalty_delta(p, 0.0) == 0.0  # anchored


def test_penalty_quadratic():
    p = PenaltyFamily("quadratic")
    assert penalty_f(p, 1.7) == 1.0
    assert penalty_delta(p, 1.7) == 1.7


@pytest.mark.parametrize("p", FD_FAMILIES, ids=lambda p: p.kind)
def test_f_is_derivative_of_delta(p):
    # central differences of delta against f on an interior grid
    grid = np.linspace(0.05, 3.95, 200)
    h = 1e-6
    for u in grid:
        fd = (penalty_delta(p, u + h) - penalty_delta(p, u - h)) / (2 * h)
        assert fd == pytest.approx(penalty_f(p, u), rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("p", FD_FAMILIES, ids=lambda p: p.kind)
def test_f_nonincreasing_nonnegative(p):
    grid = np.linspace(0.0, 4.0, 401)
    vals = [penalty_f(p, u) for u in grid]
    assert all(v >= 0.0 for v in vals)
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_penalty_domain_error():
    p = PenaltyFamily("simple")
    with pytest.raises(DomainError):
        penalty_f(p, 4.5)
    with pytest.raises(DomainError):
        penalty_delta(p, -0.5)
    with pytest.raises(DomainError):
        penalty_delta_array(p, np.array([1.0, 9.0]))


def test_penalty_delta_array_matches_scalar():
    grid = np.linspace(0.0, 4.0, 41)
    for p in FD_FAMILIES + [PenaltyFamily("quadratic")]:
        vec = penalty_delta_array(p, grid)
        ref = np.array([penalty_delta(p, u) for u in grid])
        assert np.allclose(vec, ref, atol=1e-14)


def test_conjugate_simple_closed_form():
    p = PenaltyFamily("simple")
    # delta~(omega) = inf_y (omega*y - delta(y)); optimum at y = 2(2-omega)
    for omega in [0.0, 0.5, 1.0, 1.5, 2.0]:
        y = 2.0 * (2.0 - omega)
        expected = omega * y - penalty_delta(p, y)
        assert penalty_conjugate(p, omega) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("p", FD_FAMILIES, ids=lambda p: p.kind)
def test_conjugate_against_grid_oracle(p):
    lo, hi = penalty_f_range(p)
    ys = np.linspace(0.0, 4.0, 40001)
    deltas = penalty_delta_array(p, ys)
    for omega in np.linspace(lo, hi, 7):
        oracle = float(np.min(omega * ys - deltas))
        assert penalty_conjugate(p, omega) == pytest.approx(oracle, abs=1e-7)


def test_conjugate_out_of_range():
    with pytest.raises(DomainError):
        penalty_conjugate(PenaltyFamily("simple"), 3.0)


def test_coupling_spec_validation():
    with pytest.raises(ParameterError):
        CouplingSpec("mystery")
    with pytest.raises(ParameterError):
        CouplingSpec("attention")  # needs a penalty
    with pytest.raises(ParameterError):
        CouplingSpec("gcn_sym", PenaltyFamily("simple"))  # static, no penalty
    with pytest.raises(ParameterError):
        CouplingSpec("gat_masked", PenaltyFamily("simple"))  # needs mask


def test_attention_scores_dot_identity():
    # scores from the Gram shortcut equal scores from explicit distances
    rng = np.random.default_rng(0)
    z = row_l2_normalize(rng.standard_normal((10, 5)))
    p = PenaltyFamily("advanced")
    scores = attention_scores(p, z)
    for i in range(10):
        for j in range(10):
            d2 = float(np.sum((z[i] - z[j]) ** 2))
            assert scores[i, j] == pytest.approx(penalty_f(p, d2), abs=1e-9)


def test_build_coupling_attention_row_stochastic():
    rng = np.random.default_rng(1)
    z = row_l2_normalize(rng.standard_normal((12, 6)))
    s = build_coupling(CouplingSpec("attention", PenaltyFamily("simple")), z)
    assert np.all(s >= 0)
    assert np.allclose(s.sum(axis=1), 1.0, atol=1e-12)


def test_build_coupling_requires_unit_rows():
    rng = np.random.default_rng(2)
    z = rng.standard_normal((5, 3)) * 3
    with pytest.raises(ContractError):
        build_coupling(CouplingSpec("attention", PenaltyFamily("simple")), z)


def test_build_coupling_gat_masked_support():
    rng = np.random.default_rng(3)
    z = row_l2_normalize(rng.standard_normal((4, 3)))
    g = Graph.from_edge_list(4, [(0, 1), (2, 3)])
    s = build_coupling(CouplingSpec("gat_masked", PenaltyFamily("simple"), g), z)
    mask = adjacency(g) + np.eye(4)
    assert np.all(s[mask == 0] == 0)
    assert np.allclose(s.sum(axis=1), 1.0)


def test_build_coupling_static_families():
    # static families are edge operators, never dense arrays
    g = Graph.from_edge_list(3, [(0, 1), (1, 2)])
    for family in ("identity", "all_one", "gcn_sym", "gin"):
        with pytest.raises(ParameterError, match="not an attention family"):
            build_coupling(CouplingSpec(family), np.eye(3))
    op = coupling_operator(CouplingSpec("identity"), g=g)
    assert np.array_equal(op.dense(), np.eye(3))
    assert np.allclose(coupling_operator(CouplingSpec("all_one"), g=g).dense(), 1.0 / 3)
    gin = coupling_operator(CouplingSpec("gin"), g=g).dense()
    assert np.array_equal(gin, adjacency(g) + np.eye(3))
    with pytest.raises(ParameterError):
        coupling_operator(CouplingSpec("gcn_sym"))  # no graph
    with pytest.raises(ParameterError):
        coupling_operator(CouplingSpec("all_one"))  # no N


def test_build_coupling_degenerate_row_fallback():
    # gat_masked with an isolated node still has its self-loop, but a
    # quadratic penalty zero-masked row would die; force it via a graph
    # mask on an isolated node with a penalty that is zero at distance 0
    z = np.eye(3)  # unit rows, pairwise distance sqrt(2)
    g = Graph(n=3, edges=((0, 1),))
    p = PenaltyFamily("simple")
    s = build_coupling(CouplingSpec("gat_masked", p, g), z)
    assert np.allclose(s.sum(axis=1), 1.0)


def test_penalty_landscape_table():
    table = penalty_landscape(PenaltyFamily("simple"), step=0.5)
    assert table.shape == (9, 3)
    assert table[0, 0] == 0.0 and table[0, 1] == 2.0 and table[0, 2] == 0.0
    assert table[-1, 0] == 4.0


SIMPLE = CouplingSpec("attention", PenaltyFamily("simple"))


@st.composite
def _unit_rows_and_block(draw):
    """Unit rows Z (with repeated and antipodal rows mixed in) and a block V."""
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = row_l2_normalize(rng.standard_normal((n, d)))
    for i in range(1, n):
        pick = draw(st.sampled_from(("own", "repeat", "antipode")))
        if pick != "own":
            j = draw(st.integers(0, i - 1))
            z[i] = z[j] if pick == "repeat" else -z[j]
    v = rng.standard_normal((n, draw(st.integers(1, 4))))
    return z, v


@settings(max_examples=200, deadline=None)
@given(_unit_rows_and_block())
@example((np.array([[1.0, 0.0]]), np.array([[2.0]])))
@example((np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([[1.0], [-1.0]])))
def test_simple_attention_matches_dense_coupling(case):
    # accumulator form against the materialized row-normalized coupling
    z, v = case
    s = build_coupling(SIMPLE, z)
    op = SimpleAttention(z)
    scale = float(np.max(np.abs(v)))  # S is row-stochastic: |S V| <= max |V|
    assert np.max(np.abs(op.apply(v) - s @ v)) <= 1e-12 * scale
    assert np.max(np.abs(op.row_sums() - s.sum(axis=1))) <= 1e-12
    assert np.array_equal(op.dense(), s)


def test_simple_attention_requires_unit_rows():
    with pytest.raises(ContractError):
        SimpleAttention(np.ones((4, 3)))
    with pytest.raises(DimensionError):
        SimpleAttention(np.eye(3)).apply(np.ones((4, 2)))


def test_dense_coupling_and_sum():
    rng = np.random.default_rng(0)
    s = rng.random((5, 5))
    v = rng.standard_normal((5, 2))
    op = DenseCoupling(s)
    assert np.array_equal(op.apply(v), s @ v)
    assert np.array_equal(op.row_sums(), s.sum(axis=1))
    # a graph-blended step diffuses on the sum of two couplings
    g = er_graph(5, 0.5, 0)
    z = row_l2_normalize(rng.standard_normal((5, 3)))
    both = s + g.sym_operator.dense()
    want = z - 0.25 * (np.diag(both.sum(axis=1)) - both) @ z
    assert np.allclose(graph_blended_step(z, op, g, 0.5), want, atol=1e-12)
    with pytest.raises(DimensionError):
        DenseCoupling(np.ones((3, 4)))
    with pytest.raises(DimensionError):
        op.apply(np.ones((4, 2)))
    with pytest.raises(DimensionError):
        graph_blended_step(z, DenseCoupling(np.eye(3)), g, 0.5)


def test_coupling_operator_picks_the_accumulator_form_for_simple_attention():
    z = row_l2_normalize(np.random.default_rng(1).standard_normal((6, 3)))
    g = er_graph(6, 0.5, 0)
    assert isinstance(coupling_operator(SIMPLE, z), SimpleAttention)
    # only unmasked advanced and softmax attention stay dense
    for kind in ("advanced", "softmax"):
        spec = CouplingSpec("attention", PenaltyFamily(kind))
        op = coupling_operator(spec, z, g)
        assert isinstance(op, DenseCoupling)
        assert np.array_equal(op.dense(), build_coupling(spec, z))
    assert coupling_operator(CouplingSpec("gcn_sym"), z, g) is g.sym_operator
    for family in ("identity", "gin"):
        assert isinstance(coupling_operator(CouplingSpec(family), z, g), EdgeOperator)
    gat = CouplingSpec("gat_masked", PenaltyFamily("simple"), g)
    assert isinstance(coupling_operator(gat, z, g), EdgeOperator)
    quad = CouplingSpec("attention", PenaltyFamily("quadratic"))
    for spec in (quad, CouplingSpec("all_one")):
        assert isinstance(coupling_operator(spec, z, g), MeanCoupling)


@st.composite
def _graph_rows_block(draw):
    """A random graph (N = 1, no edges and isolated nodes included), unit
    rows Z on it and a block V."""
    n = draw(st.integers(1, 12))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    g = Graph.from_edge_list(n, draw(st.lists(pairs, max_size=3 * n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = row_l2_normalize(rng.standard_normal((n, draw(st.integers(1, 4)))))
    return g, z, rng.standard_normal((n, draw(st.integers(1, 3))))


def _assert_operator_matches(op, want, v):
    # every entry of S, S V and S 1 to 1e-12 of the magnitudes summed
    assert op.n == want.shape[0]
    assert np.max(np.abs(op.dense() - want)) <= 1e-12 * np.max(np.abs(want), initial=1.0)
    scale = np.abs(want) @ np.abs(v)
    assert np.all(np.abs(op.apply(v) - want @ v) <= 1e-12 * scale + 1e-300)
    sums = op.row_sums()
    assert sums.shape == (op.n,)
    assert np.all(np.abs(sums - want.sum(axis=1)) <= 1e-12 * np.abs(want).sum(axis=1))


@settings(max_examples=300, deadline=None)
@given(_graph_rows_block(), st.sampled_from(SPARSE_CASES))
@example((Graph(1, ()), np.array([[0.6, 0.8]]), np.array([[2.0]])), "gin")
@example((Graph(1, ()), np.array([[0.6, 0.8]]), np.array([[2.0]])), "gat_simple")
@example((Graph(4, ()), np.eye(4), np.arange(8.0).reshape(4, 2)), "gat_advanced")
@example((Graph(4, ()), np.eye(4), np.arange(8.0).reshape(4, 2)), "identity")
@example((Graph(5, ((0, 1), (1, 2))), np.eye(3)[[0, 1, 2, 0, 1]],
          np.arange(10.0).reshape(5, 2)), "gcn_sym")
def test_sparse_couplings_match_their_dense_oracles(case, name):
    g, z, v = case
    op, want = sparse_case(name, g, z)
    _assert_operator_matches(op, want, v)


@settings(max_examples=200, deadline=None)
@given(_graph_rows_block(), st.booleans())
def test_edge_operator_with_asymmetric_weights(case, with_diagonal):
    g, _, v = case
    rng = np.random.default_rng(len(g.edges))
    lay = g.neighbours
    weights = rng.uniform(-1.0, 2.0, len(lay.rows))
    diagonal = rng.uniform(-1.0, 2.0, g.n) if with_diagonal else None
    want = np.zeros((g.n, g.n))
    for i, j, w in zip(lay.rows.tolist(), lay.cols.tolist(), weights.tolist()):
        want[i, j] += w  # one entry per direction of every edge
    if with_diagonal:
        want += np.diag(diagonal)
    _assert_operator_matches(EdgeOperator(lay, weights, diagonal), want, v)


def test_gat_masked_coupling_falls_back_to_self_loops(monkeypatch, caplog):
    import endiff.coupling as coupling

    z = row_l2_normalize(np.random.default_rng(0).standard_normal((4, 3)))
    g = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    spec = CouplingSpec("gat_masked", PenaltyFamily("simple"), g)
    dense_scores = coupling.attention_scores
    monkeypatch.setattr(coupling, "attention_scores",
                        lambda p, z: np.zeros_like(dense_scores(p, z)))
    monkeypatch.setattr(coupling, "_scores", lambda p, gram: np.zeros_like(gram))
    op = coupling_operator(spec, z, g)
    assert np.array_equal(op.dense(), np.eye(4))
    assert np.array_equal(build_coupling(spec, z), np.eye(4))
    assert np.array_equal(op.row_sums(), np.ones(4))
    assert "degenerate row" in caplog.text


def test_gat_masked_coupling_checks_its_inputs():
    g = Graph.from_edge_list(3, [(0, 1)])
    with pytest.raises(ContractError):
        gat_masked_coupling(PenaltyFamily("simple"), np.ones((3, 2)), g)
    with pytest.raises(DimensionError):
        gat_masked_coupling(PenaltyFamily("simple"), np.eye(4), g)
