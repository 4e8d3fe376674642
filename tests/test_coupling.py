import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import endiff.coupling as coupling_module
from dense_oracles import (SPARSE_CASES, DenseCoupling, adjacency, dense_of, penalty_conjugate,
                           penalty_delta_scalar, penalty_f_scalar, sparse_case)
from endiff.coupling import (DIM_SCALE_MIN, PENALTIES, PENALTY_KINDS, Z_SQ_MAX, CouplingSpec,
                             DenseAttention, MeanCoupling, PenaltyFamily,
                             SimpleAttention, coupling_operator, penalty_delta, penalty_f,
                             penalty_f_range, simple_attention,
                             write_penalty_landscape)
from endiff.errors import ContractError, DimensionError, DomainError, ParameterError
from endiff.graphs import EdgeOperator, Graph, er_graph
from endiff.numerics import row_l2_normalize

# Every entry of the family table at a dim_scale other than 1, which only
# the softmax family reads.
FAMILIES = [PenaltyFamily(kind, dim_scale=4.0) for kind in PENALTY_KINDS]


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


@pytest.mark.parametrize("p", FAMILIES, ids=lambda p: p.kind)
def test_f_is_derivative_of_delta(p):
    # central differences of delta against f on an interior grid
    grid = np.linspace(0.05, 3.95, 200)
    h = 1e-6
    for u in grid:
        fd = (penalty_delta(p, u + h) - penalty_delta(p, u - h)) / (2 * h)
        assert fd == pytest.approx(penalty_f(p, u), rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("p", FAMILIES, ids=lambda p: p.kind)
def test_f_nonincreasing_nonnegative(p):
    grid = np.linspace(0.0, 4.0, 401)
    vals = [penalty_f(p, u) for u in grid]
    assert all(v >= 0.0 for v in vals)
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("p", [p for p in FAMILIES if PENALTIES[p.kind].poly],
                         ids=lambda p: p.kind)
def test_a_polynomial_entry_is_its_delta(p):
    # the closed pair sum reads (a, b) in place of delta: both must agree
    a, b = PENALTIES[p.kind].poly
    u = np.linspace(0.0, Z_SQ_MAX, 401)
    assert np.array_equal(a * u + b * u * u, penalty_delta(p, u))


def test_penalty_domain_error():
    p = PenaltyFamily("simple")
    with pytest.raises(DomainError):
        penalty_f(p, 4.5)
    with pytest.raises(DomainError):
        penalty_delta(p, -0.5)
    # the first bad value is named, and NaN is never inside the domain
    with pytest.raises(DomainError, match=r"z_sq=9.0 outside"):
        penalty_delta(p, np.array([1.0, 9.0, -3.0]))
    with pytest.raises(DomainError, match=r"z_sq=nan outside"):
        penalty_delta(p, np.array([1.0, np.nan]))
    with pytest.raises(DomainError, match=r"z_sq=nan outside"):
        penalty_f(p, math.nan)


_PENALTIES = st.builds(PenaltyFamily, st.sampled_from(PENALTY_KINDS),
                       st.floats(DIM_SCALE_MIN, 1e6))
_IN_DOMAIN = st.one_of(st.floats(-1e-9, Z_SQ_MAX + 1e-9), st.sampled_from((0.0, Z_SQ_MAX)))


@settings(max_examples=300, deadline=None)
@given(_PENALTIES, st.lists(_IN_DOMAIN, min_size=1, max_size=20),
       st.sampled_from((math.nan, -1e-8, Z_SQ_MAX + 1e-8, math.inf, -math.inf)))
@example(PenaltyFamily("softmax", DIM_SCALE_MIN), [0.0, Z_SQ_MAX], math.nan)
def test_penalty_pair_matches_the_scalar_oracle(p, us, outside):
    # Both functions are monotone on [0, 4], so max(|g(0)|, |g(4)|) is the
    # largest value either takes there; each is held to 1e-13 of that.
    for pair, oracle in ((penalty_f, penalty_f_scalar), (penalty_delta, penalty_delta_scalar)):
        want = np.array([oracle(p, u) for u in us])
        tol = 1e-13 * max(abs(oracle(p, 0.0)), abs(oracle(p, Z_SQ_MAX)))
        got = pair(p, np.array(us))
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= tol)
        assert all(abs(pair(p, u) - w) <= tol for u, w in zip(us, want))
        for bad in (outside, np.array(us + [outside])):
            with pytest.raises(DomainError):
                pair(p, bad)


@pytest.mark.parametrize("kind", PENALTY_KINDS)
@pytest.mark.parametrize("dim_scale", [DIM_SCALE_MIN, 1e12])
def test_every_family_scores_a_node_with_itself_positively(kind, dim_scale):
    # every attention row holds its own pair at u ~ 0, so no row sum can
    # reach zero while f(0) > 0 and f >= 0 on the domain
    p = PenaltyFamily(kind, dim_scale)
    f = penalty_f(p, np.linspace(0.0, Z_SQ_MAX, 401))
    assert 0.0 < f[0] < math.inf
    assert np.all(f >= 0.0)


def test_conjugate_simple_closed_form():
    p = PenaltyFamily("simple")
    # delta~(omega) = inf_y (omega*y - delta(y)); optimum at y = 2(2-omega)
    omega = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    y = 2.0 * (2.0 - omega)
    expected = omega * y - penalty_delta(p, y)
    assert np.allclose(penalty_conjugate(p, omega), expected, rtol=0.0, atol=1e-12)
    for w, want in zip(omega, expected):
        assert penalty_conjugate(p, w) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("p", FAMILIES, ids=lambda p: p.kind)
def test_conjugate_against_grid_oracle(p):
    lo, hi = penalty_f_range(p)
    ys = np.linspace(0.0, 4.0, 40001)
    deltas = penalty_delta(p, ys)
    omegas = np.linspace(lo, hi, 7)
    together = penalty_conjugate(p, omegas.reshape(7, 1))
    assert together.shape == (7, 1)
    for omega, got in zip(omegas, together[:, 0]):
        oracle = float(np.min(omega * ys - deltas))
        assert penalty_conjugate(p, omega) == pytest.approx(oracle, abs=1e-7)
        assert got == pytest.approx(penalty_conjugate(p, omega), abs=1e-14)


def test_conjugate_out_of_range():
    with pytest.raises(DomainError):
        penalty_conjugate(PenaltyFamily("simple"), 3.0)
    with pytest.raises(DomainError, match="omega=nan outside"):
        penalty_conjugate(PenaltyFamily("advanced"), np.array([0.5, np.nan]))


def test_coupling_spec_validation():
    with pytest.raises(ParameterError):
        CouplingSpec("mystery")
    with pytest.raises(ParameterError):
        CouplingSpec("attention")  # needs a penalty
    with pytest.raises(ParameterError):
        CouplingSpec("gcn_sym", PenaltyFamily("simple"))  # static, no penalty


def test_attention_scores_dot_identity():
    # scores from the Gram shortcut equal scores from explicit distances
    rng = np.random.default_rng(0)
    z = row_l2_normalize(rng.standard_normal((10, 5)))
    p = PenaltyFamily("advanced")
    scores = DenseAttention(p, z, z).a
    for i in range(10):
        for j in range(10):
            d2 = float(np.sum((z[i] - z[j]) ** 2))
            assert scores[i, j] == pytest.approx(penalty_f(p, d2), abs=1e-9)


def test_build_coupling_attention_row_stochastic():
    rng = np.random.default_rng(1)
    z = row_l2_normalize(rng.standard_normal((12, 6)))
    s = dense_of(coupling_operator(CouplingSpec("attention", PenaltyFamily("simple")), z))
    assert np.all(s >= 0)
    assert np.allclose(s.sum(axis=1), 1.0, atol=1e-12)


def test_build_coupling_requires_unit_rows():
    rng = np.random.default_rng(2)
    z = rng.standard_normal((5, 3)) * 3
    for kind in PENALTY_KINDS:
        with pytest.raises(ContractError):
            coupling_operator(CouplingSpec("attention", PenaltyFamily(kind)), z)


def test_build_coupling_gat_masked_support():
    rng = np.random.default_rng(3)
    z = row_l2_normalize(rng.standard_normal((4, 3)))
    g = Graph.from_edge_list(4, [(0, 1), (2, 3)])
    s = coupling_operator(CouplingSpec("gat_masked", PenaltyFamily("simple")), z, g).dense()
    mask = adjacency(g) + np.eye(4)
    assert np.all(s[mask == 0] == 0)
    assert np.allclose(s.sum(axis=1), 1.0)


def test_build_coupling_static_families():
    # static families are edge operators, never dense arrays
    g = Graph.from_edge_list(3, [(0, 1), (1, 2)])
    for family in ("identity", "all_one", "gcn_sym", "gin"):
        op = coupling_operator(CouplingSpec(family), np.eye(3), g)
        assert isinstance(op, (EdgeOperator, MeanCoupling))
    op = coupling_operator(CouplingSpec("identity"), g=g)
    assert np.array_equal(op.dense(), np.eye(3))
    assert np.allclose(dense_of(coupling_operator(CouplingSpec("all_one"), g=g)), 1.0 / 3)
    gin = coupling_operator(CouplingSpec("gin"), g=g).dense()
    assert np.array_equal(gin, adjacency(g) + np.eye(3))
    gat = CouplingSpec("gat_masked", PenaltyFamily("simple"))
    # its dense form is a test oracle
    assert isinstance(coupling_operator(gat, np.eye(3), g), EdgeOperator)
    for spec in (CouplingSpec("gcn_sym"), gat):
        with pytest.raises(ParameterError, match="requires a graph"):
            coupling_operator(spec, np.eye(3))
    with pytest.raises(ParameterError):
        coupling_operator(CouplingSpec("all_one"))  # no N


def test_build_coupling_degenerate_row_fallback():
    # an isolated node's gat_masked row holds only its self-loop, which
    # alone normalizes it
    z = np.eye(3)  # unit rows, pairwise distance sqrt(2)
    g = Graph(n=3, edges=((0, 1),))
    p = PenaltyFamily("simple")
    s = coupling_operator(CouplingSpec("gat_masked", p), z, g).dense()
    assert np.allclose(s.sum(axis=1), 1.0)


def test_penalty_landscape_table(tmp_path):
    write_penalty_landscape(tmp_path / "simple.csv", PenaltyFamily("simple"))
    lines = (tmp_path / "simple.csv").read_text().splitlines()
    assert lines[0] == "z_sq,f,delta"
    table = np.loadtxt(lines[1:], delimiter=",")
    assert table.shape == (401, 3)
    assert table[0, 0] == 0.0 and table[0, 1] == 2.0 and table[0, 2] == 0.0
    assert table[-1].tolist() == [4.0, 0.0, 4.0]


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
    s = DenseAttention(PenaltyFamily("simple"), z, z).dense()
    op = SimpleAttention(z)
    scale = float(np.max(np.abs(v)))  # S is row-stochastic: |S V| <= max |V|
    assert np.max(np.abs(op.apply(v) - s @ v)) <= 1e-12 * scale
    assert np.max(np.abs(op.row_sums() - s.sum(axis=1))) <= 1e-12


def test_simple_attention_requires_unit_rows():
    with pytest.raises(ContractError):
        coupling_operator(SIMPLE, np.ones((4, 3)))
    with pytest.raises(DimensionError):
        SimpleAttention(np.eye(3)).apply(np.ones((4, 2)))


@st.composite
def _kernel_stack(draw):
    """Unit key rows K~ (B, H, N, d), query rows Q~ that are K~'s in another
    order or zero, and values (B, H, N, d'): each denominator is at least 2."""
    b, h, n, d, dv = (draw(st.integers(1, hi)) for hi in (3, 3, 12, 5, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kt = row_l2_normalize(rng.standard_normal((b, h, n, d)))
    qt = kt[..., rng.permutation(n), :]
    qt[..., : draw(st.integers(0, n - 1)), :] = 0.0  # a model's floored zero rows
    return qt, kt, rng.standard_normal((b, h, n, dv))


@settings(max_examples=100, deadline=None)
@given(_kernel_stack())
def test_simple_attention_on_a_stack_is_each_slice_bit_for_bit(case):
    qt, kt, v = case
    stacked = simple_attention(qt, kt, v)
    for i in np.ndindex(qt.shape[:2]):
        for got, want in zip(stacked, simple_attention(qt[i], kt[i], v[i])):
            assert np.array_equal(got[i], want)


@settings(max_examples=200, deadline=None)
@given(_unit_rows_and_block(), st.integers(1, 7))
def test_simple_attention_matches_the_dense_coupling_at_other_widths(case, dv):
    # V of any width d' != d: the accumulators are d x d' and d' long
    z, _ = case
    if dv == z.shape[1]:
        dv += 1
    v = np.random.default_rng(dv).standard_normal((len(z), dv))
    want = DenseAttention(PenaltyFamily("simple"), z, z).dense() @ v
    got, denom, kv, k_sum, v_sum = simple_attention(z, z, v)
    assert got.shape == want.shape and kv.shape == (z.shape[1], dv)
    assert np.array_equal(v_sum, np.ones(len(z)) @ v)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(v))
    assert np.max(np.abs(denom[:, 0] - (len(z) + z @ z.sum(axis=0)))) <= 1e-12 * len(z)


def test_simple_attention_rejects_a_non_positive_denominator():
    # Unit rows keep every denominator at 2 or more, so the dynamics reach a
    # non-positive one only past their unit-row contract, which
    # coupling_operator checks and SimpleAttention, built here directly,
    # does not. The tape's heads, which take signed Q~ and K~, are held to
    # the same check in test_tape.py.
    z = np.array([[1.0, 0.0], [-4.0, 0.0]])  # row 0: 2 + 1 * (1 - 4) = -1
    with pytest.raises(DomainError, match="denominator"):
        SimpleAttention(z).apply(z)
    with pytest.raises(DomainError, match="denominator"):
        SimpleAttention(np.stack([np.eye(2), z])).apply(np.ones((2, 2, 1)))


def test_dense_coupling_and_sum():
    rng = np.random.default_rng(0)
    s = rng.random((5, 5))
    v = rng.standard_normal((5, 2))
    op = DenseCoupling(s)
    assert np.array_equal(op.apply(v), s @ v)
    assert np.array_equal(op.row_sums(), s.sum(axis=1))
    with pytest.raises(DimensionError):
        DenseCoupling(np.ones((3, 4)))
    with pytest.raises(DimensionError):
        op.apply(np.ones((4, 2)))


def test_coupling_operator_picks_the_accumulator_form_for_simple_attention():
    z = row_l2_normalize(np.random.default_rng(1).standard_normal((6, 3)))
    g = er_graph(6, 0.5, 0)
    assert isinstance(coupling_operator(SIMPLE, z), SimpleAttention)
    # only unmasked advanced and softmax attention stay dense
    for kind in ("advanced", "softmax"):
        spec = CouplingSpec("attention", PenaltyFamily(kind))
        op = coupling_operator(spec, z, g)
        assert isinstance(op, DenseAttention)
        # (A V) r against A / (A 1): the same S up to rounding
        assert np.max(np.abs(op.apply(np.eye(6)) - op.dense())) <= 1e-15
    assert coupling_operator(CouplingSpec("gcn_sym"), z, g) is g.sym_operator
    for family in ("identity", "gin"):
        assert isinstance(coupling_operator(CouplingSpec(family), z, g), EdgeOperator)
    gat = CouplingSpec("gat_masked", PenaltyFamily("simple"))
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
    assert np.max(np.abs(dense_of(op) - want)) <= 1e-12 * np.max(np.abs(want), initial=1.0)
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


def test_attention_row_sum_that_is_not_positive_breaks_the_contract(monkeypatch):
    import endiff.coupling as coupling

    z = row_l2_normalize(np.random.default_rng(0).standard_normal((4, 3)))
    g = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    gat = CouplingSpec("gat_masked", PenaltyFamily("simple"))
    monkeypatch.setattr(coupling, "penalty_f", lambda p, u: np.zeros_like(u))
    for build in (lambda: coupling_operator(gat, z, g),
                  lambda: DenseAttention(PenaltyFamily(), z, z),
                  lambda: coupling_operator(CouplingSpec("attention", PenaltyFamily("advanced")),
                                            z)):
        with pytest.raises(ContractError, match="row 0 has score sum 0.0"):
            build()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_attention_couplings_reject_non_finite_rows(bad):
    z = np.eye(3)
    z[1, 0] = bad
    g = Graph.from_edge_list(3, [(0, 1)])
    for spec in (SIMPLE, CouplingSpec("attention", PenaltyFamily("advanced")),
                 CouplingSpec("gat_masked", PenaltyFamily("simple"))):
        with pytest.raises(ContractError, match=f"row 1 has norm {bad}"):
            coupling_operator(spec, z, g)
        if spec.family == "attention":
            with pytest.raises(ContractError, match=f"row 1 has norm {bad}"):
                coupling_operator(spec, z)


def test_gat_masked_coupling_checks_its_inputs():
    g = Graph.from_edge_list(3, [(0, 1)])
    gat = CouplingSpec("gat_masked", PenaltyFamily("simple"))
    with pytest.raises(ContractError):
        coupling_operator(gat, np.ones((3, 2)), g)
    with pytest.raises(DimensionError):
        coupling_operator(gat, np.eye(4), g)


@pytest.mark.parametrize("kind", PENALTY_KINDS)
def test_every_attention_build_checks_its_rows_once(kind, monkeypatch):
    # the unit-row check is coupling_operator's alone: one pass over a
    # build's rows, 2-D or stacked, and none again per slice or inside the
    # coupling it builds
    check, shapes = coupling_module._unit_rows, []

    def counted(z):
        shapes.append(np.shape(z))
        return check(z)

    monkeypatch.setattr(coupling_module, "_unit_rows", counted)
    graphs = [er_graph(10, 0.4, seed) for seed in range(3)]
    z = row_l2_normalize(np.random.default_rng(0).standard_normal((3, 10, 4)))
    attention, gat = (CouplingSpec(family, PenaltyFamily(kind))
                      for family in ("attention", "gat_masked"))
    for spec, state, g in [(attention, z[0], None), (gat, z[0], graphs[0]),
                           (attention, z, None), (attention, z.reshape(3, 1, 10, 4), None),
                           (gat, z, graphs)]:
        shapes.clear()
        coupling_operator(spec, state, g)
        assert shapes == [state.shape]
