import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_oracles import (adjacency, from_edge_list_lexsort, layout_lexsort,
                           normalized_adjacency, sbm_generate_loop)
from endiff.errors import DimensionError, FormatError, ParameterError
from endiff.graphs import (SBM_BLOCK_ROWS, SLOT_MIN_ROWS, Dataset, EdgeOperator,
                           Graph, er_graph, is_connected, load_dataset, read_edges,
                           read_features, sbm_generate)


def test_graph_rejects_self_loops_and_duplicates():
    with pytest.raises(ParameterError):
        Graph(n=3, edges=((0, 0),))
    with pytest.raises(ParameterError):
        Graph(n=3, edges=((0, 1), (1, 0)))
    with pytest.raises(ParameterError):
        Graph(n=2, edges=((0, 5),))


def _edge_scan(n, edges):
    """The edge-by-edge validation Graph used to run: the first fault's
    message, or the degrees."""
    seen = set()
    deg = [0] * n
    for u, v in edges:
        if u == v:
            return f"self-loop ({u},{v}) not allowed"
        if not (0 <= u < n and 0 <= v < n):
            return f"edge ({u},{v}) out of range for n={n}"
        key = (min(u, v), max(u, v))
        if key in seen:
            return f"duplicate edge ({u},{v})"
        seen.add(key)
        deg[u] += 1
        deg[v] += 1
    return tuple(deg)


@st.composite
def _edge_lists(draw):
    n = draw(st.integers(1, 12))
    # ends run a little past both sides of [0, n) so that every fault occurs
    end = st.integers(-2, n + 1) | st.sampled_from([-(2**40), 2**40, n - 1, 0])
    edges = draw(st.lists(st.tuples(end, end), max_size=10))
    return n, tuple(edges)


@settings(max_examples=400, deadline=None)
@given(_edge_lists())
@example((1, ()))
@example((3, ()))
@example((3, ((0, 1), (1, 0))))
@example((3, ((0, 1), (2, 2), (0, 5))))
@example((3, ((0, 5), (2, 2))))
@example((3, ((0, 1), (4, 4))))  # a self-loop out of range is a self-loop
@example((3, ((-1, -1),)))
@example((3, ((1, 2), (0, 4), (1, 1))))  # 0*3+4 == 1*3+1: keys collide
@example((2, ((1, 0), (0, 1), (0, 0))))
def test_graph_validation_matches_the_edge_scan(case):
    n, edges = case
    want = _edge_scan(n, edges)
    if isinstance(want, str):
        with pytest.raises(ParameterError) as exc:
            Graph(n=n, edges=edges)
        assert str(exc.value) == want
    else:
        g = Graph(n=n, edges=edges)
        assert tuple(g.neighbours.deg.tolist()) == want


def test_graph_rejects_an_edge_that_is_not_a_pair():
    with pytest.raises(ParameterError, match="pair"):
        Graph(n=3, edges=((0, 1, 2),))


def test_from_edge_list_symmetrizes_and_dedups():
    g = Graph.from_edge_list(4, [(1, 0), (0, 1), (2, 3), (3, 3)])
    assert np.array_equal(g.edges, [(0, 1), (2, 3)])
    assert g.neighbours.deg.tolist() == [1, 1, 1, 1]


def test_adjacency_symmetric():
    # the dense oracle the edge operators are checked against
    g = Graph.from_edge_list(3, [(0, 1), (1, 2)])
    a = adjacency(g)
    assert np.allclose(a, a.T)
    assert a.sum() == 4


def test_normalized_adjacency_modes():
    # hand values of the dense oracle, and the edge operators against it
    g = Graph.from_edge_list(3, [(0, 1), (1, 2)])
    a = adjacency(g)
    sym = normalized_adjacency(g, "sym")
    # path graph: middle node degree 2, ends degree 1
    assert sym[0, 1] == pytest.approx(1.0 / np.sqrt(2))
    assert np.array_equal(g.sym_operator.dense(), sym)
    assert np.allclose(normalized_adjacency(g, "gin"), a + np.eye(3))
    assert np.allclose(normalized_adjacency(g, "identity"), np.eye(3))
    assert np.allclose(normalized_adjacency(g, "all_one"), 1.0 / 3)
    with pytest.raises(ValueError):
        normalized_adjacency(g, "spectral")


def test_normalized_adjacency_isolated_node():
    g = Graph(n=3, edges=((0, 1),))
    for sym in (normalized_adjacency(g, "sym"), g.sym_operator.dense()):
        assert np.allclose(sym[2], 0.0)
        assert np.all(np.isfinite(sym))
    assert g.sym_operator.row_sums()[2] == 0.0


@st.composite
def _graph_and_block(draw):
    n = draw(st.integers(1, 24))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pairs, max_size=3 * n))
    d = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    v = np.random.default_rng(seed).standard_normal((n, d))
    return Graph.from_edge_list(n, edges), v


@settings(max_examples=200, deadline=None)
@given(_graph_and_block())
@example((Graph(1, ()), np.ones((1, 2))))
@example((Graph(4, ()), np.arange(8.0).reshape(4, 2)))
@example((Graph(5, ((0, 1), (1, 2))), np.arange(10.0).reshape(5, 2)))
def test_sym_operator_matches_dense(case):
    # random graphs, including N = 1, the empty edge set and isolated nodes
    g, v = case
    want = normalized_adjacency(g, "sym") @ v
    got = g.sym_operator.apply(v)
    assert got.dtype == np.float64 and got.shape == v.shape
    scale = max(float(np.max(np.abs(want), initial=0.0)), 1.0)
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * scale
    isolated = g.neighbours.deg == 0
    assert np.all(got[isolated] == 0.0)


LONG_SLOT_GRAPHS = [
    er_graph(160, 0.1, 0),
    Graph.from_edge_list(161, [(0, j) for j in range(1, 160)]),  # star + isolated
]


@pytest.mark.parametrize("graph", LONG_SLOT_GRAPHS)
def test_sym_operator_long_and_short_slots_match_dense(graph):
    # both kernels run: slots reaching >= SLOT_MIN_ROWS rows and the short rest
    op = graph.sym_operator
    assert op._slots and op._short[0].size
    for d in (1, 8, 32):
        v = np.random.default_rng(d).standard_normal((graph.n, d))
        want = normalized_adjacency(graph, "sym") @ v
        assert np.max(np.abs(op.apply(v) - want)) <= 1e-12 * np.max(np.abs(want))


@st.composite
def _long_slot_graph(draw, chords_per_node=4.0):
    """A ring through m >= SLOT_MIN_ROWS nodes, so slots 0 and 1 are long,
    with drawn chords and a few isolated nodes after it."""
    m = draw(st.integers(SLOT_MIN_ROWS, 2 * SLOT_MIN_ROWS))
    pairs = st.tuples(st.integers(0, m - 1), st.integers(0, m - 1))
    chords = draw(st.lists(pairs, max_size=int(chords_per_node * m)))
    ring = [(i, (i + 1) % m) for i in range(m)]
    return Graph.from_edge_list(m + draw(st.integers(0, 3)), ring + chords)


def _input_kinds(n: int, d: int, seed: int) -> dict:
    """One N x d input per layout `apply` must take: strided, Fortran-ordered
    and int64."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, d))
    wide = np.zeros((2 * n, 3 * d))
    wide[::2, ::3] = v
    return {"strided": wide[::2, ::3], "fortran": np.asfortranarray(v),
            "int64": rng.integers(-9, 10, (n, d))}


def _check_long_slot_apply(op, want, isolated, d, seed):
    # bit for bit the apply of a C-contiguous float64 copy, the dense oracle
    # to 1e-12, and the rows of isolated nodes exactly the oracle's (0 when
    # there is no diagonal)
    for kind, x in _input_kinds(op.n, d, seed).items():
        got = op.apply(x)
        assert got.dtype == np.float64 and got.shape == x.shape, kind
        assert got.tobytes() == op.apply(np.ascontiguousarray(x, dtype=np.float64)).tobytes(), kind
        dense = want @ x
        scale = max(float(np.max(np.abs(dense))), 1.0)
        assert np.max(np.abs(got - dense)) <= 1e-12 * scale, kind
        assert np.array_equal(got[isolated], dense[isolated]), kind


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.sampled_from(LONG_SLOT_GRAPHS), _long_slot_graph()),
       st.sampled_from((1, 33)), st.integers(0, 2**32 - 1))
def test_sym_operator_apply_with_long_slots_takes_any_input_layout(graph, d, seed):
    op = graph.sym_operator
    assert op._slots
    _check_long_slot_apply(op, normalized_adjacency(graph, "sym"), graph.neighbours.deg == 0,
                           d, seed)


@settings(max_examples=20, deadline=None)
@given(st.one_of(st.sampled_from(LONG_SLOT_GRAPHS), _long_slot_graph()),
       st.sampled_from((1, 33)), st.integers(0, 2**32 - 1))
def test_edge_operator_diagonal_after_long_slots_matches_dense(graph, d, seed):
    # the diagonal's products go through the spent sums of the long slots
    rng = np.random.default_rng(seed)
    lay = graph.neighbours
    weights, diagonal = rng.uniform(-1.0, 2.0, len(lay.rows)), rng.uniform(-1.0, 2.0, graph.n)
    want = np.diag(diagonal)
    np.add.at(want, (lay.rows, lay.cols), weights)
    _check_long_slot_apply(EdgeOperator(lay, weights, diagonal), want, lay.deg == 0, d, seed)


@settings(max_examples=15, deadline=None)
@given(st.one_of(st.sampled_from(LONG_SLOT_GRAPHS), _long_slot_graph(chords_per_node=0.5)))
def test_sym_operator_apply_scratch_is_one_block_beside_its_output(traced_peak, graph):
    # The peak is the short entries' products beside the sums, then the sums
    # beside one scratch block: no temporary per long slot. Few chords keep
    # the short entries near N or below. Every broadcast product also takes
    # numpy's ufunc buffer (np.getbufsize() values, whatever N is), so d
    # keeps it within a tenth of an N x d block.
    d = -(-10 * np.getbufsize() // graph.n)
    block = graph.n * d * 8
    op, v = graph.sym_operator, np.random.default_rng(0).standard_normal((graph.n, d))
    op.apply(v)  # builds the layout's short-entry index for this d, kept after
    peak = traced_peak(lambda: op.apply(v))[0]
    assert peak <= 2.5 * block, f"peak {peak / block:.2f} N x d blocks"


def test_sym_operator_is_cached_and_checks_rows():
    g = Graph.from_edge_list(3, [(0, 1), (1, 2)])
    assert g.sym_operator is g.sym_operator
    with pytest.raises(DimensionError):
        g.sym_operator.apply(np.ones((4, 2)))


def test_er_graph_deterministic_and_density():
    g1 = er_graph(30, 0.3, 7)
    g2 = er_graph(30, 0.3, 7)
    assert np.array_equal(g1.edges, g2.edges)
    possible = 30 * 29 / 2
    assert 0.15 < len(g1.edges) / possible < 0.45


def _er_scalar_loop(n, p, seed):
    """The scalar-draw generator er_graph replaced: one rng.random() per
    pair i < j in row-major order."""
    rng = np.random.default_rng(seed)
    return [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]


@pytest.mark.parametrize("n, p, seed", [(1, 0.3, 0), (2, 1.0, 1), (16, 0.3, 5),
                                        (30, 1.0, 2), (57, 0.1, 9), (40, 0.0, 3)])
def test_er_graph_matches_the_scalar_draw_stream(n, p, seed):
    g = er_graph(n, p, seed)
    want = np.array(_er_scalar_loop(n, p, seed), dtype=np.int64).reshape(-1, 2)
    assert np.array_equal(g.edges, want)


def _bfs_connected(n, edges):
    adj = {i: [] for i in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 30), st.floats(0.0, 0.4), st.integers(0, 2**32 - 1))
def test_is_connected_matches_a_bfs(n, p, seed):
    g = er_graph(n, p, seed)
    assert is_connected(g) == _bfs_connected(n, g.edges.tolist())


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))))
def test_from_edge_list_matches_the_sorted_pair_set(case):
    n, pairs = case
    g = Graph.from_edge_list(n, pairs)
    want = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    assert np.array_equal(g.edges, np.array(want, dtype=np.int64).reshape(-1, 2))
    assert g.edges.dtype == np.int64 and not g.edges.flags.writeable


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=150))))
def test_single_key_edge_sort_matches_the_lexsort(case):
    # small n against many pairs draws repeats and self-loops; the reversed
    # copies repeat pairs in the other direction
    n, pairs = case
    pairs = pairs + [(v, u) for u, v in pairs[::3]]
    g = Graph.from_edge_list(n, pairs)
    assert np.array_equal(g.edges, from_edge_list_lexsort(n, pairs).edges)
    rows, cols = layout_lexsort(g.edges)
    assert np.array_equal(g.neighbours.rows, rows)
    assert np.array_equal(g.neighbours.cols, cols)


def test_from_edge_list_reports_out_of_range_ids():
    for bad in ((0, 5), (-1, 2), (2**40, 1), (-(2**40), 0), (2**62, 2**62 - 1)):
        with pytest.raises(ParameterError, match=r"out of range for n=5"):
            Graph.from_edge_list(5, [(0, 1), (1, 0), bad, (3, 3)])


def test_graph_edges_are_a_read_only_copy():
    e = np.array([[0, 1], [1, 2]])
    g = Graph(n=3, edges=e)
    e[0, 0] = 2
    assert np.array_equal(g.edges, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        g.edges[0, 0] = 2
    assert Graph(n=2, edges=()).edges.shape == (0, 2)


def test_is_connected():
    assert is_connected(Graph.from_edge_list(3, [(0, 1), (1, 2)]))
    assert not is_connected(Graph(n=3, edges=((0, 1),)))
    assert is_connected(Graph(n=1, edges=()))


def test_sbm_generate_shapes_and_split():
    ds = sbm_generate(2, 50, 0.2, 0.02, 8, 0.5, seed=0)
    assert ds.n == 100
    assert ds.features.shape == (100, 8)
    assert set(ds.split) == {"train", "val", "test"}
    # stratified 10/10/80
    for b in range(2):
        block = ds.split[ds.labels == b]
        assert np.sum(block == "train") == 5
        assert np.sum(block == "val") == 5


def test_sbm_homophily():
    ds = sbm_generate(2, 50, 0.3, 0.02, 4, 0.5, seed=1)
    same = sum(ds.labels[u] == ds.labels[v] for u, v in ds.graph.edges.tolist())
    assert same / len(ds.graph.edges) > 0.8


def test_sbm_deterministic_per_seed():
    a = sbm_generate(2, 20, 0.2, 0.05, 4, 0.5, seed=3)
    b = sbm_generate(2, 20, 0.2, 0.05, 4, 0.5, seed=3)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.graph.edges, b.graph.edges)
    assert np.array_equal(a.split, b.split)


def test_sbm_feature_shift_by_block():
    ds = sbm_generate(2, 500, 0.0, 0.0, 4, 2.0, seed=5)
    m0 = ds.features[ds.labels == 0].mean(axis=0)
    m1 = ds.features[ds.labels == 1].mean(axis=0)
    assert m0[0] > 1.5 and abs(m0[1]) < 0.5
    assert m1[1] > 1.5 and abs(m1[0]) < 0.5


def test_sbm_rejects_bad_probs():
    with pytest.raises(ParameterError):
        sbm_generate(2, 10, 0.1, 0.5, 4, 0.5, seed=0)  # p_out > p_in


_PROBS = st.sampled_from([0.0, 0.0, 0.05, 0.3, 1.0]) | st.floats(0.0, 1.0)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(1, 40), _PROBS, _PROBS, st.integers(1, 5),
       st.floats(-2.0, 2.0), st.integers(0, 2**32 - 1))
@example(1, 1, 0.3, 0.0, 1, 1.0, 0)  # N = 1: no pair at all
@example(1, SBM_BLOCK_ROWS + 1, 0.3, 0.0, 2, 1.0, 1)  # one block, N past a row block
@example(3, 45, 0.2, 0.0, 4, 0.5, 2)  # p_out = 0, N = 135 is no multiple of the rows
@example(2, 70, 0.0, 0.0, 3, 1.0, 3)  # p_in = p_out = 0: no draw
@example(5, 30, 1.0, 1.0, 2, 0.0, 4)  # p = 1: every pair
@example(SBM_BLOCK_ROWS + 3, 1, 0.9, 0.1, 3, 1.0, 5)  # per_block = 1
def test_sbm_generate_matches_the_scalar_double_loop(blocks, per_block, p_a, p_b,
                                                     feat_dim, shift, seed):
    p_in, p_out = max(p_a, p_b), min(p_a, p_b)
    got = sbm_generate(blocks, per_block, p_in, p_out, feat_dim, shift, seed)
    want = sbm_generate_loop(blocks, per_block, p_in, p_out, feat_dim, shift, seed)
    assert np.array_equal(got.features, want.features)
    assert np.array_equal(got.labels, want.labels)
    assert np.array_equal(got.split, want.split)
    assert np.array_equal(got.graph.edges, want.graph.edges)


def test_sbm_generate_scratch_is_row_blocks_not_pairs(traced_peak):
    n = 4000
    pair_array = n * n // 2 * 8  # one int64 or float64 per pair i < j: 64 MB
    # every pair draws
    peak, ds = traced_peak(lambda: sbm_generate(4, n // 4, 0.002, 0.002, 2, 1.0, seed=0))
    assert ds.n == n and len(ds.graph.edges) > 0
    assert peak < pair_array / 4, f"peak {peak / 1e6:.1f} MB"


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_dataset_round_trip(tmp_path):
    f = _write(tmp_path, "features.txt", "1.0 2.0\n3.0 4.0\n5.0 6.0\n")
    l = _write(tmp_path, "labels.txt", "0\n1\n-1\n")
    e = _write(tmp_path, "edges.txt", "0 1\n1 2\n")
    s = _write(tmp_path, "split.txt", "train\nval\ntest\n")
    ds = load_dataset(f, l, e, s)
    assert ds.features.shape == (3, 2)
    assert ds.labels.tolist() == [0, 1, -1]
    assert np.array_equal(ds.graph.edges, [(0, 1), (1, 2)])
    assert ds.split.tolist() == ["train", "val", "test"]
    assert ds.num_classes == 2
    assert not ds.mask("test").any()  # the one test row is unlabeled


def test_load_dataset_defaults(tmp_path):
    f = _write(tmp_path, "features.txt", "1.0\n2.0\n")
    l = _write(tmp_path, "labels.txt", "0\n1\n")
    ds = load_dataset(f, l)
    assert ds.graph is None
    assert ds.split.tolist() == ["test", "test"]


def test_load_dataset_errors_name_file_and_line(tmp_path):
    f = _write(tmp_path, "features.txt", "1.0\nnot-a-float\n")
    l = _write(tmp_path, "labels.txt", "0\n1\n")
    with pytest.raises(FormatError, match=r"features\.txt:2"):
        load_dataset(f, l)

    f2 = _write(tmp_path, "f2.txt", "1.0\n2.0\n")
    bad_edges = _write(tmp_path, "edges.txt", "0 9\n")
    with pytest.raises(FormatError, match=r"edges\.txt:1"):
        load_dataset(f2, l, bad_edges)

    bad_split = _write(tmp_path, "split.txt", "train\nholdout\n")
    with pytest.raises(FormatError, match=r"split\.txt:2"):
        load_dataset(f2, l, None, bad_split)

    for bad in ("-7", "-2", str(2**70)):  # -1 is the one negative label
        bad_labels = _write(tmp_path, "bad_labels.txt", f"-1\n{bad}\n")
        with pytest.raises(FormatError, match=r"bad_labels\.txt:2: bad label"):
            load_dataset(f2, bad_labels)


def test_load_dataset_rejects_non_finite_features(tmp_path):
    l = _write(tmp_path, "labels.txt", "0\n1\n")
    for i, bad in enumerate(("nan", "inf", "-inf")):
        f = _write(tmp_path, f"f{i}.txt", f"1.0 2.0\n3.0 {bad}\n")
        with pytest.raises(FormatError, match=rf"f{i}\.txt:2: non-finite value"):
            load_dataset(f, l)


def test_reader_line_numbers_count_blank_lines(tmp_path):
    f = _write(tmp_path, "features.txt", "1.0\n\n2.0\nx\n")
    with pytest.raises(FormatError, match=r"features\.txt:4: bad float"):
        read_features(f)
    ragged = _write(tmp_path, "ragged.txt", "1.0 2.0\n\n3.0\n")
    with pytest.raises(FormatError, match=r"ragged\.txt:3: inconsistent"):
        read_features(ragged)
    e = _write(tmp_path, "edges.txt", "0 1\n\n1 2 3\n")
    with pytest.raises(FormatError, match=r"edges\.txt:3: expected 'u v'"):
        read_edges(e, 3)
    empty = _write(tmp_path, "empty.txt", "\n")
    with pytest.raises(FormatError, match=r"empty\.txt: no feature rows"):
        read_features(empty)


def test_read_features_parses_a_plain_file_without_the_line_scan(tmp_path, monkeypatch):
    path = tmp_path / "features.txt"
    path.write_bytes(b"1 2\n\n-3.5e-1 +4.\r\n\t5E2 .5 \r-0 1e-320\r")

    def line_scan(path):
        raise AssertionError("line scan")

    monkeypatch.setattr("endiff.graphs._read_lines", line_scan)
    got = read_features(path)
    want = [[1.0, 2.0], [-0.35, 4.0], [500.0, 0.5], [-0.0, 1e-320]]
    assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64))


def test_read_features_holds_under_three_times_the_files_bytes(traced_peak, tmp_path):
    # a features file as `synth` writes it at N=2000 and 16 features, about
    # 640 KB; decoded into one str it would be held at 4 bytes a character
    values = np.random.default_rng(5).standard_normal((2000, 16))
    path = tmp_path / "features.txt"
    row = " ".join(["%.17g"] * 16) + "\n"
    path.write_text("".join(row % tuple(r) for r in values.tolist()))
    peak, got = traced_peak(lambda: read_features(path))
    assert np.array_equal(got, values)
    ratio = peak / path.stat().st_size
    assert ratio <= 3.0, f"peak {ratio:.2f} x the file's bytes"


def test_read_features_matches_float_on_repr_floats(tmp_path):
    rng = np.random.default_rng(12)
    bits = rng.integers(0, 2**63, size=(300, 7), dtype=np.int64) * rng.choice([-1, 1], (300, 7))
    values = bits.view(np.float64)
    values = np.where(np.isfinite(values), values, rng.standard_normal(values.shape))
    path = tmp_path / "features.txt"
    path.write_text("".join(" ".join(map(repr, row.tolist())) + "\n" for row in values))
    got = read_features(path)
    want = np.array([[float(tok) for tok in line.split()]
                     for line in path.read_text().splitlines()])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(got.view(np.int64), values.view(np.int64))


def _features_by_line(path):
    """Reference reader: the matrix, or the message of the first bad line,
    reading one line at a time with float()."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for ln, line in enumerate(fh, 1):
            toks = line.split()
            if not toks:
                continue
            try:
                row = [float(tok) for tok in toks]
            except ValueError:
                return f"{path}:{ln}: bad float"
            if rows and len(row) != len(rows[0][1]):
                return f"{path}:{ln}: inconsistent column count"
            rows.append((ln, row))
    if not rows:
        return f"{path}: no feature rows"
    for ln, row in rows:
        if not np.isfinite(row).all():
            return f"{path}:{ln}: non-finite value"
    return np.array([row for _, row in rows])


@st.composite
def _feature_files(draw):
    """Features-file bytes: floats in several spellings, mixed with tokens
    over the fast path's alphabet that may not parse, ragged rows, blank
    lines and every line break."""
    good = st.floats(allow_nan=False, allow_infinity=False).flatmap(
        lambda x: st.sampled_from([repr(x), f"{x:.17g}", f"{x:.3e}", f"{x:+.2f}"]))
    soup = st.text(alphabet="0123456789+-.eE", min_size=1, max_size=6)
    odd = st.sampled_from(["1e400", "-1e999", "nan", "inf", "1_0", "0x1p3", "\u0663"])
    token = st.one_of(good, good, soup, odd)
    width = draw(st.integers(1, 3))
    row = st.one_of(st.lists(good, min_size=width, max_size=width),
                    st.lists(token, min_size=0, max_size=4))
    sep = st.sampled_from([" ", "\t", "  "])
    lines = draw(st.lists(st.tuples(row, sep), max_size=8))
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    return "".join(s.join(toks) + draw(ends) for toks, s in lines).encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(_feature_files())
@example(b"1 2\nnan 3\n4 x\n")  # a non-finite row, then a bad float: the bad float
@example(b"inf 1\n2\n")  # a non-finite row, then a ragged one: the ragged row
@example(b"1_0 2\n3 4\n")  # valid, but not for the fast path
def test_read_features_matches_the_line_by_line_reader(data):
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "features.txt"
        path.write_bytes(data)
        want = _features_by_line(path)
        if isinstance(want, str):
            with pytest.raises(FormatError) as exc:
                read_features(path)
            assert str(exc.value) == want
        else:
            got = read_features(path)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _edges_by_line(path, n):
    """Reference reader: the sorted (min, max) pairs, or the message of the
    first bad line, reading one line at a time."""
    pairs = set()
    with open(path, encoding="utf-8") as fh:
        for ln, line in enumerate(fh, 1):
            toks = line.split()
            if not toks:
                continue
            if len(toks) != 2:
                return f"{path}:{ln}: expected 'u v'"
            try:
                u, v = int(toks[0]), int(toks[1])
            except ValueError:
                return f"{path}:{ln}: bad node id"
            if not (0 <= u < n and 0 <= v < n):
                return f"{path}:{ln}: node id out of range"
            if u != v:
                pairs.add((min(u, v), max(u, v)))
    return np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)


@st.composite
def _edge_files(draw):
    """Edge-file text on n nodes: good pairs in both directions, repeats and
    self-loops, mixed with bad tokens, wrong arity, out-of-range ids and
    blank lines."""
    n = draw(st.integers(1, 6))
    good = st.integers(0, n - 1).map(str)
    bad = st.sampled_from(["-1", str(n), "99", str(10**30), "x", "1.5", "0x1",
                           "+1", "1_0", "\u0663", "--2"])
    token = st.one_of(good, good, good, bad)
    sep = st.sampled_from([" ", "\t", "  "])
    pair = st.tuples(good, good).map(" ".join)
    line = st.one_of(
        pair, pair, pair,
        pair.map(lambda s: " ".join(reversed(s.split()))),
        good.map(lambda u: f"{u} {u}"),
        st.lists(token, min_size=0, max_size=3).flatmap(
            lambda toks: sep.map(lambda s: s.join(toks))),
        st.sampled_from(["", "   ", "\t"]),
    )
    lines = draw(st.lists(line, max_size=12))
    return n, "".join(f"{l}\n" for l in lines)


@settings(max_examples=300, deadline=None)
@given(_edge_files())
@example((3, ""))
@example((3, "0 1\n1 0\n\n2 2\n"))
@example((3, "0 1\n\n0 x\n5 5\n"))
@example((2, f"0 {10**30}\n0 1 1\n"))
def test_read_edges_matches_the_line_by_line_reader(case):
    import tempfile
    from pathlib import Path

    n, text = case
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "edges.txt"
        path.write_text(text, encoding="utf-8")
        want = _edges_by_line(path, n)
        if isinstance(want, str):
            with pytest.raises(FormatError) as exc:
                read_edges(path, n)
            assert str(exc.value) == want
        else:
            assert np.array_equal(read_edges(path, n).edges, want)


@pytest.mark.parametrize("n, text", [
    (3, "0 1\r\n1 2\r\n"), (3, "0 1\r1 2\r\r0 x\r"), (3, "0 1\r\n\r\n2 5\r\n"),
    (9, "007 1\n 2\t\t3 \n"), (3, " \t\n\n"), (3, "0 1 2\n0 1 2\n"), (3, "0\n1\n"),
    (3, f"0 {2**63 - 1}\n"), (3, f"0 {2**63}\n"), (20, "+1 0\n1_0 2\n"),
    (3, "0 1\n1 \u0662\n"), (3, "\ufeff0 1\n"), (3, "0 1\x0c1 2\n"),
])
def test_read_edges_line_breaks_and_ids_past_the_fast_path(tmp_path, n, text):
    path = tmp_path / "edges.txt"
    path.write_bytes(text.encode("utf-8"))
    want = _edges_by_line(path, n)
    if isinstance(want, str):
        with pytest.raises(FormatError) as exc:
            read_edges(path, n)
        assert str(exc.value) == want
    else:
        assert np.array_equal(read_edges(path, n).edges, want)


def test_read_edges_parses_a_plain_file_without_the_line_scan(tmp_path, monkeypatch):
    path = _write(tmp_path, "edges.txt", "0 1\n\n2 1\r\n\t3 0 \n1 0\n")

    def line_scan(path, n):
        raise AssertionError("line scan")

    monkeypatch.setattr("endiff.graphs._edge_ids_by_line", line_scan)
    assert np.array_equal(read_edges(path, 4).edges, [(0, 1), (0, 3), (1, 2)])
    assert read_edges(_write(tmp_path, "blank.txt", "\n \n"), 4).edges.shape == (0, 2)


def test_load_dataset_length_mismatch(tmp_path):
    f = _write(tmp_path, "features.txt", "1.0\n2.0\n")
    l = _write(tmp_path, "labels.txt", "0\n")
    with pytest.raises(FormatError):
        load_dataset(f, l)


def test_dataset_consistency_checks():
    with pytest.raises(ParameterError):
        Dataset(features=np.ones((3, 2)), labels=np.zeros(2),
                split=np.array(["test"] * 3, dtype=object))
