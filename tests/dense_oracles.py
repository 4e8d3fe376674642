"""Dense N x N reference forms that the sparse couplings and the energies
are checked against, the scalar-draw block-model generator, the two-key
edge sorts and the composed simple-attention head. They loop, materialize
or record node by node on purpose and are meant for small N only."""

import numpy as np

from endiff.coupling import CouplingSpec, PenaltyFamily, build_coupling, coupling_operator
from endiff.graphs import Dataset, Graph

STATIC_MODES = ("sym", "gin", "identity", "all_one")


def adjacency(g) -> np.ndarray:
    """The 0/1 adjacency matrix, one edge at a time."""
    a = np.zeros((g.n, g.n))
    for u, v in g.edges.tolist():
        a[u, v] = 1.0
        a[v, u] = 1.0
    return a


def normalized_adjacency(g, mode: str) -> np.ndarray:
    """Coupling matrix of a static family.

    sym: D^-1/2 A D^-1/2, gin: A + I, identity: I, all_one: ones / N.
    Isolated nodes get zero rows in sym.
    """
    if mode not in STATIC_MODES:
        raise ValueError(f"unknown adjacency mode {mode!r}")
    n = g.n
    if mode == "identity":
        return np.eye(n)
    if mode == "all_one":
        return np.full((n, n), 1.0 / n)
    a = adjacency(g)
    if mode == "gin":
        return a + np.eye(n)
    deg = np.asarray(g.degrees, dtype=np.float64)
    inv_sqrt = np.divide(1.0, np.sqrt(deg), out=np.zeros(n), where=deg > 0)
    return inv_sqrt[:, None] * a * inv_sqrt[None, :]


def pair_sum_loop(z, s) -> float:
    """sum_ij s_ij ||z_i - z_j||^2, one pair at a time."""
    n = z.shape[0]
    return sum(s[i, j] * float(np.sum((z[i] - z[j]) ** 2))
               for i in range(n) for j in range(n))


def quadratic_energy_loop(z, z_prev, s, lam: float) -> float:
    """Double-loop form of quadratic_energy with a dense coupling s."""
    return float(np.sum((z - z_prev) ** 2)) + lam * pair_sum_loop(z, s)


SPARSE_CASES = ("identity", "all_one", "gcn_sym", "gin", "gat_simple",
                "gat_advanced", "gat_softmax", "gat_quadratic", "quadratic")
STATIC_FAMILY_MODES = {"identity": "identity", "all_one": "all_one",
                       "gcn_sym": "sym", "gin": "gin"}


def sparse_case(name, g, z):
    """(operator, dense oracle) of one of SPARSE_CASES on g at unit rows z:
    a static family, gat_masked under a penalty, or quadratic attention."""
    if name in STATIC_FAMILY_MODES:
        return (coupling_operator(CouplingSpec(name), z, g),
                normalized_adjacency(g, STATIC_FAMILY_MODES[name]))
    if name == "quadratic":
        spec = CouplingSpec("attention", PenaltyFamily("quadratic"))
    else:
        spec = CouplingSpec("gat_masked", PenaltyFamily(name[4:], dim_scale=4.0), g)
    return coupling_operator(spec, z, g), build_coupling(spec, z)


def sbm_generate_loop(blocks, per_block, p_in, p_out, feat_dim, feat_shift, seed):
    """sbm_generate with one scalar rng.random() per pair i < j with p > 0,
    drawn in a double loop over the pairs."""
    rng = np.random.default_rng(seed)
    n = blocks * per_block
    labels = np.repeat(np.arange(blocks), per_block)
    feats = rng.standard_normal((n, feat_dim))
    for b in range(blocks):
        feats[labels == b, b % feat_dim] += feat_shift
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            p = p_in if labels[i] == labels[j] else p_out
            if p > 0.0 and rng.random() < p:
                edges.append((i, j))
    graph = Graph.from_edge_list(n, edges)
    split = np.empty(n, dtype=object)
    for b in range(blocks):
        idx = rng.permutation(np.flatnonzero(labels == b))
        n_train = max(1, round(0.1 * idx.size))
        n_val = max(1, round(0.1 * idx.size))
        split[idx[:n_train]] = "train"
        split[idx[n_train : n_train + n_val]] = "val"
        split[idx[n_train + n_val :]] = "test"
    return Dataset(features=feats, labels=labels, split=split, graph=graph)


def from_edge_list_lexsort(n, edges):
    """Graph.from_edge_list ordering the pairs by np.lexsort on two keys."""
    e = np.sort(np.array(edges, dtype=np.int64).reshape(-1, 2), axis=1)
    e = e[e[:, 0] != e[:, 1]]
    e = e[np.lexsort((e[:, 1], e[:, 0]))]
    first = np.ones(len(e), dtype=bool)
    first[1:] = np.any(e[1:] != e[:-1], axis=1)
    return Graph(n=n, edges=e[first])


def layout_lexsort(edges):
    """(rows, cols) of both directions of every edge, ordered by np.lexsort
    on (row, col)."""
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    by_row = np.lexsort((dst, src))
    return src[by_row], dst[by_row]


def linear_attention_composed(t, qt, kt, v):
    """Tape.linear_attention recorded as the eleven primitives it fuses:
    R [1(1^T V) + Q~(K~^T V)] with R = diag^-1(N + Q~(K~^T 1))."""
    n = v.shape[0]
    ones = t.constant(np.ones((n, 1)))
    kt_t = t.transpose(kt)
    denom = t.add(t.matmul(qt, t.matmul(kt_t, ones)), t.constant(np.full((n, 1), float(n))))
    col_v = t.matmul(t.transpose(ones), v)
    numer = t.add(t.broadcast_row(col_v, n), t.matmul(qt, t.matmul(kt_t, v)))
    return t.diag_scale_rows(numer, t.reciprocal(denom))
