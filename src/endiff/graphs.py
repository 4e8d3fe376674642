"""Undirected graph container, normalizations, kNN construction, synthetic data.

File formats (plain text, one record per line):
  features  whitespace-separated floats, one node per line
  labels    one integer per line, -1 marks unlabeled
  edges     "u v" integer pair, 0-indexed; directed input is symmetrized
  split     one of train/val/test per line
Cora adapter: content lines "id f1 ... fD class_name"; cites lines
"cited citing".
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import DimensionError, FormatError, ParameterError
from .numerics import as_matrix

ADJACENCY_MODES = ("sym", "row", "gin", "identity", "all_one")


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple[tuple[int, int], ...]
    degrees: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        e = self.edge_array
        lo, hi = e.min(axis=1), e.max(axis=1)
        loop = lo == hi
        outside = (lo < 0) | (hi >= self.n)
        # lo * n + hi names an in-range pair uniquely. A key an out-of-range
        # edge shares never decides the first fault: that edge is a fault
        # itself, and its range fault outranks the repeat.
        key = lo * self.n + hi
        order = np.argsort(key, kind="stable")
        repeat = np.zeros(len(e), dtype=bool)
        repeat[order[1:]] = key[order[1:]] == key[order[:-1]]
        bad = np.flatnonzero(loop | outside | repeat)
        if bad.size:  # the edge a scan in edge order would stop at
            i = bad[0]
            u, v = self.edges[i]
            if loop[i]:
                raise ParameterError(f"self-loop ({u},{v}) not allowed")
            if outside[i]:
                raise ParameterError(f"edge ({u},{v}) out of range for n={self.n}")
            raise ParameterError(f"duplicate edge ({u},{v})")
        deg = np.bincount(e.ravel(), minlength=self.n)
        object.__setattr__(self, "degrees", tuple(deg.tolist()))

    @staticmethod
    def from_edge_list(n: int, edges) -> "Graph":
        """Build a graph from possibly directed/duplicated pairs."""
        dedup = sorted({(min(u, v), max(u, v)) for u, v in edges if u != v})
        return Graph(n=n, edges=tuple(dedup))

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        for u, v in self.edges:
            a[u, v] = 1.0
            a[v, u] = 1.0
        return a

    @cached_property
    def edge_array(self) -> np.ndarray:
        """The edges as a read-only E x 2 int64 array, built on first use
        and kept."""
        flat = np.fromiter(chain.from_iterable(self.edges), dtype=np.int64)
        if flat.size != 2 * len(self.edges):
            raise ParameterError("every edge must be a (u, v) pair")
        arr = flat.reshape(-1, 2)
        arr.flags.writeable = False
        return arr

    @cached_property
    def sym_operator(self) -> "SymOperator":
        """D^-1/2 A D^-1/2 in O(E) storage, built on first use and kept."""
        return SymOperator(self.n, self.edge_array)


# Neighbour slots that reach fewer rows than this are summed by a single
# scatter-add: on them the fixed cost of one numpy call per slot outweighs
# the arithmetic.
SLOT_MIN_ROWS = 64


class SymOperator:
    """The sym-normalized adjacency D^-1/2 A D^-1/2 as neighbour lists.

    Built from an E x 2 array of undirected edges. Each row keeps its
    neighbours in ascending order with weights d_i^-1/2 d_j^-1/2; isolated
    nodes have empty (zero) rows. `apply(V)` costs O(E d) time and O(E d)
    scratch, and never forms an N x N array. The operator is symmetric, so
    it is also its own transpose.
    """

    def __init__(self, n: int, edges: np.ndarray):
        src = np.concatenate([edges[:, 0], edges[:, 1]])
        dst = np.concatenate([edges[:, 1], edges[:, 0]])
        deg = np.bincount(src, minlength=n)
        inv_sqrt = np.zeros(n)
        inv_sqrt[deg > 0] = 1.0 / np.sqrt(deg[deg > 0])
        by_row = np.lexsort((dst, src))
        rows, cols = src[by_row], dst[by_row]
        weights = inv_sqrt[rows] * inv_sqrt[cols]
        row_start = np.cumsum(deg) - deg
        # Rows ordered by falling degree: slot k holds the k-th neighbour of
        # every row with degree > k, and those rows are a prefix of the order.
        # The slots cover each stored entry once, so there is no padding.
        self.n = n
        self._order = np.argsort(-deg, kind="stable")
        counts = np.searchsorted(-deg[self._order],
                                 -np.arange(deg.max(initial=0)), side="left")
        # Long slots are added as contiguous prefixes of the sorted rows; the
        # short ones are pooled as (target row, neighbour, weight) entries.
        self._slots = []
        short_rows, short_pos = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
        for k, count in enumerate(counts.tolist()):
            pos = row_start[self._order[:count]] + k
            if count >= SLOT_MIN_ROWS:
                self._slots.append((count, cols[pos], weights[pos][:, None]))
            else:
                short_rows.append(np.arange(count))
                short_pos.append(pos)
        targets = np.concatenate(short_rows)
        if not self._slots:  # nothing to permute back: scatter to node ids
            targets = self._order[targets]
        pos = np.concatenate(short_pos)
        self._short = (targets, cols[pos], weights[pos][:, None])
        # Flat scatter targets for the last column count d; a model applies
        # one d throughout, and a stacked forward's d changes per stack.
        self._short_index = (0, np.zeros(0, np.int64))

    def apply(self, v: np.ndarray) -> np.ndarray:
        """(D^-1/2 A D^-1/2) @ v for an N x d matrix v."""
        v = as_matrix(v)
        n, d = v.shape
        if n != self.n:
            raise DimensionError(f"operator on {self.n} nodes applied to {n} rows")
        rows, cols, weights = self._short
        cached_d, index = self._short_index
        if cached_d != d:
            index = (rows[:, None] * d + np.arange(d)).ravel()
            self._short_index = (d, index)
        acc = np.bincount(index, weights=(weights * v[cols]).ravel(),
                          minlength=n * d).reshape(n, d).astype(np.float64, copy=False)
        if not self._slots:
            return acc
        for count, slot_cols, slot_weights in self._slots:
            acc[:count] += slot_weights * v[slot_cols]
        out = np.empty_like(acc)
        out[self._order] = acc
        return out


@dataclass
class Dataset:
    features: np.ndarray  # N x D
    labels: np.ndarray  # N, int, -1 = unlabeled
    split: np.ndarray  # N, str in {train, val, test}
    graph: Graph | None = None

    def __post_init__(self):
        self.features = as_matrix(self.features)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.split = np.asarray(self.split, dtype=object)
        n = self.features.shape[0]
        if self.labels.shape[0] != n or self.split.shape[0] != n:
            raise ParameterError("features/labels/split lengths disagree")
        if self.graph is not None and self.graph.n != n:
            raise ParameterError("graph node count disagrees with features")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def num_classes(self) -> int:
        labeled = self.labels[self.labels >= 0]
        return int(labeled.max()) + 1 if labeled.size else 0

    def mask(self, tag: str) -> np.ndarray:
        return self.split == tag


def normalized_adjacency(g: Graph, mode: str) -> np.ndarray:
    """Coupling matrix for the static families.

    sym: D^-1/2 A D^-1/2, row: D^-1 A, gin: A + I, identity: I,
    all_one: ones / N. Isolated nodes get zero off-diagonal rows in the
    degree-normalized modes.
    """
    if mode not in ADJACENCY_MODES:
        raise ParameterError(f"unknown adjacency mode {mode!r}")
    n = g.n
    if mode == "identity":
        return np.eye(n)
    if mode == "all_one":
        return np.full((n, n), 1.0 / n)
    a = g.adjacency()
    if mode == "gin":
        return a + np.eye(n)
    deg = np.asarray(g.degrees, dtype=np.float64)
    if mode == "row":
        inv = np.divide(1.0, deg, out=np.zeros(n), where=deg > 0)
        return inv[:, None] * a
    inv_sqrt = np.divide(1.0, np.sqrt(deg), out=np.zeros(n), where=deg > 0)
    return inv_sqrt[:, None] * a * inv_sqrt[None, :]


def er_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), deterministic per seed."""
    if n < 1 or not (0.0 <= p <= 1.0):
        raise ParameterError(f"need n >= 1 and p in [0, 1], got n={n}, p={p}")
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return Graph.from_edge_list(n, edges)


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return len(seen) == g.n


def knn_graph(features: np.ndarray, k: int) -> Graph:
    """Symmetrized k-nearest-neighbor graph over Euclidean distances.

    Ties are broken toward the smaller node index, which makes the result
    deterministic for duplicated points.
    """
    x = as_matrix(features)
    n = x.shape[0]
    if not (1 <= k < n):
        raise ParameterError(f"k must satisfy 1 <= k < N, got k={k}, N={n}")
    sq = np.sum(x * x, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.fill_diagonal(d2, np.inf)
    edges = []
    for i in range(n):
        # argsort is stable, so equal distances resolve to lower indices
        nearest = np.argsort(d2[i], kind="stable")[:k]
        edges.extend((i, int(j)) for j in nearest)
    return Graph.from_edge_list(n, edges)


def sbm_generate(
    blocks: int,
    per_block: int,
    p_in: float,
    p_out: float,
    feat_dim: int,
    feat_shift: float,
    seed: int,
) -> Dataset:
    """Stochastic-block-model dataset with shifted-Gaussian features.

    Features are unit-variance Gaussian noise plus a per-block mean offset
    of magnitude feat_shift along axis (block index mod feat_dim). Split is
    a stratified 10/10/80 train/val/test shuffle, deterministic per seed.
    """
    if not (0.0 <= p_out <= p_in <= 1.0):
        raise ParameterError(f"need 0 <= p_out <= p_in <= 1, got {p_in}, {p_out}")
    if blocks < 1 or per_block < 1 or feat_dim < 1:
        raise ParameterError("blocks, per_block and feat_dim must be >= 1")
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


def _read_lines(path) -> list[tuple[int, str]]:
    """(line number, text) of each non-blank line; numbers count every line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return [(ln, line.rstrip("\n")) for ln, line in enumerate(fh, 1)
                    if line.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def read_features(path) -> np.ndarray:
    """N x D matrix from a features file; bad floats, ragged rows and
    non-finite values are rejected with the file and line."""
    return _feature_matrix(path, _read_lines(path), str.split)


def _feature_matrix(path, lines, tokens) -> np.ndarray:
    """Matrix of the feature tokens `tokens(text)` of each (line number,
    text) line, or a FormatError naming the first line with a bad float, a
    ragged row or a non-finite value."""
    if not lines:
        raise FormatError(f"{path}: no feature rows")
    try:
        features = np.array([[float(tok) for tok in tokens(line)] for _, line in lines])
    except ValueError:  # a bad float, or rows of unequal length
        raise _feature_error(path, lines, tokens) from None
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:
        raise FormatError(f"{path}:{lines[bad[0]][0]}: non-finite value")
    return features


def _feature_error(path, lines, tokens) -> FormatError:
    """The error of the first line that stops a features file from parsing."""
    width = None
    for ln, line in lines:
        try:
            row = [float(tok) for tok in tokens(line)]
        except ValueError:
            return FormatError(f"{path}:{ln}: bad float")
        if width is None:
            width = len(row)
        elif len(row) != width:
            return FormatError(f"{path}:{ln}: inconsistent column count")
    return FormatError(f"{path}: malformed features")


def atomic_write_text(path, text: str) -> None:
    """Write text through a temporary file in the same directory, so the
    path holds the old file or the whole new one, never a part."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_edges(path, n: int) -> Graph:
    """Graph on n nodes from an edges file of "u v" pairs; self-loops are
    dropped, directed and repeated pairs merged."""
    pairs = []
    for ln, line in _read_lines(path):
        toks = line.split()
        if len(toks) != 2:
            raise FormatError(f"{path}:{ln}: expected 'u v'")
        try:
            u, v = int(toks[0]), int(toks[1])
        except ValueError:
            raise FormatError(f"{path}:{ln}: bad node id") from None
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"{path}:{ln}: node id out of range")
        if u != v:
            pairs.append((u, v))
    return Graph.from_edge_list(n, pairs)


def load_dataset(features_path, labels_path, edges_path=None, split_path=None) -> Dataset:
    """Load a dataset from the plain-text formats described at module top."""
    features = read_features(features_path)
    n = features.shape[0]

    label_lines = _read_lines(labels_path)
    if len(label_lines) != n:
        raise FormatError(f"{labels_path}: expected {n} rows, got {len(label_lines)}")
    labels = np.empty(n, dtype=np.int64)
    for i, (ln, line) in enumerate(label_lines):
        try:
            labels[i] = int(line.strip())
        except ValueError:
            raise FormatError(f"{labels_path}:{ln}: bad label") from None

    graph = None if edges_path is None else read_edges(edges_path, n)

    if split_path is not None:
        split_lines = _read_lines(split_path)
        if len(split_lines) != n:
            raise FormatError(
                f"{split_path}: expected {n} rows, got {len(split_lines)}"
            )
        split = np.empty(n, dtype=object)
        for i, (ln, line) in enumerate(split_lines):
            tag = line.strip()
            if tag not in ("train", "val", "test"):
                raise FormatError(f"{split_path}:{ln}: bad split tag {tag!r}")
            split[i] = tag
    else:
        split = np.full(n, "test", dtype=object)

    return Dataset(features=features, labels=labels, split=split, graph=graph)


def load_cora(content_path, cites_path, per_class_train: int = 20,
              n_val: int = 500, n_test: int = 1000, seed: int = 0) -> Dataset:
    """Cora-format adapter: class indices by first appearance, node order by
    content file; the split takes per_class_train labeled nodes per class,
    then n_val / n_test from the remainder in a seeded shuffle."""
    ids: dict[str, int] = {}
    class_ids: dict[str, int] = {}
    labels = []
    lines = _read_lines(content_path)
    for ln, line in lines:
        toks = line.split()
        if len(toks) < 3:
            raise FormatError(f"{content_path}:{ln}: too few columns")
        node_id, cls = toks[0], toks[-1]
        if node_id in ids:
            raise FormatError(f"{content_path}:{ln}: duplicate id {node_id}")
        ids[node_id] = len(ids)
        labels.append(class_ids.setdefault(cls, len(class_ids)))
    features = _feature_matrix(content_path, lines, lambda line: line.split()[1:-1])
    n = len(ids)
    pairs = []
    for ln, line in _read_lines(cites_path):
        toks = line.split()
        if len(toks) != 2:
            raise FormatError(f"{cites_path}:{ln}: expected 'cited citing'")
        a, b = toks
        if a in ids and b in ids and a != b:
            pairs.append((ids[a], ids[b]))
    graph = Graph.from_edge_list(n, pairs)
    labels = np.asarray(labels, dtype=np.int64)

    rng = np.random.default_rng(seed)
    split = np.full(n, "none", dtype=object)  # nodes outside the protocol stay unused
    for c in range(labels.max() + 1):
        members = np.flatnonzero(labels == c)
        split[members[:per_class_train]] = "train"
    rest = rng.permutation(np.flatnonzero(split != "train"))
    split[rest[:n_val]] = "val"
    split[rest[n_val : n_val + n_test]] = "test"
    return Dataset(features=features, labels=labels, split=split, graph=graph)
