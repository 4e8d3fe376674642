"""Undirected graph container, its sparse edge operators, kNN, synthetic data.

File formats (plain text, one record per line):
  features  whitespace-separated floats, one node per line
  labels    one integer per line, -1 marks unlabeled
  edges     "u v" integer pair, 0-indexed; directed input is symmetrized
  split     one of train/val/test per line
Cora adapter: content lines "id f1 ... fD class_name"; cites lines
"cited citing".
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DimensionError, FormatError, ParameterError
from .numerics import as_matrix


@dataclass(frozen=True, eq=False)
class Graph:
    """An undirected simple graph on nodes 0..n-1. `edges`, its only edge
    storage, is a read-only E x 2 int64 array with one row per edge in
    either orientation, copied from any E x 2 integer input."""

    n: int
    edges: np.ndarray
    degrees: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        e = _as_pairs(self.edges)
        e.flags.writeable = False
        object.__setattr__(self, "edges", e)
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
            u, v = e[i]
            if loop[i]:
                raise ParameterError(f"self-loop ({u},{v}) not allowed")
            if outside[i]:
                raise ParameterError(f"edge ({u},{v}) out of range for n={self.n}")
            raise ParameterError(f"duplicate edge ({u},{v})")
        deg = np.bincount(e.ravel(), minlength=self.n)
        object.__setattr__(self, "degrees", tuple(deg.tolist()))

    @staticmethod
    def from_edge_list(n: int, edges) -> "Graph":
        """Build a graph from possibly directed/duplicated pairs; self-loops
        are dropped, and the edges come out as ascending (min, max) rows."""
        e = np.sort(_as_pairs(edges), axis=1)
        e = e[e[:, 0] != e[:, 1]]
        outside = (e[:, 0] < 0) | (e[:, 1] >= n)
        if outside.any():  # no key for these: Graph names the first one
            return Graph(n=n, edges=e[outside])
        # lo * n + hi orders the in-range pairs as (lo, hi), one key per
        # pair. np.unique would import numpy.ma on first use, about 15 ms.
        key = np.sort(e[:, 0] * n + e[:, 1])
        first = np.ones(key.size, dtype=bool)
        first[1:] = key[1:] != key[:-1]
        return Graph(n=n, edges=np.stack(np.divmod(key[first], n), axis=1))

    @cached_property
    def neighbours(self) -> "NeighbourLayout":
        """Both directions of every edge in row order, built on first use
        and kept."""
        return NeighbourLayout(self.n, self.edges)

    @cached_property
    def sym_operator(self) -> "EdgeOperator":
        """D^-1/2 A D^-1/2 in O(E) storage, built on first use and kept."""
        lay = self.neighbours
        inv_sqrt = np.zeros(self.n)
        inv_sqrt[lay.deg > 0] = 1.0 / np.sqrt(lay.deg[lay.deg > 0])
        return EdgeOperator(lay, inv_sqrt[lay.rows] * inv_sqrt[lay.cols])


def _as_pairs(edges) -> np.ndarray:
    """A fresh E x 2 int64 array of the pairs `edges`."""
    try:
        e = np.array(edges, dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        raise ParameterError("every edge must be a (u, v) pair of integers") from None
    if e.size == 0:
        e = e.reshape(0, 2)
    if e.ndim != 2 or e.shape[1] != 2:
        raise ParameterError("every edge must be a (u, v) pair")
    return e


# Neighbour slots that reach fewer rows than this are summed by a single
# scatter-add: on them the fixed cost of one numpy call per slot outweighs
# the arithmetic.
SLOT_MIN_ROWS = 64


class NeighbourLayout:
    """Both directions of every edge as (row, col) entries sorted by row,
    then col, and the plan by which `EdgeOperator` sums them; every
    operator on one graph shares it."""

    def __init__(self, n: int, edges: np.ndarray):
        src = np.concatenate([edges[:, 0], edges[:, 1]])
        dst = np.concatenate([edges[:, 1], edges[:, 0]])
        by_row = np.argsort(src * n + dst)  # one key per entry: (row, col) order
        self.n = n
        self.rows, self.cols = src[by_row], dst[by_row]
        self.deg = np.bincount(src, minlength=n)
        row_start = np.cumsum(self.deg) - self.deg
        # Rows ordered by falling degree: slot k holds the k-th neighbour of
        # every row with degree > k, and those rows are a prefix of the order.
        # The slots cover each stored entry once, so there is no padding.
        self.order = np.argsort(-self.deg, kind="stable")
        counts = np.searchsorted(-self.deg[self.order],
                                 -np.arange(self.deg.max(initial=0)), side="left")
        # Long slots are added as contiguous prefixes of the sorted rows; the
        # short ones are pooled as (target row, entry) pairs.
        self.slots = []
        short_rows, short_pos = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
        for k, count in enumerate(counts.tolist()):
            pos = row_start[self.order[:count]] + k
            if count >= SLOT_MIN_ROWS:
                self.slots.append((count, pos, self.cols[pos]))
            else:
                short_rows.append(np.arange(count))
                short_pos.append(pos)
        targets = np.concatenate(short_rows)
        if not self.slots:  # nothing to permute back: scatter to node ids
            targets = self.order[targets]
        pos = np.concatenate(short_pos)
        self.short = (targets, pos, self.cols[pos])
        # Flat scatter targets for the last column count d; a model applies
        # one d throughout, and a stacked forward's d changes per stack.
        self._short_index = (0, np.zeros(0, np.int64))

    def short_index(self, d: int) -> np.ndarray:
        """Flat targets in an N x d block of the pooled short entries."""
        if self._short_index[0] != d:
            self._short_index = (d, (self.short[0][:, None] * d + np.arange(d)).ravel())
        return self._short_index[1]


class EdgeOperator:
    """The coupling S = W + diag(c): one weight of W per entry of a
    `NeighbourLayout`, in its row order, and an optional diagonal c.

    `apply(V)` costs O(E d) time and scratch and never forms an N x N array;
    the entries are summed in one fixed order, the diagonal added last.
    """

    def __init__(self, layout: NeighbourLayout, weights: np.ndarray,
                 diagonal: np.ndarray | None = None):
        self.n = layout.n
        self.layout = layout
        self.weights = weights
        self.diagonal = diagonal
        self._slots = [(count, cols, weights[pos][:, None])
                       for count, pos, cols in layout.slots]
        targets, pos, cols = layout.short
        self._short = (targets, cols, weights[pos][:, None])
        sums = np.bincount(layout.rows, weights=weights, minlength=self.n)
        self._row_sums = sums if diagonal is None else sums + diagonal

    def apply(self, v: np.ndarray) -> np.ndarray:
        """S @ v for an N x d matrix v."""
        v = as_matrix(v)
        n, d = v.shape
        if n != self.n:
            raise DimensionError(f"operator on {self.n} nodes applied to {n} rows")
        _, cols, weights = self._short
        out = np.bincount(self.layout.short_index(d), weights=(weights * v[cols]).ravel(),
                          minlength=n * d).reshape(n, d).astype(np.float64, copy=False)
        if self._slots:
            acc = out
            for count, slot_cols, slot_weights in self._slots:
                acc[:count] += slot_weights * v[slot_cols]
            out = np.empty_like(acc)
            out[self.layout.order] = acc
        if self.diagonal is not None:
            out += self.diagonal[:, None] * v
        return out

    def row_sums(self) -> np.ndarray:
        """S @ 1, computed once."""
        return self._row_sums

    def dense(self) -> np.ndarray:
        """The N x N matrix S; for oracles and tests only."""
        s = np.zeros((self.n, self.n))
        s[self.layout.rows, self.layout.cols] = self.weights
        if self.diagonal is not None:
            s[np.diag_indices(self.n)] += self.diagonal
        return s


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


def er_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), deterministic per seed."""
    if n < 1 or not (0.0 <= p <= 1.0):
        raise ParameterError(f"need n >= 1 and p in [0, 1], got n={n}, p={p}")
    rng = np.random.default_rng(seed)
    # one draw per pair i < j in row-major order, the stream of a scalar
    # draw per pair
    i, j = np.triu_indices(n, 1)
    keep = rng.random(i.size) < p
    return Graph(n=n, edges=np.stack([i[keep], j[keep]], axis=1))


def is_connected(g: Graph) -> bool:
    """Whether node 0 reaches every node, growing the reached set across
    every edge at once; O(E) per hop of the graph's diameter."""
    u, v = g.edges[:, 0], g.edges[:, 1]
    seen = np.zeros(g.n, dtype=bool)
    seen[:1] = True
    while True:
        grown = seen.copy()
        grown[u[seen[v]]] = True
        grown[v[seen[u]]] = True
        if np.array_equal(grown, seen):
            return bool(seen.all())
        seen = grown


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
    # argsort is stable, so equal distances resolve to lower indices
    nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
    edges = np.stack([np.repeat(np.arange(n), k), nearest.ravel()], axis=1)
    return Graph.from_edge_list(n, edges)


# Rows of the pair grid that one block-model edge draw covers.
SBM_BLOCK_ROWS = 64


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

    The edges take one uniform draw per pair i < j whose probability is
    above 0, in row-major order, after the features and before the split;
    pairs at p = 0 draw nothing. The draw runs in blocks of SBM_BLOCK_ROWS
    rows, so its scratch is O(SBM_BLOCK_ROWS * N), never one entry per pair.
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
    cols = np.arange(n)
    edges = []
    for lo in range(0, n, SBM_BLOCK_ROWS):
        same = labels[lo:lo + SBM_BLOCK_ROWS, None] == labels
        live = cols > cols[lo:lo + SBM_BLOCK_ROWS, None]
        live &= np.where(same, p_in > 0.0, p_out > 0.0)
        # one array draw is the stream of that many scalar draws
        live[live] = rng.random(np.count_nonzero(live)) < np.where(same[live], p_in, p_out)
        i, j = np.nonzero(live)
        edges.append(np.stack([i + lo, j], axis=1))
    graph = Graph.from_edge_list(n, np.concatenate(edges))
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


def _load_numeric(path, file_bytes: bytes, dtype) -> np.ndarray | None:
    """The rows of a file made of `file_bytes` alone, parsed by one
    np.loadtxt pass (0 x 0 for a blank one); None for any other file or one
    loadtxt rejects."""
    try:
        data = Path(path).read_bytes()
    except OSError:
        return None
    if data.translate(None, file_bytes):
        return None
    if not data.strip():
        return np.zeros((0, 0), dtype)
    # newline=None breaks lines at \r\n, \r and \n, as the line scan's text
    # mode does; loadtxt skips blank lines, as _read_lines does, and raises
    # on a bad number, a ragged row and an integer past int64
    text = io.StringIO(data.decode("ascii"), newline=None)
    try:
        return np.loadtxt(text, dtype=dtype, ndmin=2, comments=None)
    except ValueError:
        return None


# The bytes of a features file whose values one numpy pass parses as float()
# would: ASCII digits, signs, points, exponents, blanks and line breaks.
# float() also takes nan, inf, underscores and non-ASCII digits, which go to
# the line scan.
FEATURE_FILE_BYTES = b"0123456789+-.eE \t\r\n"


def read_features(path) -> np.ndarray:
    """N x D matrix from a features file; bad floats, ragged rows and
    non-finite values are rejected with the file and line."""
    features = _load_numeric(path, FEATURE_FILE_BYTES, np.float64)
    if features is not None and features.size and np.isfinite(features).all():
        return features
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
    # "x" never reuses an existing name and, unlike mkstemp's 0600, gives
    # the file the mode a plain open() would
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_edges(path, n: int) -> Graph:
    """Graph on n nodes from an edges file of "u v" pairs; self-loops are
    dropped, directed and repeated pairs merged."""
    ids = _edge_ids(path, n)
    if ids is None:
        ids = _edge_ids_by_line(path, n)
    return Graph.from_edge_list(n, ids)


# The bytes of an edges file whose ids one numpy pass parses as int() would:
# ASCII digits, blanks and line breaks. int() also takes signs, underscores
# and non-ASCII digits, which go to the line scan.
EDGE_FILE_BYTES = b"0123456789 \t\r\n"


def _edge_ids(path, n: int) -> np.ndarray | None:
    """The E x 2 ids of a well-formed edges file of EDGE_FILE_BYTES alone,
    parsed in one numpy pass; None for any other file."""
    ids = _load_numeric(path, EDGE_FILE_BYTES, np.int64)
    if ids is None or (ids.size and (ids.shape[1] != 2 or np.any(ids >= n))):
        return None
    return ids.reshape(-1, 2)


def _edge_ids_by_line(path, n: int) -> np.ndarray:
    """The E x 2 ids of an edges file read one line at a time, or a
    FormatError naming the first bad line."""
    ids = []
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
        ids += (u, v)
    return np.array(ids, dtype=np.int64).reshape(-1, 2)


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
