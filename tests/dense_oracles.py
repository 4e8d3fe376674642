"""Dense N x N reference forms that the sparse couplings (the masked
attention coupling among them) and the energies are checked against, a
materialized coupling array as a `Coupling` (`DenseCoupling`), the dense
matrix of any coupling (`dense_of`), the scalar
penalty pair, the concave conjugate and the surrogate energy of Thm 2's
proof with the regularized energy it bounds (no command computes them), the
scalar-draw block-model generator, the two-key edge sorts, the tape of
composed primitives and the two attention heads built
from them, the two-forward training loop, a trajectory's steps kept as a
list and its coupling row sums rebuilt per state, the thm1, prop1, thm2 and
oversmooth audits one seed at a time and the tie-by-tie ROC AUC. They loop, materialize, record node by node or
recompute on purpose and are meant for small N only."""

import math
from functools import partial

import numpy as np

from endiff.coupling import (Z_SQ_MAX, CouplingSpec, DenseAttention, MeanCoupling,
                             PenaltyFamily, SimpleAttention, _check_rows, _check_within,
                             coupling_operator, penalty_delta, penalty_f_range)
from endiff.diffusion import DiffusionConfig, Step, euler_step, run_trajectory
from endiff.energy import (_energy, _pairwise_sq_dists, _penalty_sum, audit_bounds,
                           audit_descent, diversity)
from endiff.errors import DimensionError, DomainError
from endiff.graphs import Dataset, Graph, er_graph, is_connected
from endiff.model import Checkpoint, forward, init_model
from endiff.numerics import (NORM_EPS, as_matrix, as_stack, laplacian_lambda_max,
                             row_l2_divisors, row_l2_normalize)
from endiff.suites import _connected_er
from endiff.tape import Eager, Tape, _unbroadcast
from endiff.train import (AdamState, TrainResult, _evaluate, _metric_improved,
                          adam_step, induced_subgraph, minibatch_partition)

STATIC_MODES = ("sym", "gin", "identity", "all_one")


class DenseCoupling:
    """A materialized N x N coupling array, or a stack (..., N, N) of them,
    seen through the `coupling.Coupling` protocol."""

    def __init__(self, s: np.ndarray):
        s = as_stack(s)
        if s.shape[-2] != s.shape[-1]:
            raise DimensionError(f"coupling must be square, got {s.shape}")
        self.s = s
        self.n = s.shape[-1]
        self._row_sums = s.sum(axis=-1)

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.s @ _check_rows(self.n, v)

    def row_sums(self) -> np.ndarray:
        return self._row_sums

    def dense(self) -> np.ndarray:
        return self.s


def dense_of(op) -> np.ndarray:
    """The N x N matrix S of any coupling, or (..., N, N) for a stack: the
    run-time protocol has no dense form, so the two couplings without one
    are materialized here, simple attention as `DenseAttention` does."""
    if isinstance(op, SimpleAttention):
        return DenseAttention(PenaltyFamily("simple"), op.z, op.z).dense()
    if isinstance(op, MeanCoupling):
        return np.full(op.batch + (op.n, op.n), 1.0 / op.n)
    return op.dense()


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
    deg = a.sum(axis=1)
    inv_sqrt = np.divide(1.0, np.sqrt(deg), out=np.zeros(n), where=deg > 0)
    return inv_sqrt[:, None] * a * inv_sqrt[None, :]


def pair_sum_loop(z, s) -> float:
    """sum_ij s_ij ||z_i - z_j||^2, one pair at a time."""
    n = z.shape[0]
    return sum(s[i, j] * float(np.sum((z[i] - z[j]) ** 2))
               for i in range(n) for j in range(n))


def quadratic_energy_loop(z, z_prev, s, lam: float) -> float:
    """||Z - Z_prev||_F^2 + lam * sum_ij s_ij ||z_i - z_j||^2, a static
    family's energy, with a dense coupling s and one pair at a time."""
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
        return coupling_operator(spec, z, g), DenseAttention(spec.penalty, z, z).dense()
    p = PenaltyFamily(name[4:], dim_scale=4.0)
    return coupling_operator(CouplingSpec("gat_masked", p), z, g), gat_masked_dense(p, z, g)


def gat_masked_dense(p: PenaltyFamily, z, g) -> np.ndarray:
    """The N x N gat_masked coupling at unit rows z: pairwise scores masked
    to the edges of g plus self-loops, each row divided by its sum. The
    oracle of `coupling.gat_masked_coupling`."""
    mask, (u, v) = np.eye(z.shape[0]), g.edges.T
    mask[u, v] = mask[v, u] = 1.0
    omega = DenseAttention(p, z, z).a * mask
    return omega / omega.sum(axis=1)[:, None]


def _check_domain_scalar(z_sq: float) -> float:
    z_sq = float(z_sq)
    if not (-1e-9 <= z_sq <= Z_SQ_MAX + 1e-9):
        raise DomainError(f"z_sq={z_sq} outside [0, {Z_SQ_MAX}]")
    return min(max(z_sq, 0.0), Z_SQ_MAX)


def penalty_f_scalar(p: PenaltyFamily, z_sq: float) -> float:
    """f(z^2) of one float, on `math`."""
    u = _check_domain_scalar(z_sq)
    if p.kind == "simple":
        return 2.0 - 0.5 * u
    if p.kind == "advanced":
        return 1.0 / (1.0 + math.exp(0.5 * u - 1.0))
    if p.kind == "softmax":
        return math.exp(1.0 - 0.5 * u) * math.exp(1.0 / math.sqrt(p.dim_scale))
    return 1.0


def penalty_delta_scalar(p: PenaltyFamily, z_sq: float) -> float:
    """delta(z^2) of one float, on `math`."""
    u = _check_domain_scalar(z_sq)
    if p.kind == "simple":
        return 2.0 * u - 0.25 * u * u
    if p.kind == "advanced":
        return u - 2.0 * math.log(math.exp(0.5 * u - 1.0) + 1.0)
    if p.kind == "softmax":
        scale = math.exp(1.0 / math.sqrt(p.dim_scale))
        return 2.0 * scale * (math.e - math.exp(1.0 - 0.5 * u))
    return u


# f^-1 per penalty kind: the argmin of omega*y - delta(y) before its clip to
# [0, 4]. Quadratic's objective is linear in y, so it sits at an end.
F_INVERSE = {
    "simple": lambda p, w: 2.0 * (2.0 - w),
    "advanced": lambda p, w: 2.0 + 2.0 * np.log(1.0 / w - 1.0),
    "softmax": lambda p, w: 2.0 - 2.0 * np.log(w / p.softmax_scale),
    "quadratic": lambda p, w: np.where(w < 1.0, Z_SQ_MAX, 0.0),
}


def penalty_conjugate(p: PenaltyFamily, omega):
    """Concave conjugate delta~(omega) = inf_{y in [0,4]} (omega*y - delta(y))
    of a float or elementwise of an array. The objective is convex, as f is
    non-increasing, so its minimizer is f^-1(omega) clipped to [0, 4]."""
    w = _check_within("omega", omega, *penalty_f_range(p))
    y = np.clip(F_INVERSE[p.kind](p, w), 0.0, Z_SQ_MAX)
    return (w * y - penalty_delta(p, y))[()]


def _check_same_shape(z: np.ndarray, z_prev: np.ndarray) -> None:
    if z.shape != z_prev.shape:
        raise DimensionError(f"shape mismatch: {z.shape} vs {z_prev.shape}")


def regularized_energy(z, z_prev, penalty: PenaltyFamily, lam: float):
    """||Z - Z_prev||_F^2 + lam * sum_ij delta(||z_i - z_j||^2): a float,
    or one value per slice of a stack."""
    z, z_prev = as_stack(z), as_stack(z_prev)
    _check_same_shape(z, z_prev)
    return _energy(Step(1, z, z_prev, None), z_prev, lam, partial(_penalty_sum, penalty))


def surrogate_energy(z, z_prev, omega, penalty: PenaltyFamily, lam: float) -> float:
    """Variational upper bound: the pairwise penalty is replaced by
    omega_ij * ||z_i - z_j||^2 - delta~(omega_ij) with the concave
    conjugate delta~."""
    z = as_matrix(z)
    z_prev = as_matrix(z_prev)
    omega = as_matrix(omega)
    _check_same_shape(z, z_prev)
    if omega.shape != (z.shape[0], z.shape[0]):
        raise DimensionError(f"omega {omega.shape} does not match {z.shape}")
    d2 = _pairwise_sq_dists(z)
    local = float(np.sum((z - z_prev) ** 2))
    pair = float(np.sum(omega * d2))
    conj = float(np.sum(penalty_conjugate(penalty, omega)))
    return local + lam * (pair - conj)


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


class ComposedTape(Tape):
    """A Tape with the transpose, elementwise, row-wise and row-broadcast
    primitives the fused heads and `add` replace, each with its own VJP, for
    the composed oracles and for losses such as sum_all(hadamard(out, W))
    in tests."""

    def transpose(self, a):
        # A contiguous copy: BLAS picks its kernel by layout, so a view
        # could change a product's last bits.
        return self._record(self._value(a).swapaxes(-1, -2).copy(), (a,),
                            lambda g: (g.swapaxes(-1, -2),))

    def hadamard(self, a, b):
        av, bv = self._value(a), self._value(b)
        if av.shape[-2:] != bv.shape[-2:]:
            raise DimensionError(f"hadamard shape mismatch: {av.shape} vs {bv.shape}")
        return self._record(av * bv, (a, b), lambda g: (g * bv, g * av))

    def sigmoid(self, a):
        x = self._value(a)
        y = np.empty_like(x)
        pos = x >= 0
        y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        y[~pos] = ex / (1.0 + ex)
        return self._record(y, (a,), lambda g: (g * y * (1.0 - y),))

    def reciprocal(self, a):
        y = 1.0 / self._value(a)
        return self._record(y, (a,), lambda g: (-g * y * y,))

    def row_l2_normalize(self, a):
        av = self._value(a)
        denom = row_l2_divisors(av)
        y = av / denom

        def vjp(g):
            # Rows at/below eps are a plain 1/eps scaling: no projection.
            dot = np.sum(g * y, axis=1, keepdims=True)
            dot[denom <= NORM_EPS] = 0.0
            return ((g - y * dot) / denom,)

        return self._record(y, (a,), vjp)

    def diag_scale_rows(self, a, v):
        """Multiply row i of `a` by scalar v[i, 0]."""
        av, vv = self._value(a), self._value(v)
        if vv.shape[-2:] != (av.shape[-2], 1):
            raise DimensionError(
                f"diag-scale-rows needs a {av.shape[-2]}x1 scale, got {vv.shape}")
        return self._record(av * vv, (a, v),
                            lambda g: (g * vv, np.sum(g * av, axis=1, keepdims=True)))

    def row_sum(self, a):
        av = self._value(a)
        return self._record(av.sum(axis=-1, keepdims=True), (a,),
                            lambda g: (np.broadcast_to(g, av.shape).copy(),))

    def sum_all(self, a):
        av = self._value(a)
        return self._record(np.array([[av.sum()]]), (a,),
                            lambda g: (np.full_like(av, g[0, 0]),))

    def broadcast_row(self, row, n):
        """The 1 x d `row` repeated over n rows: the bias broadcast the
        model once recorded before `Tape.add` took a one-row operand."""
        rv = self._value(row)
        shape = rv.shape
        if shape[-2] != 1:
            raise DimensionError(f"broadcast-row needs a 1xd row, got {shape}")
        return self._record(np.broadcast_to(rv, shape[:-2] + (n, shape[-1])), (row,),
                            lambda g: (_unbroadcast(g, shape),))


class ComposedEager(ComposedTape, Eager):
    """The composed primitives on the Tape that records nothing."""


def linear_attention_composed(t, q, k, v):
    """Tape.linear_attention recorded as the primitives it fuses:
    R [1(1^T V) + Q~(K~^T V)] with R = diag^-1(N + Q~(K~^T 1)), on
    Q~ and K~, the row-normalized Q and K."""
    n = v.shape[0]
    qt = t.row_l2_normalize(q)
    ones = t.constant(np.ones((n, 1)))
    kt_t = t.transpose(t.row_l2_normalize(k))
    denom = t.add(t.matmul(qt, t.matmul(kt_t, ones)), t.constant(np.full((n, 1), float(n))))
    col_v = t.matmul(t.transpose(ones), v)
    numer = t.add(t.broadcast_row(col_v, n), t.matmul(qt, t.matmul(kt_t, v)))
    return t.diag_scale_rows(numer, t.reciprocal(denom))


def sigmoid_attention_composed(t, q, k, v):
    """Tape.sigmoid_attention recorded as the primitives it fuses, in
    the order the model once ran them: diag^-1(A 1) A V with
    A = sigmoid(Q~ K~^T)."""
    qt = t.row_l2_normalize(q)
    kt = t.row_l2_normalize(k)
    a = t.sigmoid(t.matmul(qt, t.transpose(kt)))
    return t.diag_scale_rows(t.matmul(a, v), t.reciprocal(t.row_sum(a)))


def train_loop_two_forwards(dataset, model_cfg, train_cfg):
    """train_loop with a separate evaluation forward after every epoch's
    Adam step, full batch included: 2E forwards for E full-batch epochs."""
    params = init_model(model_cfg, train_cfg.seed)
    state = AdamState.for_params(params)
    history = []
    best_metric = None
    best_params = None
    best_epoch = -1
    stale = 0

    for epoch in range(train_cfg.epochs):
        epoch_losses = []
        batches = minibatch_partition(dataset.n, train_cfg.batch_size,
                                      train_cfg.seed, epoch)
        for idx in batches:
            bmask = dataset.mask("train")[idx]
            if not bmask.any():
                continue
            sub_g = dataset.graph
            if sub_g is not None and train_cfg.batch_size:
                sub_g = induced_subgraph(sub_g, idx)
            logits, tape = forward(params, dataset.features[idx], sub_g, model_cfg)
            if train_cfg.metric == "mse":
                target = dataset.labels[idx].astype(np.float64).reshape(-1, 1)
                lnode = tape.masked_mse(logits, target, bmask)
            else:
                lnode = tape.masked_cross_entropy(logits, dataset.labels[idx], bmask)
            epoch_losses.append(float(lnode.value[0, 0]))
            grads = tape.backward(lnode)
            adam_step(params, grads, state, train_cfg.lr, train_cfg.weight_decay)

        val_m, test_m = _evaluate(params, dataset, model_cfg, train_cfg.metric)
        history.append({
            "epoch": epoch,
            "train_loss": float(np.mean(epoch_losses)) if epoch_losses else float("nan"),
            "val_metric": val_m,
            "test_metric": test_m,
        })
        if best_metric is None or _metric_improved(train_cfg.metric, val_m, best_metric):
            best_metric = val_m
            best_params = {k: v.copy() for k, v in params.items()}
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if train_cfg.patience and stale >= train_cfg.patience:
                break

    test_best = history[best_epoch]["test_metric"]
    ckpt = Checkpoint(
        config=model_cfg,
        params=best_params,
        meta={
            "epoch": best_epoch,
            "seed": train_cfg.seed,
            "metrics": {
                "val": best_metric,
                "test": test_best,
                "metric_kind": train_cfg.metric,
            },
        },
    )
    return TrainResult(checkpoint=ckpt, history=history,
                       best_epoch=best_epoch, test_metric=test_best)


def coupled_step(z, s, tau):
    """`euler_step` on z's own operator pass (Y = Z, S Z): the step an
    attention run makes from its unit rows, with any coupling s."""
    z = as_stack(z)
    return euler_step(z, z, s.apply(z), s.row_sums(), tau)


def kept_steps(traj) -> list:
    """Every step of one pass over traj, kept: the list of states a run
    itself never holds, for the tests that compare runs step by step."""
    return list(traj)


def rebuilt_row_sums(traj, g) -> list:
    """Each state's coupling row sums S 1, rebuilt from the state: an
    attention coupling on the re-normalized state and the run's graph g,
    else the run's one static coupling."""
    return [(coupling_operator(traj.spec, row_l2_normalize(step.z), g)
             if traj.spec.is_attention else traj.coupling).row_sums()
            for step in kept_steps(traj)]


def rocauc_loop(scores, labels) -> float:
    """Mann-Whitney ROC AUC of binary labels, each run of tied scores given
    its midrank by walking the sorted scores one tie at a time."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(scores.size)
    sorted_scores = scores[order]
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0  # midrank, 1-based
        i = j + 1
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    u = float(np.sum(ranks[labels == 1])) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def static_run_per_seed(seed: int, steps: int = 20, n: int = 16):
    """The gcn_sym run of one static instance on ER(n, 0.3) at
    tau = min(0.9 / lambda_max, 1) and its lambda_max, or None for an
    edgeless graph."""
    g = er_graph(n, 0.3, seed)
    z0 = np.random.default_rng((seed, 1)).standard_normal((n, 4))
    lam = laplacian_lambda_max(g.sym_operator.dense())
    if lam <= 0:
        return None
    cfg = DiffusionConfig(tau=min(0.9 / lam, 1.0), steps=steps)
    return run_trajectory(z0, CouplingSpec("gcn_sym"), cfg, g), lam


def suite_thm1_per_seed(seeds: int = 100) -> dict:
    """The thm1 report of `suites._static_reports` with one trajectory per seed."""
    violations = 0
    tested = 0
    for seed in range(seeds):
        run = static_run_per_seed(seed)
        if run is None:
            continue
        violations += audit_descent(run[0], slack=1e-9).num_violations
        tested += 1
    return {
        "suite": "thm1",
        "seeds": tested,
        "lambda": "tau per instance",
        "tau": "0.9 / lambda_max per instance",
        "violations": violations,
        "passed": violations == 0,
    }


def suite_prop1_per_seed(seeds: int = 100) -> dict:
    """The prop1 report of `suites._static_reports` with one trajectory per
    seed."""
    violations = 0
    tested = 0
    min_ratio = np.inf
    max_ratio = -np.inf
    connected_checked = 0
    for seed in range(seeds):
        run = static_run_per_seed(seed)
        if run is None:
            continue
        traj, lam = run
        rep = audit_bounds(traj, lam)
        violations += rep.num_violations
        tested += 1
        if rep.min_ratio is not None:
            min_ratio = min(min_ratio, rep.min_ratio)
            max_ratio = max(max_ratio, rep.max_ratio)
        connected_checked += is_connected(traj.graph)
    return {
        "suite": "prop1",
        "seeds": tested,
        "lambda": "tau per instance",
        "tau": "0.9 / lambda_max per instance",
        "violations": violations,
        "min_ratio": float(min_ratio) if tested else None,
        "max_ratio": float(max_ratio) if tested else None,
        "connected_instances": connected_checked,
        "passed": violations == 0,
    }


def suite_thm2_per_seed(seeds: int = 100, taus=(0.1, 0.25, 0.5),
                        report_taus=(0.75, 1.0), steps: int = 10,
                        n: int = 20, d: int = 8) -> dict:
    """`suites.suite_thm2` with one trajectory per seed."""
    gated_violations = 0
    reported = {}
    for family in ("simple", "advanced"):
        spec = CouplingSpec("attention", PenaltyFamily(family))
        for tau in tuple(taus) + tuple(report_taus):
            count = 0
            for seed in range(seeds):
                rng = np.random.default_rng((seed, 2))
                z0 = row_l2_normalize(rng.standard_normal((n, d)))
                traj = run_trajectory(z0, spec, DiffusionConfig(tau=tau, steps=steps))
                count += audit_descent(traj, slack=1e-8).num_violations
            if tau in taus:
                gated_violations += count
            reported[f"{family}_tau_{tau}"] = count
    return {
        "suite": "thm2",
        "seeds": seeds,
        "lambda": "lambda = tau",
        "tau": list(taus),
        "violations": gated_violations,
        "ungated_violations": {k: v for k, v in reported.items()
                               if float(k.rsplit("_", 1)[1]) not in taus},
        "per_setting": reported,
        "passed": gated_violations == 0,
    }


def suite_oversmooth_per_seed(seeds: int = 5, steps: int = 500) -> dict:
    """`suites.suite_oversmooth` with one trajectory per seed and case."""
    violations = 0
    ratios = {}
    for seed in range(seeds):
        g = _connected_er(seed)
        rng = np.random.default_rng((seed, 3))
        z0 = rng.standard_normal((g.n, 4))
        cases = {
            "static_nosource": (CouplingSpec("gcn_sym"), False, g),
            "static_source": (CouplingSpec("gcn_sym"), True, g),
            "attention_nosource": (
                CouplingSpec("attention", PenaltyFamily("simple")), False, None),
            "attention_source": (
                CouplingSpec("attention", PenaltyFamily("simple")), True, None),
        }
        for name, (spec, use_source, graph) in cases.items():
            cfg = DiffusionConfig(tau=0.5, steps=steps, use_source=use_source)
            traj = run_trajectory(z0, spec, cfg, graph)
            ratio = diversity(kept_steps(traj)[-1].z) / diversity(traj.start)
            ratios.setdefault(name, []).append(ratio)
            if not use_source and ratio > 1e-6:
                violations += 1
            if use_source and ratio < 0.01:
                violations += 1
    return {
        "suite": "oversmooth",
        "seeds": seeds,
        "lambda": "lambda = tau",
        "tau": 0.5,
        "violations": violations,
        "diversity_initial": 1.0,
        "diversity_final": {k: {"min": float(min(v)), "max": float(max(v))}
                            for k, v in ratios.items()},
        "passed": violations == 0,
    }
