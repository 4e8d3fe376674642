"""Seeded invariant suites behind `endiff audit` and the acceptance tests.

Each suite returns a report dict built by `_report`: suite, seeds, lambda,
tau and violations, then the suite's own keys, then passed. Descent/bound
suites add min_ratio / max_ratio; collapse suites add diversity_initial /
diversity_final. gradcheck differences each parameter through one
non-recording forward over the stack of all its bumped copies.

Every diffusion suite (thm1, prop1, thm2, oversmooth) steps its seeds as
stacks of at most SEED_STACK states, one trajectory per stack, each slice
bit for bit the run of its seed alone. The static runs couple slice b
along its own seed's graph, and thm1 and prop1 step each stack at its
instances' own step sizes. A seeded suite takes only its seed count and
gradcheck takes nothing: every other setting is a module constant.

thm1 and prop1 both come from one pass over the static instances: each
graph, SVD, stacked run and per-step energy is made once, and the descent
rule and the ratio bracket are applied to the same energies. `_reports`
turns suite names into reports: it makes that pass once per call and hands
each of the two suites its report at its turn. `run_suites` iterates it for
the suites this process runs. With two CPUs or more the model suites
(linear_equiv, then gradcheck), which share nothing with the dynamics
suites, run in one forked worker that iterates it too; the reports are the
same either way.
"""

from __future__ import annotations

import os
import signal
import sys
from collections import deque

import numpy as np

from .coupling import CouplingSpec, DenseAttention, PenaltyFamily
from .diffusion import DiffusionConfig, linear_simple_propagate, run_trajectory
from .energy import audit_bounds, audit_descent, descent_violations, diversity
from .errors import EndiffError, ParameterError
from .graphs import Graph, er_graph, is_connected
from .model import ModelConfig, forward, init_model
from .numerics import finite_diff_grad, laplacian_lambda_max, row_l2_normalize
from .tape import Eager

SEEDED_SUITES = ("thm1", "prop1", "thm2", "oversmooth", "linear_equiv")
SUITES = SEEDED_SUITES + ("gradcheck",)
# The suites whose reports both come from one static pass, and those that
# run a model rather than the dynamics and so share nothing with the rest.
STATIC_SUITES = ("thm1", "prop1")
MODEL_SUITES = ("linear_equiv", "gradcheck")

# Most seeds one stacked attention run steps at once. A run holds only its
# start and current states, so a stack costs a few states and one step's
# temporaries per slice: the CLI process of `audit --suite all`, with the
# model suites in its forked worker, peaked at 39.4, 39.9, 41.4 and 43.6 MB
# with stacks of 10, 20, 50 and 100 (2 CPUs, one BLAS thread). When stacks
# came in, every size from 10 up cut audit-all's time from 3.0 s one seed at
# a time to 1.2-1.6 s.
SEED_STACK = 20

# Static instances (thm1, prop1): steps and ER nodes. thm2: the gated step
# sizes, those run for the record only, steps and N x d starts. gradcheck:
# the largest relative error, and each model's seed, nodes and difference step.
STATIC_STEPS, STATIC_N = 20, 16
THM2_TAUS, THM2_REPORT_TAUS = (0.1, 0.25, 0.5), (0.75, 1.0)
THM2_STEPS, THM2_N, THM2_D = 10, 20, 8
OVERSMOOTH_STEPS = 500
LINEAR_EQUIV_N, LINEAR_EQUIV_D = 64, 8
GRADCHECK_TOL = 1e-5
GRADCHECK_SEED, GRADCHECK_N, GRADCHECK_H = 0, 12, 1e-5


def _report(suite: str, seeds, lam, tau, violations: int, **extra) -> dict:
    """A suite's report: the keys every suite writes, its own keys, then
    whether it passed."""
    return {"suite": suite, "seeds": seeds, "lambda": lam, "tau": tau,
            "violations": violations, **extra, "passed": violations == 0}


def _seed_chunks(seeds: int) -> list[range]:
    """The seeds 0..seeds-1 in consecutive stacks of at most SEED_STACK."""
    return [range(lo, min(lo + SEED_STACK, seeds)) for lo in range(0, seeds, SEED_STACK)]


def _static_runs(seeds: int):
    """One gcn_sym run of STATIC_STEPS steps per stack of at most SEED_STACK
    seeds, with the lambda_max of each slice's Laplacian. Slice b diffuses
    its seed's N x 4 start on its seed's ER(STATIC_N, 0.3) graph,
    sym-normalized, at tau = min(0.9 / lambda_max, 1); an edgeless graph,
    with nothing to diffuse, is left out of its stack."""
    spec = CouplingSpec("gcn_sym")
    for chunk in _seed_chunks(seeds):
        stack = []
        for seed in chunk:
            g = er_graph(STATIC_N, 0.3, seed)
            lam = laplacian_lambda_max(g.sym_operator.dense())
            if lam > 0:
                z0 = np.random.default_rng((seed, 1)).standard_normal((STATIC_N, 4))
                stack.append((g, z0, lam, min(0.9 / lam, 1.0)))
        if stack:
            graphs, starts, lams, taus = zip(*stack)
            cfg = DiffusionConfig(tau=np.array(taus), steps=STATIC_STEPS)
            yield run_trajectory(np.stack(starts), spec, cfg, graphs), lams


def _static_reports(seeds: int = 100) -> dict[str, dict]:
    """The thm1 and prop1 reports from one pass over the static instances:
    each stack's per-step energies are read once, by its bound audit, and
    thm1's descent rule is applied to the same energies."""
    tested = descent = bounds = connected_checked = 0
    lows, highs = [], []
    for traj, lams in _static_runs(seeds):
        tested += len(traj.start)
        rep = audit_bounds(traj, lams)
        descent += len(descent_violations(rep.energies, slack=1e-9))
        bounds += rep.num_violations
        lows += [r for r in rep.min_ratio if r is not None]
        highs += [r for r in rep.max_ratio if r is not None]
        connected_checked += sum(map(is_connected, traj.graph))
    lam, tau = "tau per instance", "0.9 / lambda_max per instance"
    return {"thm1": _report("thm1", tested, lam, tau, descent),
            "prop1": _report(
                "prop1", tested, lam, tau, bounds,
                min_ratio=float(min(lows, default=np.inf)) if tested else None,
                max_ratio=float(max(highs, default=-np.inf)) if tested else None,
                connected_instances=connected_checked)}


def suite_thm2(seeds: int = 100) -> dict:
    """Attention-coupling descent for the simple and advanced families.

    The gated step sizes must show zero violations at slack 1e-8; larger
    step sizes are run for the record but do not fail the suite (descent
    beyond tau = 0.5 is an open question, not a guarantee)."""
    reported, gated, ungated = {}, {}, {}
    starts = [row_l2_normalize(np.stack([
        np.random.default_rng((seed, 2)).standard_normal((THM2_N, THM2_D))
        for seed in chunk]))
        for chunk in _seed_chunks(seeds)]
    for family in ("simple", "advanced"):
        spec = CouplingSpec("attention", PenaltyFamily(family))
        for tau in THM2_TAUS + THM2_REPORT_TAUS:
            count = 0
            for z0 in starts:
                traj = run_trajectory(z0, spec, DiffusionConfig(tau=tau, steps=THM2_STEPS))
                count += audit_descent(traj, slack=1e-8).num_violations
            key = f"{family}_tau_{tau}"
            reported[key] = count
            (gated if tau in THM2_TAUS else ungated)[key] = count
    violations = sum(gated.values())
    return _report("thm2", seeds, "lambda = tau", list(THM2_TAUS), violations,
                   ungated_violations=ungated, per_setting=reported)


def _connected_er(seed: int, n: int = 16, p: float = 0.3) -> Graph:
    for attempt in range(100):
        g = er_graph(n, p, (seed, attempt))
        if is_connected(g):
            return g
    raise ParameterError("could not draw a connected instance")


def suite_oversmooth(seeds: int = 5) -> dict:
    """Collapse dichotomy: without a source term long runs lose all row
    diversity; anchoring to the initial state preserves it. Checked for a
    static connected coupling and for the simple attention coupling."""
    graphs = [_connected_er(seed) for seed in range(seeds)]
    starts = np.stack([np.random.default_rng((seed, 3)).standard_normal((g.n, 4))
                       for seed, g in enumerate(graphs)])
    static = CouplingSpec("gcn_sym")
    attention = CouplingSpec("attention", PenaltyFamily("simple"))
    cases = {"static_nosource": (static, False), "static_source": (static, True),
             "attention_nosource": (attention, False), "attention_source": (attention, True)}
    violations = 0
    ratios = {}
    for name, (spec, use_source) in cases.items():
        cfg = DiffusionConfig(tau=0.5, steps=OVERSMOOTH_STEPS, use_source=use_source)
        runs = (run_trajectory(starts[c.start:c.stop], spec, cfg,
                               None if spec.is_attention else graphs[c.start:c.stop])
                for c in _seed_chunks(seeds))
        ratio = np.hstack([diversity(deque(traj, maxlen=1).pop().z) / diversity(traj.start)
                           for traj in runs])
        ratios[name] = ratio.tolist()
        violations += int(np.sum(ratio < 0.01 if use_source else ratio > 1e-6))
    summary = {k: {"min": float(min(v)), "max": float(max(v))}
               for k, v in ratios.items()}
    return _report("oversmooth", seeds, "lambda = tau", 0.5, violations,
                   diversity_initial=1.0, diversity_final=summary)


def _dense_simple_forward(params, x, g, cfg: ModelConfig) -> np.ndarray:
    """Numpy reference for the simple variant that materializes the N x N
    attention: A = 1 + Q~ K~^T row-normalized. Used as the equivalence
    oracle for the linear-form forward."""
    from .numerics import LAYER_NORM_EPS

    def lnorm(m):
        mean = m.mean(axis=1, keepdims=True)
        var = np.mean((m - mean) ** 2, axis=1, keepdims=True)
        return (m - mean) / np.sqrt(var + LAYER_NORM_EPS)

    n = x.shape[0]
    z0 = np.maximum(lnorm(x @ params["W_I"] + params["b_I"]), 0.0)
    z = z0
    a_graph = g.sym_operator.dense() if cfg.use_graph else None
    for k in range(cfg.layers):
        heads = []
        for h in range(cfg.heads):
            q = z @ params[f"W_Q_{k}"][h]
            key = z @ params[f"W_K_{k}"][h]
            v = z @ params[f"W_V_{k}"][h]
            qt = row_l2_normalize(q)
            kt = row_l2_normalize(key)
            attn = 1.0 + qt @ kt.T
            s = attn / attn.sum(axis=1, keepdims=True)
            p = s @ v
            if a_graph is not None:
                p = p + a_graph @ v
            heads.append(p)
        p_bar = sum(heads) / len(heads)
        blend = cfg.tau * p_bar + (1.0 - cfg.tau) * z
        if cfg.use_source:
            blend = blend + cfg.tau * z0
        z = lnorm(blend)
    return z @ params["W_O"] + params["b_O"]


def suite_linear_equiv(seeds: int = 50) -> dict:
    """O(N) simple-attention propagation against the dense O(N^2) oracle,
    both raw and end-to-end through the model forward."""
    n, d = LINEAR_EQUIV_N, LINEAR_EQUIV_D
    max_prop = 0.0
    max_model = 0.0
    cfg = ModelConfig(variant="simple", input_dim=d, hidden_dim=d,
                      output_dim=3, layers=2, heads=1, tau=0.5)
    for seed in range(seeds):
        rng = np.random.default_rng((seed, 4))
        z = row_l2_normalize(rng.standard_normal((n, d)))
        dense = DenseAttention(PenaltyFamily("simple"), z, z).dense()
        diff = np.max(np.abs(linear_simple_propagate(z) - dense @ z))
        max_prop = max(max_prop, float(diff))

        x = rng.standard_normal((n, d))
        params = init_model(cfg, seed)
        logits, _ = forward(params, x, None, cfg, tape=Eager())
        ref = _dense_simple_forward(params, x, None, cfg)
        max_model = max(max_model, float(np.max(np.abs(logits - ref))))
    violations = int(max_prop > 1e-10) + int(max_model > 1e-9)
    return _report("linear_equiv", seeds, None, cfg.tau, violations,
                   max_abs_diff=max_prop, max_abs_diff_model=max_model)


def gradcheck_model(cfg: ModelConfig) -> dict[str, float]:
    """Relative error of every tape gradient against central differences
    for a masked cross-entropy loss on random data: for a stack of heads,
    the largest over its matrices, each relative to its own differences.
    The differences of one parameter come from one non-recording forward
    over the stack of its bumped copies."""
    seed, n = GRADCHECK_SEED, GRADCHECK_N
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, cfg.input_dim))
    labels = rng.integers(0, cfg.output_dim, size=n)
    mask = np.zeros(n, dtype=bool)
    mask[: max(2, n // 2)] = True
    g = _connected_er(seed, n=n, p=0.4) if cfg.use_graph else None
    params = init_model(cfg, seed)

    logits, tape = forward(params, x, g, cfg)
    loss = tape.masked_cross_entropy(logits, labels, mask)
    grads = tape.backward(loss)

    errors = {}
    for name in params:
        def stacked_loss(stack, _name=name):
            lg, ev = forward({**params, _name: stack}, x, g, cfg, tape=Eager())
            return ev.masked_cross_entropy(lg, labels, mask)[..., 0, 0]

        fd = finite_diff_grad(stacked_loss, params[name], GRADCHECK_H)
        err = np.max(np.abs(grads[name] - fd), axis=(-2, -1))
        denom = np.maximum(np.max(np.abs(fd), axis=(-2, -1)), 1e-8)
        errors[name] = float(np.max(err / denom))
    return errors


def suite_gradcheck() -> dict:
    """Gradient integrity across variants, graph channel, and source."""
    violations = 0
    worst = 0.0
    detail = {}
    for variant in ("simple", "advanced"):
        for use_graph in (False, True):
            for use_source in (False, True):
                cfg = ModelConfig(variant=variant, input_dim=5, hidden_dim=8,
                                  output_dim=3, layers=2, heads=2, tau=0.5,
                                  use_graph=use_graph, use_source=use_source)
                errs = gradcheck_model(cfg)
                bad = {k: v for k, v in errs.items() if v > GRADCHECK_TOL}
                violations += len(bad)
                worst = max(worst, max(errs.values()))
                key = f"{variant}_graph{int(use_graph)}_source{int(use_source)}"
                detail[key] = {"max_rel_err": max(errs.values()),
                               "failures": sorted(bad)}
    return _report("gradcheck", 1, None, 0.5, violations,
                   max_rel_err=worst, per_config=detail)


_SUITE_FNS = {
    "thm1": _static_reports,
    "prop1": _static_reports,
    "thm2": suite_thm2,
    "oversmooth": suite_oversmooth,
    "linear_equiv": suite_linear_equiv,
    "gradcheck": suite_gradcheck,
}


# The optional report keys, None where a suite does not write them.
_REPORT_KEYS = ("min_ratio", "max_ratio", "diversity_initial", "diversity_final")


def _reports(names, kwargs: dict):
    """Yield the report of each suite of `names` in turn, with every
    optional key; `kwargs` go to the seeded suites only. The static pass is
    made once per call, at the first of thm1 and prop1, and the other takes
    its report from it at its own turn."""
    made = {}  # reports made before their suite's turn
    for name in names:
        if name not in _SUITE_FNS:
            raise ParameterError(f"unknown suite {name!r}; choose from {SUITES} or all")
        if name not in made:
            result = _SUITE_FNS[name](**(kwargs if name in SEEDED_SUITES else {}))
            made.update(result if name in STATIC_SUITES else {name: result})
        report = made.pop(name)
        for key in _REPORT_KEYS:
            report.setdefault(key, None)
        yield report


def _suite_worker(conn, names: list[str], kwargs: dict) -> None:
    """The forked worker: the report of each suite of `names` in turn, each
    sent back as it is made, or the exception one raised, which ends it."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # on Ctrl-C the parent stops it
    try:
        for report in _reports(names, kwargs):
            conn.send((report, None))
    except Exception as exc:
        conn.send((None, exc))


def _fork_worker(names: list[str], kwargs: dict):
    """A started worker that runs the suites `names`, and the end their
    results arrive on."""
    import multiprocessing  # only here, so that importing endiff stays as fast

    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    # a child that flushes a buffer it inherited would print its lines twice
    sys.stdout.flush()
    sys.stderr.flush()
    worker = ctx.Process(target=_suite_worker, args=(send, names, kwargs), daemon=True)
    worker.start()
    send.close()  # so that a worker dying before it sends reads as end of file
    return worker, receive


def _worker_report(worker, receive, name: str) -> dict:
    """The worker's next report, that of suite `name`, or the exception it
    raised."""
    try:
        report, exc = receive.recv()
    except EOFError:
        worker.join()
        raise EndiffError(f"the {name} worker exited with code {worker.exitcode} "
                          "before sending its report") from None
    if exc is not None:
        raise exc
    return report


def run_suites(names, seeds: int | None = None):
    """Yield (name, report) for each suite of `names`, in order; `seeds`,
    if given, goes to the seeded suites. When `names` holds a model suite
    and a dynamics suite, and this process may run on two CPUs or more, the
    model suites run in a forked worker beside the others. Both processes
    make their reports through `_reports`. Each report of the worker, or the
    exception it raised, is yielded or raised at its turn, and the worker is
    reaped however the run ends."""
    names = list(names)
    kwargs = {} if seeds is None else {"seeds": seeds}
    forked = [name for name in names if name in MODEL_SUITES]
    if not (forked and len(forked) < len(names) and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2):
        forked = []
    worker = None
    if forked:
        worker, receive = _fork_worker(forked, kwargs)
    here = _reports([name for name in names if name not in forked], kwargs)
    try:
        for name in names:
            yield name, (_worker_report(worker, receive, name) if name in forked
                         else next(here))
        if worker is not None:
            worker.join()  # it exits once it has sent its last report
    finally:
        if worker is not None:
            receive.close()
            if worker.is_alive():
                worker.terminate()
            worker.join()
            worker.close()
