"""Seeded invariant suites behind `endiff audit` and the acceptance tests.

Each suite returns a report dict with at least: suite, seeds, lambda, tau,
violations, passed. Descent/bound suites add min_ratio / max_ratio;
collapse suites add diversity_initial / diversity_final.
"""

from __future__ import annotations

import numpy as np

from .coupling import CouplingSpec, PenaltyFamily, SimpleAttention
from .diffusion import DiffusionConfig, linear_simple_propagate, run_trajectory
from .energy import audit_bounds, audit_descent, diversity
from .errors import ParameterError
from .graphs import Graph, er_graph, is_connected
from .model import ModelConfig, forward, init_model
from .numerics import (finite_diff_grad, laplacian_spectral_bracket,
                       row_l2_normalize)
from .tape import Eager

SUITES = ("thm1", "prop1", "thm2", "oversmooth", "linear_equiv", "gradcheck")

# Most bumped parameter copies one gradcheck forward evaluates. Each copy
# carries its own activations: stacks of 128 raised the peak memory of
# `audit --suite all` by about 2 MB, stacks of 32 by about 0.4 MB, and the
# larger stacks saved under 0.1 s.
GRADCHECK_STACK = 32


def _static_run(seed: int, steps: int = 20, n: int = 16):
    """One sym-normalized static instance on ER(n, 0.3) at
    tau = 0.9 / lambda_max."""
    g = er_graph(n, 0.3, seed)
    z0 = np.random.default_rng((seed, 1)).standard_normal((n, 4))
    spec = CouplingSpec("gcn_sym")
    bracket = laplacian_spectral_bracket(g.sym_operator.dense())
    if bracket.lambda_max <= 0:
        return None  # edgeless instance, nothing to diffuse
    tau = min(0.9 / bracket.lambda_max, 1.0)
    cfg = DiffusionConfig(tau=tau, steps=steps)
    return run_trajectory(z0, spec, cfg, g), g


def suite_thm1(seeds: int = 100) -> dict:
    """Static-coupling energy descent, slack 1e-9."""
    violations = 0
    tested = 0
    for seed in range(seeds):
        run = _static_run(seed)
        if run is None:
            continue
        traj, _ = run
        rep = audit_descent(traj, slack=1e-9)
        violations += rep.num_violations
        tested += 1
    return {
        "suite": "thm1",
        "seeds": tested,
        "lambda": "tau per instance",
        "tau": "0.9 / lambda_max per instance",
        "violations": violations,
        "passed": violations == 0,
    }


def suite_prop1(seeds: int = 100) -> dict:
    """Per-step energy-ratio bracket plus monotonicity on connected graphs."""
    violations = 0
    tested = 0
    min_ratio = np.inf
    max_ratio = -np.inf
    connected_checked = 0
    for seed in range(seeds):
        run = _static_run(seed)
        if run is None:
            continue
        traj, g = run
        rep = audit_bounds(traj)
        violations += rep.num_violations
        tested += 1
        if rep.min_ratio is not None:
            min_ratio = min(min_ratio, rep.min_ratio)
            max_ratio = max(max_ratio, rep.max_ratio)
        if is_connected(g):
            connected_checked += 1
            lam_min = rep.bracket[1]
            if lam_min > 1e-7:
                violations += 1
            for k in range(1, len(rep.energies)):
                if rep.energies[k] > rep.energies[k - 1] * (1.0 + 1e-8) + 1e-12:
                    violations += 1
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


def suite_thm2(seeds: int = 100, taus=(0.1, 0.25, 0.5),
               report_taus=(0.75, 1.0), steps: int = 10,
               n: int = 20, d: int = 8) -> dict:
    """Attention-coupling descent for the simple and advanced families.

    The gated step sizes must show zero violations at slack 1e-8; larger
    step sizes are run for the record but do not fail the suite (descent
    beyond tau = 0.5 is an open question, not a guarantee)."""
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
                rep = audit_descent(traj, lam=tau, slack=1e-8)
                count += rep.num_violations
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


def _connected_er(seed: int, n: int = 16, p: float = 0.3) -> Graph:
    for attempt in range(100):
        g = er_graph(n, p, (seed, attempt))
        if is_connected(g):
            return g
    raise ParameterError("could not draw a connected instance")


def suite_oversmooth(seeds: int = 5, steps: int = 500) -> dict:
    """Collapse dichotomy: without a source term long runs lose all row
    diversity; anchoring to the initial state preserves it. Checked for a
    static connected coupling and for the simple attention coupling."""
    violations = 0
    ratios = {}
    for seed in range(seeds):
        g = _connected_er(seed)
        rng = np.random.default_rng((seed, 3))
        z0 = rng.standard_normal((g.n, 4))
        cases = {
            "static_nosource": (CouplingSpec("gcn_sym"), 0.0, g),
            "static_source": (CouplingSpec("gcn_sym"), 1.0, g),
            "attention_nosource": (
                CouplingSpec("attention", PenaltyFamily("simple")), 0.0, None),
            "attention_source": (
                CouplingSpec("attention", PenaltyFamily("simple")), 1.0, None),
        }
        for name, (spec, beta, graph) in cases.items():
            cfg = DiffusionConfig(tau=0.5, steps=steps, beta=beta,
                                  record_every=steps)
            traj = run_trajectory(z0, spec, cfg, graph)
            d0 = diversity(traj.matrices[0])
            d1 = diversity(traj.matrices[-1])
            ratio = d1 / d0
            ratios.setdefault(name, []).append(ratio)
            if beta == 0.0 and ratio > 1e-6:
                violations += 1
            if beta > 0.0 and ratio < 0.01:
                violations += 1
    summary = {k: {"min": float(min(v)), "max": float(max(v))}
               for k, v in ratios.items()}
    return {
        "suite": "oversmooth",
        "seeds": seeds,
        "lambda": "lambda = tau",
        "tau": 0.5,
        "violations": violations,
        "diversity_initial": 1.0,
        "diversity_final": summary,
        "passed": violations == 0,
    }


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
    z0 = np.maximum(lnorm(x @ params["W_I"].T + params["b_I"]), 0.0)
    z = z0
    a_graph = g.sym_operator.dense() if cfg.use_graph else None
    for k in range(cfg.layers):
        heads = []
        for h in range(cfg.heads):
            q = z @ params[f"W_Q_{k}_{h}"].T
            key = z @ params[f"W_K_{k}_{h}"].T
            v = z @ params[f"W_V_{k}_{h}"].T
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
        if cfg.activation_between_layers == "relu":
            z = np.maximum(z, 0.0)
    return z @ params["W_O"] + params["b_O"]


def suite_linear_equiv(seeds: int = 50, n: int = 64, d: int = 8) -> dict:
    """O(N) simple-attention propagation against the dense O(N^2) oracle,
    both raw and end-to-end through the model forward."""
    max_prop = 0.0
    max_model = 0.0
    cfg = ModelConfig(variant="simple", input_dim=d, hidden_dim=d,
                      output_dim=3, layers=2, heads=1, tau=0.5)
    for seed in range(seeds):
        rng = np.random.default_rng((seed, 4))
        z = row_l2_normalize(rng.standard_normal((n, d)))
        diff = np.max(np.abs(linear_simple_propagate(z) - SimpleAttention(z).dense() @ z))
        max_prop = max(max_prop, float(diff))

        x = rng.standard_normal((n, d))
        params = init_model(cfg, seed)
        logits, _ = forward(params, x, None, cfg)
        ref = _dense_simple_forward(params, x, None, cfg)
        max_model = max(max_model, float(np.max(np.abs(logits.value - ref))))
    violations = int(max_prop > 1e-10) + int(max_model > 1e-9)
    return {
        "suite": "linear_equiv",
        "seeds": seeds,
        "lambda": None,
        "tau": cfg.tau,
        "violations": violations,
        "max_abs_diff": max_prop,
        "max_abs_diff_model": max_model,
        "passed": violations == 0,
    }


def gradcheck_model(cfg: ModelConfig, seed: int = 0, n: int = 12,
                    h: float = 1e-5) -> dict[str, float]:
    """Relative error of every tape gradient against central differences
    for a masked cross-entropy loss on random data. The differences of one
    parameter come from non-recording forwards over the stack of its bumped
    copies, GRADCHECK_STACK copies at a time."""
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
            losses = []
            for i in range(0, len(stack), GRADCHECK_STACK):
                part = stack[i:i + GRADCHECK_STACK]
                lg, ev = forward({**params, _name: part}, x, g, cfg, tape=Eager())
                # A parameter the forward ignores leaves one loss for every copy.
                losses.append(np.broadcast_to(
                    ev.masked_cross_entropy(lg, labels, mask), part.shape[:1]))
            return np.concatenate(losses)

        fd = finite_diff_grad(stacked_loss, params[name], h)
        denom = max(float(np.max(np.abs(fd))), 1e-8)
        errors[name] = float(np.max(np.abs(grads[name] - fd))) / denom
    return errors


def suite_gradcheck(tol: float = 1e-5) -> dict:
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
                bad = {k: v for k, v in errs.items() if v > tol}
                violations += len(bad)
                worst = max(worst, max(errs.values()))
                key = f"{variant}_graph{int(use_graph)}_source{int(use_source)}"
                detail[key] = {"max_rel_err": max(errs.values()),
                               "failures": sorted(bad)}
    return {
        "suite": "gradcheck",
        "seeds": 1,
        "lambda": None,
        "tau": 0.5,
        "violations": violations,
        "max_rel_err": worst,
        "per_config": detail,
        "passed": violations == 0,
    }


_SUITE_FNS = {
    "thm1": suite_thm1,
    "prop1": suite_prop1,
    "thm2": suite_thm2,
    "oversmooth": suite_oversmooth,
    "linear_equiv": suite_linear_equiv,
    "gradcheck": suite_gradcheck,
}


_REPORT_KEYS = ("suite", "seeds", "lambda", "tau", "violations", "min_ratio",
                "max_ratio", "diversity_initial", "diversity_final", "passed")


def run_suite(name: str, **kwargs) -> dict:
    if name not in _SUITE_FNS:
        raise ParameterError(f"unknown suite {name!r}; choose from {SUITES} or all")
    report = _SUITE_FNS[name](**kwargs)
    for key in _REPORT_KEYS:
        report.setdefault(key, None)
    return report


def run_all() -> list[dict]:
    return [run_suite(name) for name in SUITES]
