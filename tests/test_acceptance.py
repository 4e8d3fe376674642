"""End-to-end acceptance gate.

One test per gated criterion; each prints a single PASS/FAIL line with the
measured quantity so the run log doubles as the audit record.
"""

import logging
import time
from dataclasses import replace

import numpy as np
import pytest

from dense_oracles import regularized_energy, surrogate_energy
from endiff.coupling import DenseAttention, PenaltyFamily, penalty_delta, penalty_f
from endiff.graphs import sbm_generate
from endiff.model import ModelConfig
from endiff.numerics import row_l2_normalize
from endiff.suites import (SUITES, run_suites, suite_gradcheck,
                           suite_linear_equiv, suite_oversmooth, suite_thm2)
from endiff.train import TrainConfig, train_loop

log = logging.getLogger("acceptance")


def _verdict(name, passed, detail=""):
    line = f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


def test_static_descent():
    t0 = time.monotonic()
    report = dict(run_suites(["thm1"], 100))["thm1"]
    wall = time.monotonic() - t0
    _verdict("static-descent", report["violations"] == 0 and wall < 10.0,
             f"{report['seeds']} instances, {report['violations']} violations, "
             f"{wall:.1f}s")


def test_energy_ratio_bracket():
    report = dict(run_suites(["prop1"], 100))["prop1"]
    _verdict("energy-ratio-bracket", report["violations"] == 0,
             f"ratios in [{report['min_ratio']:.3g}, {report['max_ratio']:.3g}], "
             f"{report['connected_instances']} connected")


def test_attention_descent():
    report = suite_thm2(seeds=100)
    for setting, count in report["ungated_violations"].items():
        log.info("ungated large-step setting %s: %d violations", setting, count)
    _verdict("attention-descent", report["violations"] == 0,
             f"gated tau {report['tau']}, {report['violations']} violations; "
             f"ungated {report['ungated_violations']}")


def test_surrogate_tightness_and_bound():
    rng = np.random.default_rng(0)
    z = row_l2_normalize(rng.standard_normal((10, 6)))
    zp = rng.standard_normal((10, 6))
    lam = 0.5
    worst_gap = 0.0
    worst_slack = np.inf
    for kind in ("simple", "advanced"):
        p = PenaltyFamily(kind)
        reg = regularized_energy(z, zp, p, lam)
        z_unit = row_l2_normalize(z)
        omega = DenseAttention(p, z_unit, z_unit).a
        worst_gap = max(worst_gap, abs(surrogate_energy(z, zp, omega, p, lam) - reg))
        f_lo = penalty_f(p, 4.0)
        f_hi = penalty_f(p, 0.0)
        for _ in range(500):
            trial = np.clip(
                omega + rng.uniform(-0.2, 0.2, size=omega.shape), f_lo, f_hi)
            worst_slack = min(
                worst_slack, surrogate_energy(z, zp, trial, p, lam) - reg)
    _verdict("surrogate-tightness-bound",
             worst_gap <= 1e-7 and worst_slack >= -1e-9,
             f"tightness gap {worst_gap:.2e}, min slack {worst_slack:.2e} "
             "over 1000 perturbations")


def test_linear_attention_equivalence():
    t0 = time.monotonic()
    report = suite_linear_equiv(seeds=50)
    wall = time.monotonic() - t0
    _verdict("linear-attention-equivalence",
             report["max_abs_diff"] <= 1e-10
             and report["max_abs_diff_model"] <= 1e-9
             and wall < 5.0,
             f"propagate {report['max_abs_diff']:.1e}, "
             f"model {report['max_abs_diff_model']:.1e}, {wall:.1f}s")


def test_oversmoothing_dichotomy():
    report = suite_oversmooth(seeds=5)
    final = report["diversity_final"]
    _verdict("oversmoothing-dichotomy", report["violations"] == 0,
             f"no-source max ratio "
             f"{max(final['static_nosource']['max'], final['attention_nosource']['max']):.1e}, "
             f"source min ratio "
             f"{min(final['static_source']['min'], final['attention_source']['min']):.1e}")


def test_gradient_integrity():
    report = suite_gradcheck()
    _verdict("gradient-integrity", report["violations"] == 0,
             f"max rel err {report['max_rel_err']:.1e} over "
             f"{len(report['per_config'])} configurations")


def test_penalty_family_consistency():
    grid = np.linspace(0.005, 3.995, 400)
    h = 1e-6
    worst = 0.0
    monotone = True
    nonneg = True
    for kind in ("simple", "advanced", "softmax"):
        p = PenaltyFamily(kind)
        prev = None
        for u in grid:
            f_val = penalty_f(p, u)
            fd = (penalty_delta(p, u + h) - penalty_delta(p, u - h)) / (2 * h)
            worst = max(worst, abs(fd - f_val) / max(abs(f_val), 1e-12))
            nonneg = nonneg and f_val >= 0.0
            if prev is not None:
                monotone = monotone and f_val <= prev + 1e-12
            prev = f_val
    _verdict("penalty-family-consistency",
             worst <= 1e-6 and monotone and nonneg,
             f"max rel fd error {worst:.1e}")


def test_synthetic_learning():
    t0 = time.monotonic()
    model_accs, mlp_accs = [], []
    for seed in range(5):
        ds = sbm_generate(2, 100, 0.2, 0.02, 8, 0.5, seed)
        cfg = ModelConfig(variant="simple", input_dim=8, hidden_dim=16,
                          output_dim=2, layers=2, heads=1, tau=0.8,
                          use_graph=True)
        tcfg = TrainConfig(lr=0.01, epochs=500, patience=50, seed=seed)
        model_accs.append(train_loop(ds, cfg, tcfg).test_metric)
        mlp_cfg = replace(cfg, variant="mlp", use_graph=False)
        mlp_accs.append(train_loop(ds, mlp_cfg, tcfg).test_metric)
    wall = time.monotonic() - t0
    mean_model = float(np.mean(model_accs))
    mean_mlp = float(np.mean(mlp_accs))
    _verdict("synthetic-learning",
             mean_model >= mean_mlp + 0.05 and mean_model >= 0.90 and wall < 120.0,
             f"all-pair {mean_model:.3f} vs per-node {mean_mlp:.3f}, {wall:.0f}s")


def test_full_audit_suite_runtime():
    t0 = time.monotonic()
    # one suite per call keeps each in this process, unforked
    reports = [dict(run_suites([name]))[name] for name in SUITES]
    wall = time.monotonic() - t0
    failed = [r["suite"] for r in reports if not r["passed"]]
    _verdict("full-audit-runtime", not failed and wall < 300.0,
             f"{len(reports)} suites in {wall:.0f}s, failures: {failed or 'none'}")
