"""Train the all-pair propagation model on a two-block synthetic graph.

The features alone are barely separable (small per-block mean shift), so a
per-node classifier tops out near chance, while the propagation model can
exploit the homophilous structure. This is the paired run behind the
synthetic-learning acceptance gate.

Run: python3 demos/train_block_model.py
"""

from dataclasses import replace

import numpy as np

from endiff import ModelConfig, TrainConfig, sbm_generate, train_loop

accs = {"all-pair": [], "per-node": []}
for seed in range(3):
    ds = sbm_generate(blocks=2, per_block=100, p_in=0.2, p_out=0.02,
                      feat_dim=8, feat_shift=0.5, seed=seed)
    cfg = ModelConfig(variant="simple", input_dim=8, hidden_dim=16,
                      output_dim=2, layers=2, heads=1, tau=0.8,
                      use_graph=True)
    tcfg = TrainConfig(lr=0.01, epochs=500, patience=50, seed=seed)

    res = train_loop(ds, cfg, tcfg)
    accs["all-pair"].append(res.test_metric)
    print(f"seed {seed}: all-pair test accuracy {res.test_metric:.3f} "
          f"(best epoch {res.best_epoch})")

    # Matched baseline with all pairwise propagation removed: identity
    # coupling per head and no graph channel, everything else unchanged.
    res = train_loop(ds, replace(cfg, variant="mlp", use_graph=False), tcfg)
    accs["per-node"].append(res.test_metric)
    print(f"seed {seed}: per-node baseline     {res.test_metric:.3f}")

for name, values in accs.items():
    print(f"{name}: mean {np.mean(values):.3f} over {len(values)} seeds")
