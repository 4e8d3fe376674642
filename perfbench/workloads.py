"""The benchmark's workloads: the `endiff` argv of one pass, per size.

Every path in an argv is relative to the run root, the directory a pass runs
in. Set-up writes the dataset to `data/`; each command of a pass writes to its
own directory under `out/`. Keeping these paths fixed makes the manifests of
two passes comparable byte for byte.
"""

from __future__ import annotations

WORKLOADS = ("train-sbm2k", "diffuse-attn2k", "audit-all")

# "full" is the benchmark; "tiny" exists for the self-check only.
SIZES = {
    "full": {
        "synth": ["--blocks", "4", "--per-block", "500", "--p-in", "0.02",
                  "--p-out", "0.002", "--feat-dim", "16", "--feat-shift", "1.0"],
        "nodes": 2000,
        "epochs": 20,
        "steps": 20,
        "audit": ["--suite", "all"],
    },
    "tiny": {
        "synth": ["--blocks", "2", "--per-block", "30", "--p-in", "0.2",
                  "--p-out", "0.02", "--feat-dim", "4", "--feat-shift", "1.0"],
        "nodes": 60,
        "epochs": 3,
        "steps": 3,
        "audit": ["--suite", "linear_equiv", "--seeds", "2"],
    },
}

DATA = ["--features", "data/features.txt", "--labels", "data/labels.txt",
        "--edges", "data/edges.txt", "--split", "data/split.txt"]

TAU = "0.25"  # Thm 2 guarantees attention descent at this step size

MIN_PASSES = 2  # per run, at the least: the rerun check compares passes

# The speed probe (probe.py) whose loop is bound by what each workload's
# passes are bound by: Python and numpy per-call overhead in the audit suites
# and in training at N=2000; memory traffic over N x N arrays in diffusion.
# Set-up (import and synth) uses "python", which can be armed before numpy is
# imported.
PROBE = {"train-sbm2k": "compute", "diffuse-attn2k": "memory", "audit-all": "compute"}


def synth_argv(workload: str, size: str, seed: int) -> list[str] | None:
    """The set-up command that writes the dataset, or None for audit-all."""
    if workload == "audit-all":
        return None
    return ["synth", *SIZES[size]["synth"], "--seed", str(seed), "--out", "data"]


def pass_commands(workload: str, size: str) -> list[tuple[str, list[str]]]:
    """(label, argv) of each command of one pass, in order."""
    s = SIZES[size]
    if workload == "train-sbm2k":
        return [
            ("train", ["train", "--use-graph", "--heads", "2", "--layers", "2",
                       "--hidden", "32", "--epochs", str(s["epochs"]), *DATA,
                       "--out", "out/train"]),
            ("eval", ["eval", "--checkpoint", "out/train/checkpoint.json",
                      *DATA, "--out", "out/eval"]),
        ]
    if workload == "diffuse-attn2k":
        return [("diffuse", ["diffuse", "--coupling", "attention", "--penalty",
                             "simple", "--tau", TAU, "--steps", str(s["steps"]),
                             "--features", "data/features.txt",
                             "--out", "out/diffuse"])]
    if workload == "audit-all":
        return [("audit", ["audit", *s["audit"], "--out", "out/audit"])]
    raise ValueError(f"unknown workload {workload!r}")
