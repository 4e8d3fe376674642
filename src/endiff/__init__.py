"""Energy-constrained graph diffusion with linear all-pair attention.

Library layout:
  numerics   dense linear algebra helpers, Laplacian lambda_max, finite diffs
  tape       reverse-mode autodiff over float64 matrices
  graphs     graph container, sparse edge operators, synthetic and file datasets
  coupling   penalty families (f, delta) and coupling-matrix construction
  diffusion  explicit-Euler steppers and trajectory runner
  energy     the energies runs descend, descent / bound audits, trajectory CSV
  model      trainable multi-head propagation network on the tape
  train      Adam, losses, metrics, training loop
  suites     seeded invariant suites used by `endiff audit`
  cli        the `endiff` executable
"""

from .coupling import CouplingSpec, PenaltyFamily, penalty_delta, penalty_f
from .diffusion import (DiffusionConfig, Trajectory, euler_step,
                        linear_simple_propagate, run_trajectory)
from .energy import EnergyReport, audit_bounds, audit_descent, diversity
from .errors import EndiffError
from .graphs import Dataset, Graph, load_dataset, sbm_generate
from .model import Checkpoint, ModelConfig, forward, init_model
from .numerics import laplacian, laplacian_lambda_max, row_l2_normalize
from .tape import Tape
from .train import AdamState, TrainConfig, adam_step, metric, train_loop

__version__ = "0.1.0"

__all__ = [
    "AdamState", "Checkpoint", "CouplingSpec", "Dataset", "DiffusionConfig",
    "EndiffError", "EnergyReport", "Graph", "ModelConfig", "PenaltyFamily",
    "Tape", "TrainConfig", "Trajectory", "adam_step", "audit_bounds",
    "audit_descent", "diversity",
    "euler_step", "forward", "init_model", "laplacian",
    "laplacian_lambda_max", "linear_simple_propagate",
    "load_dataset", "metric", "penalty_delta", "penalty_f",
    "row_l2_normalize", "run_trajectory", "sbm_generate", "train_loop",
]
