"""Command-line surface: synth, diffuse, audit, train, eval, landscape.

Every command writes a run manifest (resolved configuration, input digests,
output paths, wall time) next to its outputs so a run can be reproduced
bit-for-bit. Exit codes: 0 success, 1 runtime/data error, 2 usage error,
3 audit violation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from .coupling import (ATTENTION_FAMILIES, PENALTY_KINDS, STATIC_FAMILIES,
                       CouplingSpec, PenaltyFamily, write_penalty_landscape)
from .diffusion import DiffusionConfig, run_trajectory
from .energy import write_trajectory_csv
from .errors import EndiffError, FormatError
from .graphs import (Dataset, atomic_write_text, er_graph, load_dataset,
                     read_edges, read_features, sbm_generate)
from .model import Checkpoint, ModelConfig, forward
from .numerics import row_l2_normalize
from .suites import SUITES, run_suite
from .tape import Eager
from .train import TrainConfig, metric, train_loop, write_history_csv

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_VIOLATION = 3


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir: Path, command: str, config: dict,
                   inputs: list, outputs: list, started: float) -> Path:
    manifest = {
        "command": command,
        "config": config,
        "seed": config.get("seed"),
        "input_digests": {str(p): _sha256(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "wall_time_s": round(time.monotonic() - started, 3),
    }
    path = out_dir / f"manifest_{command}.json"
    atomic_write_text(path, json.dumps(manifest, indent=2) + "\n")
    return path


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, default=Path("."), metavar="DIR")
    p.add_argument("--config", type=Path, default=None,
                   help="JSON file of defaults; explicit flags win")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--hidden", type=int, default=16)
    p.add_argument("--heads", type=int, default=1)
    p.add_argument("--variant", choices=("simple", "advanced", "mlp"),
                   default="simple")
    p.add_argument("--use-graph", action="store_true")
    p.add_argument("--use-source", action="store_true")


def _add_dataset_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--features", type=Path)
    p.add_argument("--labels", type=Path)
    p.add_argument("--edges", type=Path)
    p.add_argument("--split", type=Path)
    p.add_argument("--synth", choices=("sbm",),
                   help="generate a dataset instead of loading files")
    p.add_argument("--blocks", type=int, default=2)
    p.add_argument("--per-block", type=int, default=100)
    p.add_argument("--p-in", type=float, default=0.2)
    p.add_argument("--p-out", type=float, default=0.02)
    p.add_argument("--feat-dim", type=int, default=8)
    p.add_argument("--feat-shift", type=float, default=0.5)


def _config_defaults(path: Path, parser: argparse.ArgumentParser) -> dict:
    """--config JSON values as parser defaults, each passed through its
    flag's own type and choices, so that explicit flags still win."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            overrides = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}:{exc.lineno}: bad JSON: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from None
    if not isinstance(overrides, dict):
        raise FormatError(f"{path}: expected a JSON object")
    actions = {a.dest: a for a in parser._actions if a.default is not argparse.SUPPRESS}
    defaults = {}
    for key, value in overrides.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise FormatError(f"{path}: unknown config key {key!r}")
        defaults[action.dest] = _config_value(path, key, action, value)
    return defaults


def _config_value(path: Path, key: str, action: argparse.Action, value):
    if action.nargs == 0:  # a store_true flag
        if isinstance(value, bool):
            return value
        raise FormatError(f"{path}: {key}: expected true or false, got {value!r}")
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise FormatError(f"{path}: {key}: invalid value {value!r}")
    convert = action.type or str
    try:
        converted = convert(str(value))
    except ValueError:
        raise FormatError(
            f"{path}: {key}: invalid {convert.__name__} value {value!r}") from None
    if action.choices is not None and converted not in action.choices:
        raise FormatError(f"{path}: {key}: invalid choice {value!r} "
                          f"(choose from {', '.join(map(str, action.choices))})")
    return converted


def _resolve_dataset(args) -> tuple[Dataset, list[Path]]:
    if args.synth == "sbm":
        ds = sbm_generate(args.blocks, args.per_block, args.p_in, args.p_out,
                          args.feat_dim, args.feat_shift, args.seed)
        return ds, []
    if args.features is None or args.labels is None:
        raise EndiffError("need --features and --labels, or --synth sbm")
    ds = load_dataset(args.features, args.labels, args.edges, args.split)
    inputs = [p for p in (args.features, args.labels, args.edges, args.split)
              if p is not None]
    return ds, inputs


def _public_config(args, skip=("config", "out")) -> dict:
    cfg = {}
    for key, value in sorted(vars(args).items()):
        if key in skip or key in ("func", "parser", "command"):
            continue
        cfg[key] = str(value) if isinstance(value, Path) else value
    return cfg


# -- commands -----------------------------------------------------------


def cmd_synth(args) -> int:
    started = time.monotonic()
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    ds = sbm_generate(args.blocks, args.per_block, args.p_in, args.p_out,
                      args.feat_dim, args.feat_shift, args.seed)
    paths = {name: out / f"{name}.txt"
             for name in ("features", "labels", "edges", "split")}
    atomic_write_text(paths["features"], "".join(
        " ".join(f"{v:.17g}" for v in row) + "\n" for row in ds.features))
    atomic_write_text(paths["labels"], "".join(f"{v}\n" for v in ds.labels))
    atomic_write_text(paths["edges"], "".join(
        f"{u} {v}\n" for u, v in ds.graph.edges.tolist()))
    atomic_write_text(paths["split"], "".join(f"{tag}\n" for tag in ds.split))
    write_manifest(out, "synth", _public_config(args), [],
                   list(paths.values()), started)
    print(json.dumps({"nodes": ds.n, "edges": len(ds.graph.edges),
                      "out": str(out)}))
    return EXIT_OK


def cmd_diffuse(args) -> int:
    for flag in ("n", "dim"):
        if getattr(args, flag) < 1:
            args.parser.error(f"--{flag} must be >= 1, got {getattr(args, flag)}")
    if args.edges is not None and args.features is None:
        args.parser.error("--edges needs --features")
    if (args.use_source and args.coupling in ATTENTION_FAMILIES
            and (args.coupling, args.penalty) != ("attention", "quadratic")):
        # The source pushes pairwise distances past 4, out of the penalty's
        # domain. Only the unmasked quadratic family (S = 1/N) keeps every
        # step's differences a convex mix of unit-row differences.
        args.parser.error(f"--use-source is not supported with --coupling "
                          f"{args.coupling} --penalty {args.penalty}")
    started = time.monotonic()
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    inputs = []
    g = None
    if args.features is not None:
        z0 = read_features(args.features)
        inputs.append(args.features)
        if args.edges is not None:
            g = read_edges(args.edges, z0.shape[0])
            inputs.append(args.edges)
    else:
        rng = np.random.default_rng(args.seed)
        z0 = rng.standard_normal((args.n, args.dim))
        if args.coupling in ("gcn_sym", "gin", "gat_masked"):
            g = er_graph(args.n, 0.3, args.seed)
    if args.coupling in STATIC_FAMILIES:
        spec = CouplingSpec(args.coupling)
    else:
        penalty = PenaltyFamily(args.penalty)
        mask = g if args.coupling == "gat_masked" else None
        spec = CouplingSpec(args.coupling, penalty, mask)
        z0 = row_l2_normalize(z0)
    cfg = DiffusionConfig(tau=args.tau, steps=args.steps,
                          beta=1.0 if args.use_source else 0.0)
    traj = run_trajectory(z0, spec, cfg, g)
    csv_path = out / f"trajectory_{args.coupling}_tau{args.tau}.csv"
    write_trajectory_csv(traj, csv_path)
    write_manifest(out, "diffuse", _public_config(args), inputs,
                   [csv_path], started)
    print(json.dumps({"steps": args.steps, "csv": str(csv_path)}))
    return EXIT_OK


def cmd_audit(args) -> int:
    if args.seeds is not None and args.seeds < 1:
        args.parser.error(f"--seeds must be >= 1, got {args.seeds}")
    started = time.monotonic()
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    reports = []
    outputs = []
    for name in names:
        kwargs = {}
        if args.seeds is not None and name in ("thm1", "prop1", "thm2",
                                               "oversmooth", "linear_equiv"):
            kwargs["seeds"] = args.seeds
        report = run_suite(name, **kwargs)
        reports.append(report)
        path = out / f"audit_{name}.json"
        atomic_write_text(path, json.dumps(report, indent=2, default=float) + "\n")
        outputs.append(path)
        print(f"{name}: {'pass' if report['passed'] else 'FAIL'} "
              f"({report['violations']} violation(s))")
    write_manifest(out, "audit", _public_config(args), [], outputs, started)
    return EXIT_OK if all(r["passed"] for r in reports) else EXIT_VIOLATION


def _model_config_from_args(args, ds: Dataset) -> ModelConfig:
    return ModelConfig(
        variant=args.variant,
        input_dim=ds.features.shape[1],
        hidden_dim=args.hidden,
        output_dim=max(ds.num_classes, 1),
        layers=args.layers,
        heads=args.heads,
        tau=args.tau,
        use_graph=args.use_graph,
        use_source=args.use_source,
    )


def cmd_train(args) -> int:
    started = time.monotonic()
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    ds, inputs = _resolve_dataset(args)
    model_cfg = _model_config_from_args(args, ds)
    train_cfg = TrainConfig(lr=args.lr, weight_decay=args.weight_decay,
                            epochs=args.epochs, batch_size=args.batch_size,
                            patience=args.patience, seed=args.seed,
                            metric=args.metric)
    result = train_loop(ds, model_cfg, train_cfg)
    ckpt_path = out / "checkpoint.json"
    hist_path = out / "history.csv"
    result.checkpoint.save(ckpt_path)
    write_history_csv(result.history, hist_path)
    write_manifest(out, "train", _public_config(args), inputs,
                   [ckpt_path, hist_path], started)
    print(json.dumps({"best_epoch": result.best_epoch,
                      "val_metric": result.checkpoint.meta["metrics"]["val"],
                      "test_metric": result.test_metric,
                      "checkpoint": str(ckpt_path)}))
    return EXIT_OK


def cmd_eval(args) -> int:
    started = time.monotonic()
    ds, inputs = _resolve_dataset(args)
    ckpt = Checkpoint.load(args.checkpoint)
    inputs.append(args.checkpoint)
    logits, _ = forward(ckpt.params, ds.features, ds.graph, ckpt.config,
                        tape=Eager())
    values = {}
    for tag in ("train", "val", "test"):
        if ds.mask(tag).any():
            values[tag] = metric(args.metric, logits, ds.labels, ds.mask(tag))
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    write_manifest(out, "eval", _public_config(args), inputs, [], started)
    print(json.dumps({"metric": args.metric, **values}))
    return EXIT_OK


def cmd_landscape(args) -> int:
    started = time.monotonic()
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    families = PENALTY_KINDS if args.family == "all" else (args.family,)
    outputs = []
    for kind in families:
        path = out / f"landscape_{kind}.csv"
        write_penalty_landscape(path, PenaltyFamily(kind, dim_scale=args.dim_scale))
        outputs.append(path)
    write_manifest(out, "landscape", _public_config(args), [], outputs, started)
    print(json.dumps({"families": list(families), "out": str(out)}))
    return EXIT_OK


# -- parser -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="endiff",
        description="Energy-constrained graph diffusion: synthesis, audits, "
                    "training, and penalty landscapes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a block-model dataset")
    _add_common(p)
    _add_dataset_flags(p)
    p.set_defaults(func=cmd_synth, parser=p)

    p = sub.add_parser("diffuse", help="run a diffusion trajectory to CSV")
    _add_common(p)
    p.add_argument("--coupling", default="gcn_sym",
                   choices=STATIC_FAMILIES + ATTENTION_FAMILIES)
    p.add_argument("--penalty", default="simple", choices=PENALTY_KINDS)
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--use-source", action="store_true")
    p.add_argument("--n", type=int, default=32)
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--features", type=Path)
    p.add_argument("--edges", type=Path)
    p.set_defaults(func=cmd_diffuse, parser=p)

    p = sub.add_parser("audit", help="run seeded invariant suites")
    _add_common(p)
    p.add_argument("--suite", default="all", choices=SUITES + ("all",))
    p.add_argument("--seeds", type=int, default=None,
                   help="override the documented per-suite seed count")
    p.set_defaults(func=cmd_audit, parser=p)

    p = sub.add_parser("train", help="train a model")
    _add_common(p)
    _add_dataset_flags(p)
    _add_model_flags(p)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--weight-decay", type=float, default=0.0)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--batch-size", type=int, default=0)
    p.add_argument("--patience", type=int, default=0)
    p.add_argument("--metric", default="accuracy",
                   choices=("accuracy", "rocauc", "mse"))
    p.set_defaults(func=cmd_train, parser=p)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    _add_common(p)
    _add_dataset_flags(p)
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--metric", default="accuracy",
                   choices=("accuracy", "rocauc", "mse"))
    p.set_defaults(func=cmd_eval, parser=p)

    p = sub.add_parser("landscape", help="emit penalty-family tables")
    _add_common(p)
    p.add_argument("--family", default="all",
                   choices=PENALTY_KINDS + ("all",))
    p.add_argument("--dim-scale", type=float, default=1.0)
    p.set_defaults(func=cmd_landscape, parser=p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            args.parser.set_defaults(**_config_defaults(args.config, args.parser))
            args = parser.parse_args(argv)
        if args.seed < 0:  # numpy's generators take no negative seed
            args.parser.error(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except EndiffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
