"""Command-line surface: synth, diffuse, audit, train, eval, landscape.

Every command writes a run manifest (resolved configuration, input digests,
output paths, wall time) next to its outputs so a run can be reproduced
bit-for-bit. Exit codes: 0 success, 1 runtime/data error, 2 usage error,
3 audit violation.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import sys
import time
from contextlib import closing
from dataclasses import replace
from pathlib import Path

import numpy as np

from .coupling import (ATTENTION_FAMILIES, GRAPH_FAMILIES, PENALTY_KINDS,
                       STATIC_FAMILIES, CouplingSpec, PenaltyFamily,
                       penalty_f_range, write_penalty_landscape)
from .diffusion import DiffusionConfig, run_trajectory
from .energy import write_trajectory_csv
from .errors import EndiffError, FormatError, ParameterError
from .graphs import (atomic_write_text, er_graph, load_dataset,
                     read_edges, read_features, sbm_generate)
from .model import VARIANTS, Checkpoint, ModelConfig, forward
from .numerics import row_l2_normalize
from .suites import SEEDED_SUITES, SUITES, run_suites
from .tape import Eager
from .train import METRIC_KINDS, TrainConfig, metric, train_loop, write_history_csv

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
    p.add_argument("--out", type=Path, default=Path("."), metavar="DIR")
    p.add_argument("--config", type=Path, default=None,
                   help="JSON file of defaults; explicit flags win")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--hidden", type=int, default=16)
    p.add_argument("--heads", type=int, default=1)
    p.add_argument("--variant", choices=VARIANTS, default="simple")
    p.add_argument("--use-graph", action="store_true")
    p.add_argument("--use-source", action="store_true")


# The files synth writes, and the flags train and eval read them from.
_DATA_FILES = ("features", "labels", "edges", "split")


def _add_dataset_flags(p: argparse.ArgumentParser) -> None:
    for name in _DATA_FILES:
        p.add_argument(f"--{name}", type=Path)


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


def _data_files(args) -> tuple:
    """train's or eval's data files. --features and --labels are checked
    here rather than by argparse, so that --config can name them."""
    missing = [f"--{name}" for name in ("features", "labels")
               if getattr(args, name) is None]
    if missing:
        args.parser.error(f"the following arguments are required: {', '.join(missing)}")
    return args.features, args.labels, args.edges, args.split


def _check_tau(args) -> None:
    if not 0.0 < args.tau <= 1.0:  # NaN fails too
        args.parser.error(f"--tau must be in (0, 1], got {args.tau}")


def _check_edges(args, use_graph: bool, channel: str) -> None:
    """A usage error unless --edges is given exactly when the model has the
    graph channel, which `channel` names."""
    if use_graph != (args.edges is not None):
        args.parser.error(f"{channel} needs --edges" if use_graph
                          else f"--edges needs {channel}")


def _public_config(args) -> dict:
    return {key: str(value) if isinstance(value, Path) else value
            for key, value in sorted(vars(args).items())
            if key not in ("config", "out", "func", "parser", "command")}


# -- commands -----------------------------------------------------------


def cmd_synth(args) -> int:
    started = time.monotonic()
    ds = sbm_generate(args.blocks, args.per_block, args.p_in, args.p_out,
                      args.feat_dim, args.feat_shift, args.seed)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    paths = {name: out / f"{name}.txt" for name in _DATA_FILES}
    # %-formats over Python floats, ints and strings, one per feature row and
    # one per other file: formatting numpy scalars one at a time is slower
    row = " ".join(["%.17g"] * ds.features.shape[1]) + "\n"
    atomic_write_text(paths["features"], "".join(
        [row % tuple(values) for values in ds.features.tolist()]))
    atomic_write_text(paths["labels"], "%d\n" * ds.n % tuple(ds.labels.tolist()))
    atomic_write_text(paths["edges"], "%d %d\n" * len(ds.graph.edges)
                      % tuple(ds.graph.edges.ravel().tolist()))
    atomic_write_text(paths["split"], "%s\n" * ds.n % tuple(ds.split.tolist()))
    write_manifest(out, "synth", _public_config(args), [],
                   list(paths.values()), started)
    print(json.dumps({"nodes": ds.n, "edges": len(ds.graph.edges),
                      "out": str(out)}))
    return EXIT_OK


def cmd_diffuse(args) -> int:
    static = args.coupling in STATIC_FAMILIES
    # The parser leaves these flags None. One the run would ignore is a
    # usage error, and one it reads takes its default here, so that the
    # manifest records only the settings the run used.
    ignored = {"penalty": f"--coupling {args.coupling}"} if static else {}
    if args.features is not None:
        ignored |= dict.fromkeys(("n", "dim", "seed"), "--features")
    for flag, default in (("penalty", "simple"), ("n", 32), ("dim", 8), ("seed", 0)):
        if flag in ignored and getattr(args, flag) is not None:
            args.parser.error(f"--{flag} does not apply with {ignored[flag]}")
        if flag not in ignored and getattr(args, flag) is None:
            setattr(args, flag, default)
    for flag in ("n", "dim", "steps"):
        if flag not in ignored and getattr(args, flag) < 1:
            args.parser.error(f"--{flag} must be >= 1, got {getattr(args, flag)}")
    _check_tau(args)
    if args.edges is not None and args.features is None:
        args.parser.error("--edges needs --features")
    if (args.features is not None and args.edges is None
            and args.coupling in GRAPH_FAMILIES):
        args.parser.error(f"--coupling {args.coupling} with --features needs --edges")
    if args.use_source and not static:
        # The source pushes pairwise distances past 4, out of the penalty's
        # domain. Only unmasked attention with a constant f (S = 1/N) keeps
        # every step's differences a convex mix of unit-row differences.
        lo, hi = penalty_f_range(PenaltyFamily(args.penalty))
        if args.coupling != "attention" or lo != hi:
            args.parser.error(f"--use-source is not supported with --coupling "
                              f"{args.coupling} --penalty {args.penalty}")
    started = time.monotonic()
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
        if args.coupling in GRAPH_FAMILIES:  # a seeded ER graph
            g = er_graph(args.n, 0.3, args.seed)
    spec = CouplingSpec(args.coupling, None if static else PenaltyFamily(args.penalty))
    cfg = DiffusionConfig(tau=args.tau, steps=args.steps, use_source=args.use_source)
    traj = run_trajectory(z0 if static else row_l2_normalize(z0), spec, cfg, g)
    if static:
        # With S >= 0 the step Z - tau (diag(S 1) - S) Z mixes the rows
        # convexly while tau * max_i (S 1)_i <= 1; above it a run can diverge.
        top = float(traj.coupling.row_sums().max())
        if args.tau * top > 1.0:
            args.parser.error(f"--tau {args.tau} times the largest row sum {top:g} "
                              f"of the {args.coupling} coupling exceeds 1")
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"trajectory_{args.coupling}_tau{args.tau}.csv"
    write_trajectory_csv(traj, csv_path)
    write_manifest(out, "diffuse", _public_config(args), inputs,
                   [csv_path], started)
    print(json.dumps({"steps": args.steps, "csv": str(csv_path)}))
    return EXIT_OK


def cmd_audit(args) -> int:
    if args.seeds is not None and args.seeds < 1:
        args.parser.error(f"--seeds must be >= 1, got {args.seeds}")
    if args.seeds is not None and args.suite not in SEEDED_SUITES + ("all",):
        args.parser.error(f"--seeds does not apply to --suite {args.suite}")
    started = time.monotonic()
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    reports = []
    outputs = []
    with closing(run_suites(names, args.seeds)) as runs:
        for name, report in runs:
            reports.append(report)
            path = out / f"audit_{name}.json"
            atomic_write_text(path, json.dumps(report, indent=2, default=float) + "\n")
            outputs.append(path)
            print(f"{name}: {'pass' if report['passed'] else 'FAIL'} "
                  f"({report['violations']} violation(s))")
    write_manifest(out, "audit", _public_config(args), [], outputs, started)
    return EXIT_OK if all(r["passed"] for r in reports) else EXIT_VIOLATION


def cmd_train(args) -> int:
    files = _data_files(args)
    _check_edges(args, args.use_graph, "--use-graph")
    _check_tau(args)
    # every setting is checked before a file is read; the data fixes the
    # model's input and output sizes after
    model_cfg = ModelConfig(variant=args.variant, hidden_dim=args.hidden,
                            layers=args.layers, heads=args.heads, tau=args.tau,
                            use_graph=args.use_graph, use_source=args.use_source)
    train_cfg = TrainConfig(lr=args.lr, weight_decay=args.weight_decay,
                            epochs=args.epochs, batch_size=args.batch_size,
                            patience=args.patience, seed=args.seed,
                            metric=args.metric)
    started = time.monotonic()
    ds = load_dataset(*files)
    model_cfg = replace(model_cfg, input_dim=ds.features.shape[1],
                        # mse regresses the label value: one output per node
                        output_dim=1 if args.metric == "mse" else max(ds.num_classes, 1))
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    result = train_loop(ds, model_cfg, train_cfg)
    ckpt_path = out / "checkpoint.json"
    hist_path = out / "history.csv"
    result.checkpoint.save(ckpt_path)
    write_history_csv(result.history, hist_path)
    write_manifest(out, "train", _public_config(args), list(filter(None, files)),
                   [ckpt_path, hist_path], started)
    print(json.dumps({"best_epoch": result.best_epoch,
                      "val_metric": result.checkpoint.meta["metrics"]["val"],
                      "test_metric": result.test_metric,
                      "checkpoint": str(ckpt_path)}))
    return EXIT_OK


def cmd_eval(args) -> int:
    files = _data_files(args)
    started = time.monotonic()
    ckpt = Checkpoint.load(args.checkpoint)
    _check_edges(args, ckpt.config.use_graph, "a checkpoint trained with --use-graph")
    # a regression's one output has no class to take the argmax of; a
    # hand-made checkpoint's meta may be any JSON value, or missing
    trained = ckpt.meta.get("metrics") if isinstance(ckpt.meta, dict) else None
    if (args.metric != "mse" and isinstance(trained, dict)
            and trained.get("metric_kind") == "mse"):
        raise ParameterError(f"{args.checkpoint}: a checkpoint trained with --metric mse "
                             f"is scored by --metric mse, not --metric {args.metric}")
    ds = load_dataset(*files)
    logits, _ = forward(ckpt.params, ds.features, ds.graph, ckpt.config,
                        tape=Eager())
    values = {}
    for tag in ("train", "val", "test"):
        if ds.mask(tag).any():
            values[tag] = metric(args.metric, logits, ds.labels, ds.mask(tag))
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    write_manifest(out, "eval", _public_config(args),
                   [*filter(None, files), args.checkpoint], [], started)
    print(json.dumps({"metric": args.metric, **values}))
    return EXIT_OK


def cmd_landscape(args) -> int:
    started = time.monotonic()
    families = [PenaltyFamily(kind, dim_scale=args.dim_scale) for kind in
                (PENALTY_KINDS if args.family == "all" else (args.family,))]
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    outputs = []
    for p in families:
        path = out / f"landscape_{p.kind}.csv"
        write_penalty_landscape(path, p)
        outputs.append(path)
    write_manifest(out, "landscape", _public_config(args), [], outputs, started)
    print(json.dumps({"families": [p.kind for p in families], "out": str(out)}))
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--blocks", type=int, default=2)
    p.add_argument("--per-block", type=int, default=100)
    p.add_argument("--p-in", type=float, default=0.2)
    p.add_argument("--p-out", type=float, default=0.02)
    p.add_argument("--feat-dim", type=int, default=8)
    p.add_argument("--feat-shift", type=float, default=0.5)
    p.set_defaults(func=cmd_synth, parser=p)

    # --seed, --penalty, --n and --dim default in cmd_diffuse, where a run
    # that ignores one rejects it
    p = sub.add_parser("diffuse", help="run a diffusion trajectory to CSV")
    _add_common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--coupling", default="gcn_sym",
                   choices=STATIC_FAMILIES + ATTENTION_FAMILIES)
    p.add_argument("--penalty", choices=PENALTY_KINDS)
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--use-source", action="store_true")
    p.add_argument("--n", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--features", type=Path)
    p.add_argument("--edges", type=Path)
    p.set_defaults(func=cmd_diffuse, parser=p)

    # no abbreviations, or a stray --seed would run as --seeds
    p = sub.add_parser("audit", help="run seeded invariant suites", allow_abbrev=False)
    _add_common(p)
    p.add_argument("--suite", default="all", choices=SUITES + ("all",))
    p.add_argument("--seeds", type=int, default=None,
                   help="override the documented per-suite seed count")
    p.set_defaults(func=cmd_audit, parser=p)

    p = sub.add_parser("train", help="train a model")
    _add_common(p)
    _add_dataset_flags(p)
    _add_model_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--weight-decay", type=float, default=0.0)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--batch-size", type=int, default=0)
    p.add_argument("--patience", type=int, default=0)
    p.add_argument("--metric", default="accuracy", choices=METRIC_KINDS)
    p.set_defaults(func=cmd_train, parser=p)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    _add_common(p)
    _add_dataset_flags(p)
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--metric", default="accuracy", choices=METRIC_KINDS)
    p.set_defaults(func=cmd_eval, parser=p)

    p = sub.add_parser("landscape", help="emit penalty-family tables")
    _add_common(p)
    p.add_argument("--family", default="all",
                   choices=PENALTY_KINDS + ("all",))
    p.add_argument("--dim-scale", type=float, default=1.0)
    p.set_defaults(func=cmd_landscape, parser=p)

    return parser


# glibc's mallopt parameters M_TRIM_THRESHOLD and M_MMAP_THRESHOLD, and the
# values `main` fixes them at. By default glibc moves both thresholds with
# the size of the last mapped block freed, so which block went last decides
# when the heap top is trimmed, and a training epoch faults its working set
# in anew. Fixed, blocks under 4 MiB (an N=2000 head stack is 1 MB) are
# recycled from the heap, which gives its top back only once 64 MiB lie free
# there, and larger blocks are mapped and unmapped as before. A 32 MiB mmap
# threshold keeps blocks up to 32 MiB on the heap, where they fragment it:
# the peak RSS of a 2-epoch N=10^5 training rose from 733 to 777 MB.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD, _MMAP_THRESHOLD = 64 << 20, 4 << 20


def _fix_heap_policy() -> None:
    """Fix glibc's heap thresholds; nothing off Linux or where libc has no
    mallopt (musl's takes the call and does nothing)."""
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def main(argv=None) -> int:
    _fix_heap_policy()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            args.parser.set_defaults(**_config_defaults(args.config, args.parser))
            args = parser.parse_args(argv)
        if (getattr(args, "seed", None) or 0) < 0:  # numpy's generators take no negative seed
            args.parser.error(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except (EndiffError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:  # a model or state larger than memory
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
