"""One workload's job passes, in a fresh interpreter, through `endiff.cli.main`.

    python3 perfbench/worker.py --workload W --size full --work DIR \
        --seconds 20 --trace 0 --result DIR/worker.json

Started by run.py with `src/` on PYTHONPATH and DIR/run/data already written.
A single client runs the passes in a closed loop, one command after another,
in DIR/run; pass k is moved to DIR/run/pass<k> once it ends. A speed probe
samples the host's speed throughout each pass. With --trace 1 it then wraps
the endiff modules and repeats the set-up and one pass in DIR/trace, recording
spans.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads
from probe import SpeedProbe


def run_command(cli, label: str, argv: list[str]) -> dict:
    out = io.StringIO()
    err = io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects a usage error this way
        rc = exc.code
    except Exception:  # a traceback is a failed command, not a dead benchmark
        rc = None
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - started
    return {"label": label, "argv": argv, "rc": rc, "seconds": seconds,
            "stdout": out.getvalue(), "stderr": err.getvalue()[-4000:]}


def run_pass(cli, root: Path, commands, k: int, probe: SpeedProbe) -> dict:
    os.chdir(root)
    with probe:
        started = time.perf_counter()
        results = [run_command(cli, label, argv) for label, argv in commands]
        seconds = time.perf_counter() - started
    if Path("out").is_dir():
        os.replace("out", f"pass{k}")
    return {"seconds": seconds, "speed": probe.speed(), "probes": len(probe.samples),
            "commands": results}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--size", required=True, choices=tuple(workloads.SIZES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args(argv)

    import endiff
    import endiff.cli as cli

    commands = workloads.pass_commands(args.workload, args.size)
    probe = SpeedProbe(workloads.PROBE[args.workload])
    run_root = args.work / "run"
    passes = []
    while True:
        passes.append(run_pass(cli, run_root, commands, len(passes) + 1, probe))
        if args.trace:
            break  # one untraced pass is the base of the tracing overhead
        spent = [p["seconds"] for p in passes]
        if (len(passes) >= workloads.MIN_PASSES
                and sum(spent) + statistics.median(spent) > args.seconds):
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"endiff": endiff.__file__, "passes": passes, "peak_rss_mb": rss_mb}

    if args.trace:
        import tracing

        size = workloads.SIZES[args.size]
        rec = tracing.Recorder()
        tracing.install(rec)
        trace_root = args.work / "trace"
        trace_root.mkdir()
        os.chdir(trace_root)
        synth = workloads.synth_argv(args.workload, args.size, args.seed)
        setup = [] if synth is None else [run_command(cli, "synth", synth)]
        traced = run_pass(cli, trace_root, commands, 1, probe)
        spans = tracing.Spans(rec)
        rec.save(args.work / "spans.npz")
        result["traced_setup"] = setup
        result["traced_pass"] = traced
        result["layers"] = tracing.layer_metrics(spans, size["epochs"], size["steps"])

    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
