"""Run one benchmark workload through the `endiff` CLI and print its metrics.

    python3 perfbench/run.py --workload train-sbm2k --seed 1 --seconds 20 --trace 0

Run it from the repository root; the program is imported from ./src. The
seed only reaches the program as the dataset `endiff synth` writes from it.
Set-up (a fresh interpreter importing endiff, plus synth) runs several times,
half before and half after the passes, and reports its median. A fresh worker
process runs the workload's command sequence in a closed loop for --seconds,
at least workloads.MIN_PASSES times. Set-up and pass times are scaled to the
host's reference speed, which probe.py samples while they run. Every output
is checked, and every pass must reproduce the first byte for byte. With
--trace 0 the last stdout line holds the end-to-end metrics; with --trace 1 a
worker runs one untraced pass, then the set-up and one pass again with spans
around every public endiff function, and the last line holds the per-layer
metrics. The line before it
holds the provenance and sample counts. Work files go to
.perfbench_work/<workload>/ under the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
HOLDOUT_SEED = 7919  # confirm a claimed gain on this seed after tuning on others
BLAS_THREADS = 1  # 2 threads gave no speed-up at these sizes, only more noise
DEADLINE_S = 170.0
SETUP_REPEATS = {"train-sbm2k": 5, "diffuse-attn2k": 5, "audit-all": 9}


class Deadline:
    def __init__(self, seconds: float):
        self.at = time.monotonic() + seconds

    def left(self) -> float:
        left = self.at - time.monotonic()
        if left <= 0:
            raise TimeoutError("run exceeded its deadline")
        return left


def run_setup(workload, size, seed, cwd: Path, env, deadline) -> dict:
    """One fresh interpreter: import endiff, then the workload's synth."""
    argv = workloads.synth_argv(workload, size, seed)
    cwd.mkdir(parents=True, exist_ok=True)
    speed_file = cwd.parent / f"{cwd.name}.speed"
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "setup_once.py"), str(speed_file),
                           *(argv or [])],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=deadline.left())
    seconds = time.perf_counter() - started
    speed = float(speed_file.read_text()) if speed_file.is_file() else 1.0
    return {"label": "setup", "argv": argv or [], "rc": proc.returncode,
            "seconds": seconds, "speed": speed, "stdout": proc.stdout,
            "stderr": proc.stderr[-4000:]}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def provenance(seed: int, data: Path) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "holdout_seed": HOLDOUT_SEED,
        "input_digests": {p.name: sha256(p) for p in sorted(data.glob("*.txt"))},
    }


def tail(samples: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n <= 10:
        return None
    p = int(100 * (n - 10) / n)
    return {"p": p, "value": statistics.quantiles(samples, n=100)[p - 1]}


def reference_seconds(run: dict) -> float:
    """A pass's or set-up's wall time at the host's reference speed (probe.py)."""
    return run["seconds"] * run["speed"]


def attribute(commands: list[dict], label: str, problems: list[str]) -> None:
    """Charge rerun differences in `label`'s output to its last command."""
    if problems:
        last = [c for c in commands if c["label"] == label][-1]
        last.setdefault("failures", []).extend(problems)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                    help="tiny is for the self-check")
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "endiff" / "cli.py").is_file():
        print(f"error: no endiff sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    env = dict(os.environ, PYTHONPATH=str(src))
    sys.path.insert(0, str(src))
    import checks  # imports numpy, so only after the thread pin

    work = root / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    deadline = Deadline(DEADLINE_S)
    wl, size = args.workload, args.size
    run_root = work / "run"

    # set-up in fresh interpreters; the first writes run/data. Host speed
    # drifts over tens of seconds, so the repeats are split around the worker.
    repeats = 1 if args.trace else SETUP_REPEATS[wl]
    setups = []

    def set_up(k: int) -> None:
        cwd = run_root if k == 1 else work / f"setup{k}"
        setups.append(run_setup(wl, size, args.seed, cwd, env, deadline))
        if k > 1 and (run_root / "data").is_dir():
            attribute(setups[-1:], "setup", checks.tree_differences(
                run_root / "data", cwd / "data"))

    before = (repeats + 1) // 2
    for k in range(1, before + 1):
        set_up(k)

    result_path = work / "worker.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", wl, "--size", size,
         "--seed", str(args.seed), "--work", str(work), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--result", str(result_path)],
        env=env, capture_output=True, text=True, timeout=deadline.left())
    if proc.returncode != 0 or not result_path.is_file():
        print(f"error: worker exited {proc.returncode}\n{proc.stderr[-4000:]}",
              file=sys.stderr)
        return 1
    res = json.loads(result_path.read_text())
    if Path(res["endiff"]).resolve().parent.parent != src.resolve():
        print(f"error: worker imported endiff from {res['endiff']}", file=sys.stderr)
        return 1
    for k in range(before + 1, repeats + 1):
        set_up(k)

    refs = checks.references(wl, size, run_root / "data")
    passes = res["passes"]
    qualities, work_done = [], []
    labels = sorted({label for label, _ in workloads.pass_commands(wl, size)})
    checked = [(run_root / f"pass{k}", p["commands"]) for k, p in enumerate(passes, 1)]
    if args.trace:
        checked.append((work / "trace" / "pass1", res["traced_pass"]["commands"]))
    for out, commands in checked:
        fails, quality, done = checks.check_pass(wl, size, out, commands, refs)
        for i, msgs in fails.items():
            commands[i].setdefault("failures", []).extend(msgs)
        qualities.append(quality)
        work_done.append(done)
        for label in labels:
            if out != run_root / "pass1":
                attribute(commands, label, checks.tree_differences(
                    run_root / "pass1" / label, out / label))
    traced_setup = res.get("traced_setup", [])
    if traced_setup:
        attribute(traced_setup, "synth", checks.tree_differences(
            run_root / "data", work / "trace" / "data"))

    all_commands = setups + traced_setup + [c for _, cmds in checked for c in cmds]
    failed = [c for c in all_commands if c["rc"] != 0 or c.get("failures")]
    for c in failed:
        print(f"FAILED {c['label']} {' '.join(c['argv'])}: "
              f"{c.get('failures') or c['stderr'][-300:]}", file=sys.stderr)

    wall_s = [p["seconds"] for p in passes]
    pass_s = [reference_seconds(p) for p in passes]
    setup_wall_s = [c["seconds"] for c in setups]
    setup_s = [reference_seconds(c) for c in setups]
    if args.trace:
        metrics = dict(res["layers"])
        metrics["trace.overhead_ratio"] = reference_seconds(res["traced_pass"]) / pass_s[0]
        metrics["failed_frac"] = len(failed) / len(all_commands)
        wanted = spec["per_layer"]
    else:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "job_s": statistics.median(pass_s),
            "work_per_s": sum(work_done) / sum(pass_s),
            "peak_rss_mb": res["peak_rss_mb"],
            "test_metric": statistics.median(qualities),
        }
        wanted = spec["end_to_end"]

    detail = {
        "workload": wl, "size": size, "trace": args.trace,
        "provenance": provenance(args.seed, run_root / "data"),
        "samples": {
            "setup_s": {"n": len(setup_s), "values": setup_s, "wall_s": setup_wall_s},
            "job_s": {"n": len(pass_s), "values": pass_s, "tail": tail(pass_s)},
            "wall_s": {"values": wall_s, "tail": tail(wall_s)},
            "speed": {"values": [p["speed"] for p in passes],
                      "probes": [p["probes"] for p in passes]},
        },
        "failures": [{"label": c["label"], "argv": c["argv"], "rc": c["rc"],
                      "failures": c.get("failures", [])} for c in failed],
    }
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: no value for metrics {missing}", file=sys.stderr)
        return 1
    out = {
        "correct": not failed,
        "attempted": len(all_commands),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    (work / "result.json").write_text(json.dumps({"detail": detail, "result": out},
                                                 indent=1))
    print(json.dumps(detail))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.TimeoutExpired, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
