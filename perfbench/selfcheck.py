"""Fast self-check of the benchmark at a tiny size.

    python3 perfbench/selfcheck.py

Run from the repository root. It validates BENCHMARK.json, runs every
workload once untraced and once traced at the tiny size and validates each
result against BENCHMARK.json, shows that each output check fails on a
corrupted copy of a real output, and shows that the benchmark refuses to run
without the program's sources. Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import workloads

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
METRIC_KEYS = {"end_to_end": {"name", "unit", "better", "bound"},
               "per_layer": {"name", "unit", "better"}}


def require(ok: bool, what: str) -> None:
    if not ok:
        print(f"selfcheck FAILED: {what}", file=sys.stderr)
        sys.exit(1)


def check_spec(spec: dict) -> None:
    require(set(spec) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    require([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
            "BENCHMARK.json workloads match workloads.WORKLOADS")
    for w in spec["workloads"]:
        require(set(w) == {"name", "why"} and len(w["why"]) <= 200
                and "\n" not in w["why"], f"workload {w['name']}")
    names = [w["name"] for w in spec["workloads"]]
    for kind, keys in METRIC_KEYS.items():
        for m in spec[kind]:
            names.append(m["name"])
            require(set(m) == keys and NAME.fullmatch(m["name"])
                    and UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher"),
                    f"{kind} metric {m}")
            if kind == "end_to_end":
                require(0 < m["bound"] <= 0.25, f"bound of {m['name']}")
    require(len(names) == len(set(names)), "names are unique")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    require(setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                       "bound": max(m["bound"] for m in spec["end_to_end"])}],
            "setup_s is lower-better seconds with the largest bound")


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(spec: dict, workload: str, trace: int) -> None:
    proc = run(workload, trace)
    where = f"{workload} --trace {trace}"
    require(proc.returncode == 0, f"{where} exited {proc.returncode}: {proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    require(set(out) == {"correct", "attempted", "failed", "metrics"}, f"{where} keys")
    require(out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1,
            f"{where} outputs: {proc.stderr[-2000:]}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    require(list(out["metrics"]) == [m["name"] for m in wanted], f"{where} metric names")
    for m in wanted:
        got = out["metrics"][m["name"]]
        require(got["unit"] == m["unit"] and isinstance(got["value"], (int, float))
                and math.isfinite(got["value"]), f"{where} {m['name']}={got}")
    print(f"ok  {where}: attempted {out['attempted']}")


def corrupt(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    require(old in text, f"{path} holds {old!r}")
    path.write_text(text.replace(old, new, 1))


def check_checks(scratch: Path) -> None:
    """Each output check must flag a corrupted copy of a real output."""
    work = ROOT / ".perfbench_work"
    tiny = workloads.SIZES["tiny"]
    res = json.loads((work / "train-sbm2k" / "worker.json").read_text())
    cmds = res["passes"][0]["commands"]
    out = work / "train-sbm2k" / "run" / "pass1"
    require(not checks.check_train(out, cmds, tiny["epochs"])[0], "train check passes as written")
    bad = [dict(c) for c in cmds]
    bad[1]["stdout"] = json.dumps({**json.loads(cmds[1]["stdout"]), "test": -1.0})
    require(1 in checks.check_train(out, bad, tiny["epochs"])[0], "train check flags a wrong eval")

    copy = scratch / "diffuse"
    shutil.copytree(work / "diffuse-attn2k" / "run" / "pass1", copy)
    data = work / "diffuse-attn2k" / "run" / "data"
    cmds = json.loads((work / "diffuse-attn2k" / "worker.json").read_text())["passes"][0]["commands"]
    div = checks.replay_diversity(data / "features.txt", float(workloads.TAU), tiny["steps"])
    require(not checks.check_diffuse(copy, cmds, tiny["steps"], div)[0], "diffuse check passes as written")
    csv_path = next((copy / "diffuse").glob("trajectory_*.csv"))
    rows = csv_path.read_text().splitlines()
    last = rows[-1].split(",")
    last[1] = repr(float(last[1]) * 2 + 1)  # energy rises at the last step
    csv_path.write_text("\n".join(rows[:-1] + [",".join(last)]) + "\n")
    require(checks.check_diffuse(copy, cmds, tiny["steps"], div)[0], "diffuse check flags rising energy")
    require(checks.check_diffuse(copy, cmds, tiny["steps"], div * (1 + 1e-6))[0],
            "diffuse check flags a diversity off the replay")

    copy = scratch / "audit"
    shutil.copytree(work / "audit-all" / "run" / "pass1", copy)
    cmds = json.loads((work / "audit-all" / "worker.json").read_text())["passes"][0]["commands"]
    report = copy / "audit" / "audit_linear_equiv.json"
    require(not checks.check_audit(copy, cmds, ["linear_equiv"])[0], "audit check passes")
    corrupt(report, '"passed": true', '"passed": false')
    require(checks.check_audit(copy, cmds, ["linear_equiv"])[0], "audit check flags a failed suite")

    a, b = work / "audit-all" / "run" / "pass1", scratch / "rerun"
    shutil.copytree(a, b)
    manifest = b / "audit" / "manifest_audit.json"
    corrupt(manifest, '"wall_time_s": ', '"wall_time_s": 1')
    require(not checks.tree_differences(a, b), "rerun check ignores wall_time_s")
    corrupt(manifest, '"seeds": 2', '"seeds": 3')
    require(checks.tree_differences(a, b), "rerun check flags a changed manifest")
    print("ok  output checks flag corrupted outputs")


def check_refuses_without_sources(scratch: Path) -> None:
    bare = scratch / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("train-sbm2k", 0, cwd=bare)
    require(proc.returncode != 0 and '"metrics"' not in proc.stdout,
            "run.py without sources must fail without a result")
    print("ok  refuses to run without src/endiff")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))  # the checks import endiff constants
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    print("ok  BENCHMARK.json")
    for trace in (1, 0):  # the untraced runs leave the outputs check_checks reads
        for workload in workloads.WORKLOADS:
            check_result(spec, workload, trace)
    scratch = ROOT / ".perfbench_work" / "selfcheck"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    check_checks(scratch)
    check_refuses_without_sources(scratch)
    shutil.rmtree(scratch)
    return 0


if __name__ == "__main__":
    sys.exit(main())
