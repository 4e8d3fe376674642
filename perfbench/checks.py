"""Output checks. Each returns failures keyed by the index of the command at
fault, so the runner can count failed commands against attempted ones."""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import workloads

DIVERSITY_RTOL = 1e-9


def _last_json(text: str):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def _canonical(path: Path) -> bytes:
    """File bytes; a manifest loses its wall_time_s, the one field a rerun may change."""
    data = path.read_bytes()
    if not path.name.startswith("manifest_"):
        return data
    try:
        manifest = json.loads(data)
    except json.JSONDecodeError:
        return data
    manifest.pop("wall_time_s", None)
    return json.dumps(manifest, sort_keys=True).encode()


def tree_differences(a: Path, b: Path) -> list[str]:
    """How the output tree `b` differs from `a`, byte for byte."""
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if files_a != files_b:
        return [f"{b} holds {[str(f) for f in files_b]}, "
                f"{a} holds {[str(f) for f in files_a]}"]
    return [f"{b / rel} differs from {a / rel}" for rel in files_a
            if _canonical(a / rel) != _canonical(b / rel)]


def _flag(fails: dict[int, list[str]], i: int, msg: str) -> None:
    fails.setdefault(i, []).append(msg)


def _exit_codes(commands: list[dict]) -> dict[int, list[str]]:
    fails: dict[int, list[str]] = {}
    for i, cmd in enumerate(commands):
        if cmd["rc"] != 0:
            _flag(fails, i, f"{cmd['label']} exited {cmd['rc']}: "
                            f"{cmd['stderr'].strip()[-300:]}")
    return fails


def check_train(out: Path, commands: list[dict], epochs: int):
    """train's history has one finite row per epoch and agrees with what train
    printed; every eval reports the val/test metrics train reported."""
    fails = _exit_codes(commands)
    reported = _last_json(commands[0]["stdout"]) or {}
    test = reported.get("test_metric")
    try:
        with open(out / "train" / "history.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        values = [[float(v) for v in row.values()] for row in rows]
    except (OSError, ValueError) as exc:
        _flag(fails, 0, f"history.csv unreadable: {exc}")
        return fails, test
    if [int(v[0]) for v in values] != list(range(epochs)):
        _flag(fails, 0, f"history has epochs {[v[0] for v in values]}, want 0..{epochs - 1}")
    if not all(math.isfinite(x) for v in values for x in v):
        _flag(fails, 0, "history holds a non-finite value")
    best = reported.get("best_epoch")
    if not isinstance(best, int) or not 0 <= best < len(rows):
        _flag(fails, 0, f"train reported best_epoch {best!r}")
    elif (float(rows[best]["val_metric"]) != reported.get("val_metric")
          or float(rows[best]["test_metric"]) != test):
        _flag(fails, 0, "train's reported metrics differ from its history at best_epoch")
    for i, cmd in enumerate(commands[1:], 1):
        got = _last_json(cmd["stdout"]) or {}
        if got.get("val") != reported.get("val_metric") or got.get("test") != test:
            _flag(fails, i, f"eval reported val={got.get('val')} test={got.get('test')}, "
                            f"train reported val={reported.get('val_metric')} test={test}")
    return fails, test


def replay_diversity(features: Path, tau: float, steps: int) -> np.ndarray:
    """Diversity after each step of simple-attention diffusion, replayed in
    O(N d^2) through linear_simple_propagate instead of the dense coupling."""
    from endiff.diffusion import linear_simple_propagate

    z = np.loadtxt(features, ndmin=2)
    n = z.shape[0]

    def unit_rows(m):
        return m / np.linalg.norm(m, axis=1, keepdims=True)

    def diversity(m):  # sum_{i<j} |z_i - z_j|^2
        return n * float(np.sum(m * m)) - float(np.sum(m.sum(axis=0) ** 2))

    z = unit_rows(z)
    out = [diversity(z)]
    for _ in range(steps):
        z = unit_rows(z)
        z = z - tau * (z - linear_simple_propagate(z))
        out.append(diversity(z))
    return np.array(out)


def check_diffuse(out: Path, commands: list[dict], steps: int,
                  diversity: np.ndarray):
    """steps+1 rows, energy non-increasing within DESCENT_SLACK (Thm 2 at
    tau=0.25), diversity equal to the O(N d^2) replay. The quality is the
    share of steps whose energy did not rise."""
    from endiff.energy import DESCENT_SLACK

    fails = _exit_codes(commands)
    found = sorted((out / "diffuse").glob("trajectory_*.csv"))
    if len(found) != 1:
        _flag(fails, 0, f"want one trajectory CSV, found {len(found)}")
        return fails, 0.0
    try:
        with open(found[0], encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        step = [int(r["step"]) for r in rows]
        energy = np.array([float(r["energy"]) for r in rows])
        div = np.array([float(r["diversity"]) for r in rows])
    except (OSError, KeyError, ValueError) as exc:
        _flag(fails, 0, f"{found[0]} unreadable: {exc}")
        return fails, 0.0
    if step != list(range(steps + 1)):
        _flag(fails, 0, f"CSV steps {step[:3]}..., want 0..{steps}")
        return fails, 0.0
    descended = energy[2:] <= energy[1:-1] + DESCENT_SLACK
    if not np.all(np.isfinite(energy[1:])) or not descended.all():
        _flag(fails, 0, f"energy rose at steps {(np.flatnonzero(~descended) + 2).tolist()}")
    rel = np.abs(div - diversity) / np.abs(diversity)
    if not np.all(rel <= DIVERSITY_RTOL):
        _flag(fails, 0, f"diversity differs from the replay by {float(np.nanmax(rel)):.3g} relative")
    return fails, float(np.mean(descended)) if descended.size else 1.0


def audited_cases(report: dict) -> int:
    """Seeded trajectories or gradcheck configurations behind one report."""
    settings = (report.get("per_setting") or report.get("per_config")
                or report.get("diversity_final"))
    return int(report["seeds"]) * (len(settings) if isinstance(settings, dict) else 1)


def check_audit(out: Path, commands: list[dict], suites: list[str]):
    """Exit code 0, and every suite report passed with 0 violations. The
    quality is the share of suites that passed; the work is audited cases."""
    fails = _exit_codes(commands)
    passed, cases = 0, 0
    for name in suites:
        try:
            report = json.loads((out / "audit" / f"audit_{name}.json").read_text())
        except (OSError, json.JSONDecodeError) as exc:
            _flag(fails, 0, f"audit_{name}.json unreadable: {exc}")
            continue
        if report.get("passed") is True and report.get("violations") == 0:
            passed += 1
        else:
            _flag(fails, 0, f"{name}: passed={report.get('passed')} "
                            f"violations={report.get('violations')}")
        cases += audited_cases(report)
    return fails, passed / len(suites), cases


def references(workload: str, size: str, data: Path) -> dict:
    """What every pass of the workload is checked against."""
    s = workloads.SIZES[size]
    if workload == "diffuse-attn2k":
        return {"diversity": replay_diversity(data / "features.txt",
                                              float(workloads.TAU), s["steps"])}
    if workload == "audit-all":
        from endiff.suites import SUITES

        chosen = s["audit"][s["audit"].index("--suite") + 1]
        return {"suites": list(SUITES) if chosen == "all" else [chosen]}
    return {}


def check_pass(workload: str, size: str, out: Path, commands: list[dict],
               refs: dict) -> tuple[dict, float, float]:
    """(failures by command index, quality, work done) of one pass."""
    s = workloads.SIZES[size]
    if workload == "train-sbm2k":
        fails, test = check_train(out, commands, s["epochs"])
        return fails, test if test is not None else 0.0, s["nodes"] * s["epochs"]
    if workload == "diffuse-attn2k":
        fails, quality = check_diffuse(out, commands, s["steps"], refs["diversity"])
        return fails, quality, s["nodes"] * s["steps"]
    return check_audit(out, commands, refs["suites"])
