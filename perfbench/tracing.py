"""Spans around the public functions of the endiff modules, and the per-layer
metrics computed from them.

`install` wraps every public function of each module, every public method of
its public classes, and the constructor of each class that validates itself
in `__post_init__`. Modules bind names with `from ... import`, so each wrapper
is also bound wherever the original was: in every endiff module's namespace
and in module-level dicts such as the suite table. Spans are kept in flat
arrays in memory and written out once, by `save`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

MODULES = ("numerics", "tape", "graphs", "coupling", "diffusion", "energy",
           "model", "train", "suites", "cli")

TAPE_PRIMITIVES = (
    "constant", "parameter", "matmul", "add", "sub", "scale", "hadamard",
    "sigmoid", "relu", "reciprocal", "transpose", "row_l2_normalize",
    "layer_norm", "row_softmax", "mean_over_list", "diag_scale_rows",
    "row_sum", "broadcast_row", "add_scalar", "sum_all",
    "masked_cross_entropy", "masked_mse",
)

SUITE_NAMES = ("thm1", "prop1", "thm2", "oversmooth", "linear_equiv",
               "gradcheck")


class Recorder:
    """One span per wrapped call: name id, parent span, start and end."""

    def __init__(self):
        self.names: list[str] = []
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        kind, parent, start, end = self.kind, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(kind)
            kind.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "kind": np.frombuffer(self.kind, dtype=np.intc).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.intc).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def _wrap_class(rec: Recorder, short: str, cls) -> None:
    validates = "__post_init__" in vars(cls)
    for attr, member in list(vars(cls).items()):
        if attr.startswith("_") and not (attr == "__init__" and validates):
            continue
        name = f"{short}.{cls.__name__}.{attr}"
        if isinstance(member, staticmethod):
            setattr(cls, attr, staticmethod(rec.wrap(member.__func__, name)))
        elif inspect.isfunction(member):
            setattr(cls, attr, rec.wrap(member, name))


def install(rec: Recorder) -> None:
    """Wrap the endiff modules in place."""
    mods = {short: importlib.import_module(f"endiff.{short}") for short in MODULES}
    originals: dict[int, tuple] = {}
    for short, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                originals[id(obj)] = (obj, rec.wrap(obj, f"{short}.{attr}"))
            elif inspect.isclass(obj):
                _wrap_class(rec, short, obj)

    def swap(obj):
        hit = originals.get(id(obj))
        return hit[1] if hit is not None and hit[0] is obj else None

    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "endiff" or mod_name.startswith("endiff.")):
            continue
        for attr, obj in list(vars(mod).items()):
            new = swap(obj)
            if new is not None:
                setattr(mod, attr, new)
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    new = swap(value)
                    if new is not None:
                        obj[key] = new


class Spans:
    """Per-name totals and containment queries over recorded spans."""

    def __init__(self, rec: Recorder):
        a = rec.arrays()
        self.kind, self.parent = a["kind"], a["parent"]
        self.start, self.end = a["start"], a["end"]
        n_names = len(rec.names)
        dur = self.end - self.start
        has_parent = self.parent >= 0
        covered = np.bincount(self.parent[has_parent], weights=dur[has_parent],
                              minlength=dur.size)
        self.self_s = dur - covered
        self.calls_by = np.bincount(self.kind, minlength=n_names)
        self.incl_by = np.bincount(self.kind, weights=dur, minlength=n_names)
        self.self_by = np.bincount(self.kind, weights=self.self_s, minlength=n_names)
        self.ids = {name: i for i, name in enumerate(rec.names)}

    def _mask(self, name: str) -> np.ndarray:
        nid = self.ids.get(name, -1)
        return self.kind == nid

    def calls(self, name: str) -> int:
        nid = self.ids.get(name)
        return 0 if nid is None else int(self.calls_by[nid])

    def incl_s(self, name: str) -> float:
        nid = self.ids.get(name)
        return 0.0 if nid is None else float(self.incl_by[nid])

    def calls_within(self, name: str, outer: str) -> int:
        """Calls of `name` made while a call of `outer` was open."""
        inner = self._mask(name)
        starts = self.start[inner]
        total = 0
        for i in np.flatnonzero(self._mask(outer)):
            total += int(np.count_nonzero((starts >= self.start[i])
                                          & (starts <= self.end[i])))
        return total

    def children_of(self, names, parent_name: str) -> int:
        """Spans with one of `names` whose direct parent is a `parent_name` span."""
        ids = [self.ids[n] for n in names if n in self.ids]
        has_parent = self.parent >= 0
        parent_kind = np.full(self.kind.size, -1)
        parent_kind[has_parent] = self.kind[self.parent[has_parent]]
        return int(np.count_nonzero(np.isin(self.kind, ids)
                                    & (parent_kind == self.ids.get(parent_name, -2))))

    def module_totals(self) -> dict[str, list]:
        """[self time, calls] of each module."""
        out = {short: [0.0, 0] for short in MODULES}
        for name, i in self.ids.items():
            short = name.split(".", 1)[0]
            out[short][0] += float(self.self_by[i])
            out[short][1] += int(self.calls_by[i])
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: Spans, epochs: int, steps: int) -> dict[str, float]:
    """Every per-layer metric of BENCHMARK.json except those about the run
    itself (trace overhead and failures), which the runner adds."""
    m: dict[str, float] = {}
    for cmd in ("synth", "train", "eval", "diffuse", "audit"):
        m[f"cli.{cmd}_s"] = spans.incl_s(f"cli.cmd_{cmd}")
    m["cli.write_manifest_s"] = spans.incl_s("cli.write_manifest")

    m["graphs.sbm_generate_s"] = spans.incl_s("graphs.sbm_generate")
    m["graphs.load_dataset_s"] = spans.incl_s("graphs.load_dataset")
    m["graphs.normalized_adjacency_s"] = spans.incl_s("graphs.normalized_adjacency")
    m["graphs.normalized_adjacency_per_epoch"] = _ratio(
        spans.calls_within("graphs.normalized_adjacency", "train.train_loop"), epochs)
    m["graphs.graph_init_s"] = spans.incl_s("graphs.Graph.__init__")
    m["graphs.graph_init_calls"] = spans.calls("graphs.Graph.__init__")
    m["graphs.adjacency_calls"] = spans.calls("graphs.Graph.adjacency")

    m["coupling.build_coupling_s"] = spans.incl_s("coupling.build_coupling")
    m["coupling.build_coupling_per_step"] = _ratio(
        spans.calls_within("coupling.build_coupling", "cli.cmd_diffuse"), steps)
    m["coupling.attention_scores_s"] = spans.incl_s("coupling.attention_scores")
    m["coupling.penalty_delta_array_s"] = spans.incl_s("coupling.penalty_delta_array")

    m["diffusion.run_trajectory_s"] = spans.incl_s("diffusion.run_trajectory")
    m["diffusion.euler_step_s"] = spans.incl_s("diffusion.euler_step")
    m["diffusion.euler_step_calls"] = spans.calls("diffusion.euler_step")

    for fn in ("write_trajectory_csv", "regularized_energy", "quadratic_energy",
               "diversity", "audit_descent", "audit_bounds"):
        m[f"energy.{fn}_s"] = spans.incl_s(f"energy.{fn}")

    for fn in ("laplacian_spectral_bracket", "finite_diff_grad", "row_l2_normalize"):
        m[f"numerics.{fn}_s"] = spans.incl_s(f"numerics.{fn}")

    for prim in TAPE_PRIMITIVES:
        m[f"tape.{prim}.calls"] = spans.calls(f"tape.Tape.{prim}")
        m[f"tape.{prim}.fwd_s"] = spans.incl_s(f"tape.Tape.{prim}")
    m["tape.backward_s"] = spans.incl_s("tape.Tape.backward")
    m["tape.backward_calls"] = spans.calls("tape.Tape.backward")

    forwards = spans.calls("model.forward")
    m["model.forward_s"] = spans.incl_s("model.forward")
    m["model.forward_calls"] = forwards
    m["model.nodes_per_forward"] = _ratio(
        spans.children_of([f"tape.Tape.{p}" for p in TAPE_PRIMITIVES],
                          "model.forward"), forwards)

    loop_forwards = spans.calls_within("model.forward", "train.train_loop")
    m["train.train_loop_s"] = spans.incl_s("train.train_loop")
    m["train.adam_step_s"] = spans.incl_s("train.adam_step")
    m["train.induced_subgraph_s"] = spans.incl_s("train.induced_subgraph")
    m["train.metric_s"] = spans.incl_s("train.metric")
    m["train.forwards_per_epoch"] = _ratio(loop_forwards, epochs)
    m["train.backward_per_forward"] = _ratio(
        spans.calls_within("tape.Tape.backward", "train.train_loop"), loop_forwards)

    for suite in SUITE_NAMES:
        m[f"suites.{suite}_s"] = spans.incl_s(f"suites.suite_{suite}")
    m["suites.gradcheck_forwards"] = spans.calls_within("model.forward",
                                                       "suites.suite_gradcheck")

    for short, (self_s, calls) in spans.module_totals().items():
        m[f"{short}.self_s"] = self_s
        m[f"{short}.calls"] = calls
    m["trace.spans"] = int(spans.kind.size)
    return m
