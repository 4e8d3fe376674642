"""The host's speed while a pass or a set-up runs, sampled in its own process.

On a shared host the CPU's speed swings by tens of percent within seconds
and drifts over minutes, whatever the program does. A SpeedProbe times a
fixed loop every PROBE_INTERVAL_S of wall time, from a SIGALRM handler that
runs between two bytecodes of the code it interrupts, so on the same CPU at
the same time. A loop tracks a workload when it is bound by what the workload
is bound by:

- "compute": numpy calls on 12 x 12 arrays, bound by per-call overhead and
  arithmetic, as the audit suites and dense training are;
- "memory": scattered reads over about 15 MB of Python objects, bound by the
  shared cache, as passes over N x N arrays are;
- "python": pure-Python arithmetic. It needs no import, so a fresh
  interpreter can arm it before it imports numpy and endiff.
"""

from __future__ import annotations

import signal
import time

PROBE_INTERVAL_S = 0.05
# Each loop's median time on the 2-vCPU VM the benchmark was tuned on.
PROBE_REF_S = {"python": 3.3e-4, "compute": 3.7e-4, "memory": 8.0e-4}
_READS = 700  # objects one "memory" tick reads

_data: dict = {}


def _python_loop() -> None:
    total = 0
    for i in range(4000):
        total += i * i % 7


def _compute_loop() -> None:
    np, m = _data["np"], _data["m"]
    x = m
    for _ in range(25):
        x = np.tanh(x @ m) + 0.5 * x
        x = x / (np.abs(x).sum(axis=1, keepdims=True) + 1.0)


def _memory_loop() -> None:
    # each tick reads the next _READS objects of a scattered order, so the
    # reads miss the private cache whatever the interrupted code touched
    objects, order = _data["objects"], _data["order"]
    start = _data["next"]
    _data["next"] = (start + _READS) % len(order)
    total = 0
    for i in order[start:start + _READS]:
        entry = objects[i]
        total += entry["k"] + entry["v"][1]


def _prepare(kind: str) -> None:
    if kind == "python" or kind in _data.get("kinds", ()):
        return
    import numpy as np

    _data["np"] = np
    _data["m"] = np.linspace(-1.0, 1.0, 144).reshape(12, 12)
    if kind == "memory":
        n = 1 << 15
        _data["objects"] = [{"k": i, "v": [i, i + 1]} for i in range(n)]
        _data["order"] = np.random.default_rng(0).permutation(n).tolist()
        _data["next"] = 0
    _data.setdefault("kinds", set()).add(kind)


LOOPS = {"python": _python_loop, "compute": _compute_loop, "memory": _memory_loop}


class SpeedProbe:
    """`speed()` is the mean of the loop's reference time over its measured
    times: 1.0 when the host runs the loop at its reference speed, 0.8 when
    it runs it 25% slower. A time times speed is then the time at the
    reference speed."""

    def __init__(self, kind: str):
        _prepare(kind)
        self.loop = LOOPS[kind]
        self.ref = PROBE_REF_S[kind]
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        started = time.perf_counter()
        self.loop()
        self.samples.append(time.perf_counter() - started)

    def __enter__(self):
        self.samples.clear()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def speed(self) -> float:
        if not self.samples:
            return 1.0
        return sum(self.ref / t for t in self.samples) / len(self.samples)
