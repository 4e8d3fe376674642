import sys
import tracemalloc

import pytest

import endiff.coupling


@pytest.fixture
def coupling_builds(monkeypatch) -> list:
    """The family of every `coupling_operator` call from any endiff module
    while the test runs, in call order."""
    calls = []
    build = endiff.coupling.coupling_operator

    def counted(spec, *args, **kwargs):
        calls.append(spec.family)
        return build(spec, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("endiff") and getattr(module, "coupling_operator", None) is build:
            monkeypatch.setattr(module, "coupling_operator", counted)
    return calls


@pytest.fixture
def dense_attention_passes(monkeypatch) -> list:
    """Per `DenseAttention` built while the test runs, in build order, its
    row-sum passes: [while it was built, since]. A row-sum pass is an apply
    to one column of ones."""
    records = []
    cls = endiff.coupling.DenseAttention
    init, apply = cls.__init__, cls.apply

    def counted_init(self, *args, **kwargs):
        self.row_sum_passes = [0]
        records.append(self.row_sum_passes)
        init(self, *args, **kwargs)
        self.row_sum_passes.append(0)

    def counted_apply(self, v):
        if v.shape[-1] == 1 and (v == 1.0).all():
            self.row_sum_passes[-1] += 1
        return apply(self, v)

    monkeypatch.setattr(cls, "__init__", counted_init)
    monkeypatch.setattr(cls, "apply", counted_apply)
    return records


@pytest.fixture(scope="session")
def traced_peak():
    """The function that calls run() under tracemalloc and returns the peak
    traced bytes while it ran, and run()'s value: the one set-up and
    tear-down of the tests' memory bounds. Session-scoped, so hypothesis
    tests take it too."""
    def peak(run):
        tracemalloc.start()
        try:
            value = run()
            return tracemalloc.get_traced_memory()[1], value
        finally:
            tracemalloc.stop()

    return peak
