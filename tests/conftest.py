import sys

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
