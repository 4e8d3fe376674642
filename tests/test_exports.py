import ast
import dataclasses
import importlib
import pkgutil
from pathlib import Path

import pytest

import endiff
from endiff.diffusion import DiffusionConfig
from endiff.model import ModelConfig
from endiff.train import TrainConfig

MODULES = ["endiff"] + [f"endiff.{m.name}" for m in pkgutil.iter_modules(endiff.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale re-export of a deleted function would fail here, not at a
    # caller's `from endiff... import *`
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(mod, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def _unused_imports(source: str) -> list:
    """The names a module imports and never reads, with their lines."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_unused_import_scan_sees_one():
    assert _unused_imports("import os\nfrom a.b import c as d, e\ne()\n") == [
        (1, "os"), (2, "d")]


@pytest.mark.parametrize("path", sorted(p.name for p in Path(endiff.__file__).parent.glob("*.py")
                                        if p.name != "__init__.py"))
def test_no_module_imports_a_name_it_never_uses(path):
    # __init__.py imports to re-export, so it is left out
    source = (Path(endiff.__file__).parent / path).read_text()
    assert _unused_imports(source) == []


def _keywords_passed(source: str, callee: str) -> set:
    """The keyword names some call to `callee` in source passes."""
    return {kw.arg for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == callee for kw in node.keywords}


def test_keyword_scan_sees_every_call():
    source = "A(x=1)\nB(y=2)\nA(1, z=f(w=3))\n"
    assert _keywords_passed(source, "A") == {"x", "z"}


@pytest.mark.parametrize("config", [ModelConfig, DiffusionConfig, TrainConfig],
                         ids=lambda cls: cls.__name__)
def test_every_config_field_has_a_command_line_caller(config):
    # a field no command sets is a switch only its own tests reach
    source = (Path(endiff.__file__).parent / "cli.py").read_text()
    fields = {f.name for f in dataclasses.fields(config)}
    assert fields - _keywords_passed(source, config.__name__) == set()
