import argparse
import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import endiff
from endiff import cli, suites
from endiff.coupling import PENALTY_KINDS
from endiff.diffusion import DiffusionConfig
from endiff.errors import ParameterError
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


def _kind_comparisons(source: str) -> list:
    """The lines of comparisons with an operand that is a `.kind` attribute
    or a penalty-name literal, alone or in a tuple: a branch on a penalty
    family outside its entry in `coupling.PENALTIES`. A membership test in
    the table's keys reads the table and is left out, and so is numpy's
    `dtype.kind`."""
    def names_a_kind(node) -> bool:
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(map(names_a_kind, node.elts))
        return ((isinstance(node, ast.Attribute) and node.attr == "kind"
                 and not (isinstance(node.value, ast.Attribute) and node.value.attr == "dtype"))
                or (isinstance(node, ast.Constant) and node.value in PENALTY_KINDS))

    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        reads_table = (len(node.ops) == 1 and isinstance(node.ops[0], (ast.In, ast.NotIn))
                       and isinstance(node.comparators[0], ast.Name)
                       and node.comparators[0].id in ("PENALTIES", "PENALTY_KINDS"))
        if not reads_table and any(map(names_a_kind, (node.left, *node.comparators))):
            found.append(node.lineno)
    return sorted(found)


def test_kind_scan_sees_a_branch_on_a_penalty():
    source = ('if p.kind == "simple":\n    pass\n'
              'ok = kind not in PENALTY_KINDS and x.dtype.kind in "iuf"\n'
              'bad = (a, b) != ("attention", "quadratic") or "softmax" in kinds\n'
              'fine = spec.penalty.kind in PENALTIES or family == "gat_masked"\n'
              'worse = PENALTIES[p.kind].poly is None or p.kind in PENALTY_KINDS[:1]\n')
    assert _kind_comparisons(source) == [1, 4, 4, 6]


def test_kind_scan_sees_a_branch_planted_in_the_energy():
    source = (Path(endiff.__file__).parent / "energy.py").read_text()
    planted = source.replace("    z, poly = step.z", '    if penalty.kind == "simple":\n'
                             "        return 0.0\n    z, poly = step.z", 1)
    line = source[:source.index("    z, poly = step.z")].count("\n") + 1
    assert _kind_comparisons(planted) == [line]


@pytest.mark.parametrize("path", sorted(p.name for p in Path(endiff.__file__).parent.glob("*.py")))
def test_no_module_compares_a_penalty_kind(path):
    # a family is its one entry in coupling.PENALTIES: a comparison on its
    # name elsewhere is a second definition that a new entry would miss
    source = (Path(endiff.__file__).parent / path).read_text()
    assert _kind_comparisons(source) == []


def _dense_calls(module: str, source: str) -> list:
    """`module.function` of each call of an attribute named `dense` or of a
    function under `np.linalg` in source, with the functions it sits in
    dotted, one entry per call, in source order."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = where + (node.name,)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            chain, value = [node.func.attr], node.func.value
            while isinstance(value, ast.Attribute):
                chain.append(value.attr)
                value = value.value
            if chain[0] == "dense" or "linalg" in chain[1:]:
                found.append(".".join((module,) + where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), ())
    return found


def test_dense_call_scan_sees_a_call_planted_in_another_module():
    source = (Path(endiff.__file__).parent / "energy.py").read_text()
    planted = source.replace("    energies = _energies(traj)\n    series",
                             "    energies = _energies(traj)\n"
                             "    np.linalg.norm(traj.coupling.dense())\n    series", 1)
    assert _dense_calls("energy", source) == []
    assert _dense_calls("energy", planted) == ["energy.audit_bounds"] * 2
    assert _dense_calls("m", "class A:\n    def f(self):\n        numpy.linalg.svd(x)\n"
                             "def g():\n    def h():\n        return a.b.dense()\n") == [
        "m.A.f", "m.g.h"]


def test_dense_forms_are_built_only_for_an_audit_or_an_oracle():
    # aim 1: an N x N form or a dense solve only where an audit needs
    # lambda_max (prop1) or a suite needs an oracle (linear_equiv); the run
    # time couplings have no dense() to call
    package = Path(endiff.__file__).parent
    assert sorted(call for path in package.glob("*.py")
                  for call in _dense_calls(path.stem, path.read_text())) == [
        "numerics.laplacian_lambda_max", "suites._dense_simple_forward",
        "suites._static_runs", "suites.suite_linear_equiv"]


def _foreign_imports(source: str) -> list:
    """The modules a source imports, at any depth of its code, from outside
    the standard library, numpy and endiff, with their lines."""
    allowed = sys.stdlib_module_names | {"numpy", "endiff"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:  # relative imports stay inside endiff
            continue
        found += [(node.lineno, name) for name in names
                  if name.split(".")[0] not in allowed]
    return sorted(found)


def test_foreign_import_scan_sees_nested_ones():
    source = ("import os, scipy.sparse\nfrom . import x\n"
              "def f():\n    from torch import nn\n    import numpy.linalg\n")
    assert _foreign_imports(source) == [(1, "scipy.sparse"), (4, "torch")]


@pytest.mark.parametrize("path", sorted(p.name for p in Path(endiff.__file__).parent.glob("*.py")))
def test_runtime_imports_only_numpy_and_the_standard_library(path):
    # the runtime dependency is numpy alone
    source = (Path(endiff.__file__).parent / path).read_text()
    assert _foreign_imports(source) == []


def _endiff_imports(source: str) -> set:
    """(module, name) of each endiff name a source imports, at any depth of
    its code; name is None for an `import endiff...` of a module."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {(alias.name, None) for alias in node.names
                      if alias.name.split(".")[0] == "endiff"}
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.split(".")[0] == "endiff"):
            found |= {(node.module, alias.name) for alias in node.names}
    return found


def test_endiff_import_scan_sees_nested_ones():
    source = ("import os, endiff.cli as cli\nfrom numpy import x\n"
              "def f():\n    from endiff.energy import A, B\n")
    assert _endiff_imports(source) == {("endiff.cli", None), ("endiff.energy", "A"),
                                       ("endiff.energy", "B")}


def test_every_endiff_name_the_benchmark_imports_resolves():
    # the benchmark imports endiff inside its functions: a deletion it still
    # reaches would otherwise fail only when a benchmark runs
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    imported = set().union(*(_endiff_imports(p.read_text()) for p in bench.glob("*.py")))
    assert ("endiff.cli", None) in imported
    missing = []
    for module, name in sorted(imported, key=str):
        target = module if name is None else f"{module}.{name}"
        try:
            mod = importlib.import_module(module)
            if name is not None and not hasattr(mod, name):
                importlib.import_module(target)  # `from package import module`
        except ImportError:
            missing.append(target)
    assert missing == []


def _unread_public_names(defined: dict, readers: list) -> list:
    """(module, name) of each public module-level function or class that a
    source of `defined` (module name to source) defines and no source of
    `readers` reads, as a name, an attribute or an imported name. Its own
    definition is not a read of it."""
    read = set()
    for node in (n for source in readers for n in ast.walk(ast.parse(source))):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {alias.name for alias in node.names}
    return sorted((module, node.name) for module, source in defined.items()
                  for node in ast.parse(source).body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_") and node.name not in read)


def _library_sources() -> tuple[dict, list]:
    """endiff's modules other than __init__.py, name to source, and the
    source of every other Python file of the repository outside tests/.
    __init__.py only re-exports, so it reads nothing."""
    root = Path(__file__).resolve().parents[1]
    package = Path(endiff.__file__).parent
    modules = {p.stem: p.read_text() for p in package.glob("*.py") if p.name != "__init__.py"}
    others = [p.read_text() for p in root.rglob("*.py")
              if p.parent != package and not {"tests", ".git"} & set(p.relative_to(root).parts)]
    return modules, others


def test_library_scan_sees_a_name_no_reader_reads():
    source = ("def a():\n    pass\nclass B:\n    pass\n"
              "def _c():\n    pass\ndef d():\n    return a\n")
    assert _unread_public_names({"m": source}, [source, "from m import B\nx.e\n"]) == [
        ("m", "d")]


def test_library_scan_sees_a_function_only_the_tests_call():
    modules, others = _library_sources()
    modules["energy"] += "\n\ndef only_for_tests(z):\n    return z\n"
    assert _unread_public_names(modules, [*modules.values(), *others]) == [
        ("energy", "only_for_tests")]


def test_every_public_name_has_a_reader_outside_the_tests():
    # a public function or class that only the tests reach is API surface
    # kept for its own tests: a test oracle belongs in tests/dense_oracles.py
    modules, others = _library_sources()
    assert _unread_public_names(modules, [*modules.values(), *others]) == []


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
    # a field no command sets is a switch only its own tests reach; a
    # command sets it in the config's call, or by `replace` once the data
    # it depends on is read
    source = (Path(endiff.__file__).parent / "cli.py").read_text()
    fields = {f.name for f in dataclasses.fields(config)}
    passed = _keywords_passed(source, config.__name__) | _keywords_passed(source, "replace")
    assert fields - passed == set()


def test_diffusion_source_switch_is_a_bool():
    # the source is on or off, as in ModelConfig; there is no weight
    for value in (1.0, 1, "true", None):
        with pytest.raises(ParameterError, match="use_source must be true or false"):
            DiffusionConfig(use_source=value)


def _args_reads(source: str) -> dict:
    """Per function: the `args.<name>` attributes it reads, its own and
    those of every helper it passes `args` to, transitively."""
    funcs = {node.name: node for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.FunctionDef)}
    own, passes = {}, {}
    for name, fn in funcs.items():
        own[name] = {node.attr for node in ast.walk(fn) if isinstance(node, ast.Attribute)
                     and isinstance(node.value, ast.Name) and node.value.id == "args"}
        passes[name] = {node.func.id for node in ast.walk(fn)
                        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id in funcs
                        and any(isinstance(a, ast.Name) and a.id == "args" for a in node.args)}

    def reads(name, seen):
        seen.add(name)
        return own[name].union(*(reads(h, seen) for h in passes[name] - seen))

    return {name: reads(name, set()) for name in funcs}


def test_args_scan_follows_helpers_passed_args():
    source = ("def cmd(args):\n    helper(args)\n    other(1)\n    return args.a\n"
              "def helper(args):\n    return vars(args), args.b\n"
              "def other(x):\n    return args.c\n")
    assert _args_reads(source)["cmd"] == {"a", "b"}


def _unread_flags(module) -> dict:
    """Per subcommand, the flags its command never reads. `config` is read
    by `main` for every command."""
    reads = _args_reads(Path(module.__file__).read_text())
    parser = module.build_parser()
    commands, = [a.choices for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    unread = {}
    for command, sub in commands.items():
        dests = {a.dest for a in sub._actions if a.dest not in ("help", "config")}
        missing = dests - reads[sub.get_default("func").__name__]
        if missing:
            unread[command] = missing
    return unread


def test_every_flag_is_read_by_its_command():
    # a flag its command never reads is accepted and then ignored
    assert _unread_flags(cli) == {}


@pytest.mark.parametrize("name", sorted(suites._SUITE_FNS))
def test_suites_take_only_their_seed_count(name):
    # every other setting of a suite is a module constant
    params = inspect.signature(suites._SUITE_FNS[name]).parameters.values()
    expected = [("seeds", True)] if name in suites.SEEDED_SUITES else []
    assert [(p.name, p.default is not p.empty) for p in params] == expected


def _long_options(parser: argparse.ArgumentParser) -> dict:
    """Per subcommand, its long options other than --help."""
    commands, = [a.choices for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return {command: {flag for a in sub._actions for flag in a.option_strings
                      if flag.startswith("--") and flag != "--help"}
            for command, sub in commands.items()}


def test_every_long_option_is_in_the_readme():
    # an option the README never names is one a user cannot find
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    missing = {command: sorted(flag for flag in flags
                               if not re.search(re.escape(flag) + r"(?![\w-])", readme))
               for command, flags in _long_options(cli.build_parser()).items()}
    assert {command: flags for command, flags in missing.items() if flags} == {}


def _module_table_names(readme: str) -> dict:
    """Per `endiff.<module>` row of the README's module table, the
    backticked names that are snake_case with an underscore or CamelCase,
    dotted paths and a trailing `()` included."""
    ident = (r"_[a-z][a-z0-9]*(?:_[a-z0-9]+)*|[a-z][a-z0-9]*(?:_[a-z0-9]+)+"
             r"|[A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*")
    name = re.compile(rf"(?:[A-Za-z_]\w*\.)*(?:{ident})(?:\.[A-Za-z_]\w*)*(?:\(\))?")
    rows = re.findall(r"^\| `endiff\.(\w+)` \|(.*)\|$", readme, re.MULTILINE)
    return {module: [n.removesuffix("()") for n in re.findall(r"`([^`]+)`", row)
                     if name.fullmatch(n)] for module, row in rows}


def test_module_table_scan_sees_names():
    readme = ("| `endiff.a` | x (`foo_bar`, `Baz.qux()`, `abc`, `S V`, `f_b()`) |\n"
              "| `endiff.b` | `Ref`s, `N x d`, `_run` |\n")
    assert _module_table_names(readme) == {"a": ["foo_bar", "Baz.qux", "f_b"],
                                           "b": ["Ref", "_run"]}


def test_readme_module_table_names_only_code_that_exists():
    # a deleted function the table still names is documentation of nothing;
    # suite names are names of reports, not of code
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = _module_table_names(readme)
    assert "coupling" in table
    missing = {}
    for module, names in table.items():
        mod = importlib.import_module(f"endiff.{module}")
        classes = [obj for obj in vars(mod).values() if inspect.isclass(obj)]
        for dotted in names:
            head, *rest = dotted.split(".")
            owners = [obj for obj in (mod, *classes) if hasattr(obj, head)]
            found = bool(owners)
            if found and rest:
                obj = getattr(owners[0], head)
                for attr in rest:
                    found = hasattr(obj, attr)
                    obj = getattr(obj, attr, None)
            if not found and dotted not in suites.SUITES:
                missing.setdefault(module, []).append(dotted)
    assert missing == {}
