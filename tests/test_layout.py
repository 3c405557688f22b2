"""Module boundaries inside the package, options every command can reach, and
exports the program itself uses."""

import ast
import dataclasses
import importlib
import re
import sys
from pathlib import Path

import crossconf
from crossconf import RegressorSpec, SimulationConfig, parse_regressor

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import install  # noqa: E402


def test_no_module_imports_another_modules_private_name():
    offending = []
    for path in sorted(Path(crossconf.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                offending += [
                    f"{path.name}: {alias.name} from {node.module}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert offending == []


def test_export_lists_name_only_defined_names_and_cover_the_package_imports():
    # modules without __all__ are skipped
    package = Path(crossconf.__file__).parent
    problems = []
    for path in sorted(package.glob("*.py")):
        name = "crossconf" if path.stem == "__init__" else f"crossconf.{path.stem}"
        module = importlib.import_module(name)
        problems += [
            f"{path.stem}.__all__ names missing {name}"
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        ]
    for node in ast.walk(ast.parse((package / "__init__.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            exported = getattr(importlib.import_module(f"crossconf.{node.module}"), "__all__", None)
            problems += [
                f"__init__ imports {alias.name} from {node.module}, which does not export it"
                for alias in node.names
                if exported is not None and alias.name not in exported
            ]
    assert problems == []


def test_every_name_the_benchmark_rebinds_is_bound_where_it_looks():
    tracer = Tracer()
    try:
        install(tracer, [])  # Tracer.patch raises AttributeError on a missing name
    finally:
        tracer.restore()


def test_cli_sets_every_simulation_config_field():
    # a field the CLI never passes is an option no command can change
    tree = ast.parse((Path(crossconf.__file__).parent / "cli.py").read_text())
    builder = next(n for n in ast.walk(tree)
                   if isinstance(n, ast.FunctionDef) and n.name == "_config")
    passed = {kw.arg for n in ast.walk(builder)
              if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "SimulationConfig"
              for kw in n.keywords}
    assert {f.name for f in dataclasses.fields(SimulationConfig)} - passed == set()


def test_every_regressor_field_is_set_by_some_cli_string():
    specs = [parse_regressor(text) for text in ("ols", "ridge:0.5", "knn:3")]
    unreachable = [f.name for f in dataclasses.fields(RegressorSpec)
                   if all(getattr(spec, f.name) == f.default for spec in specs)]
    assert unreachable == []


def test_every_exported_name_is_used_outside_the_tests():
    # an export only tests call is a test helper or an oracle: it belongs in tests/
    package = Path(crossconf.__file__).parent
    exported = set()
    used = set()
    for path in sorted(package.glob("*.py")):
        if path.stem == "__init__":
            continue
        exported |= set(getattr(importlib.import_module(f"crossconf.{path.stem}"), "__all__", ()))
        for stmt in ast.parse(path.read_text()).body:
            names = {node.id for node in ast.walk(stmt)
                     if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            names |= {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
            used |= names - {getattr(stmt, "name", None)}  # a definition does not use itself
    texts = [(ROOT / "README.md").read_text()]
    texts += [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))]
    used |= {word for text in texts for word in re.findall(r"\w+", text)}
    assert sorted(exported - used) == []
