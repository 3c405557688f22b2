"""Module boundaries inside the package, options every command can reach, and
exports the program itself uses."""

import ast
import dataclasses
import importlib
import inspect
import re
import sys
import warnings
from pathlib import Path

import numpy as np

import crossconf
from crossconf import (
    MethodConfig, RegressorSpec, parse_regressor, run_real_data, run_simulation,
)

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


def test_alpha_has_one_exact_reader():
    # combiners reads alpha as the decimal the user typed; a second Decimal
    # reader elsewhere would be a second, possibly different, reading
    readers = [path.name for path in sorted(Path(crossconf.__file__).parent.glob("*.py"))
               if re.search(r"\bDecimal\b", path.read_text())]
    assert readers == ["combiners.py"]


def test_no_module_takes_an_explicit_matrix_inverse():
    # a linear fit is a certified Cholesky and one solve; an inverse would be
    # a second, slower and less accurate way to the same coefficients
    found = []
    for path in sorted(Path(crossconf.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in ("inv", "pinv"):
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
                found += [f"{path.name}:{node.lineno} {a.name}" for a in node.names
                          if a.name in ("inv", "pinv")]
    assert found == []


def test_every_text_mode_open_names_an_encoding():
    # without one, the locale decides how a CSV file is read or a report written
    unnamed = []
    for path in sorted(Path(crossconf.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = isinstance(node, ast.Call) and (getattr(node.func, "id", None)
                                                   or getattr(node.func, "attr", None))
            if name not in ("open", "fdopen"):
                continue
            mode = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "mode"), None)
            binary = isinstance(mode, ast.Constant) and "b" in mode.value
            if not binary and all(kw.arg != "encoding" for kw in node.keywords):
                unnamed.append(f"{path.name}:{node.lineno}")
    assert unnamed == []


def test_every_name_the_benchmark_rebinds_is_bound_where_it_looks():
    tracer = Tracer()
    try:
        install(tracer, [])  # Tracer.patch raises AttributeError on a missing name
    finally:
        tracer.restore()


def keywords_passed(function: str, callee: str) -> set:
    """The keyword names that ``cli.function`` passes in its calls of ``callee``."""
    tree = ast.parse((Path(crossconf.__file__).parent / "cli.py").read_text())
    body = next(n for n in ast.walk(tree)
                if isinstance(n, ast.FunctionDef) and n.name == function)
    return {kw.arg for n in ast.walk(body)
            if isinstance(n, ast.Call) and getattr(n.func, "id", None) == callee
            for kw in n.keywords}


def test_cli_sets_every_model_field_and_campaign_argument():
    # a field or argument the CLI never passes is an option no command can change
    fields = {f.name for f in dataclasses.fields(MethodConfig)}
    assert fields - keywords_passed("_config", "MethodConfig") == set()
    for command, campaign in (("cmd_simulate", run_simulation), ("cmd_run", run_real_data)):
        params = inspect.signature(campaign).parameters.values()
        keyword_only = {p.name for p in params if p.kind is p.KEYWORD_ONLY}
        assert keyword_only and keyword_only - keywords_passed(command, campaign.__name__) == set()


def test_every_regressor_field_is_set_by_some_cli_string():
    specs = [parse_regressor(text) for text in ("ols", "ridge:0.5", "knn:3")]
    unreachable = [f.name for f in dataclasses.fields(RegressorSpec)
                   if all(getattr(spec, f.name) == f.default for spec in specs)]
    assert unreachable == []


def names_read_from_crossconf(path: Path) -> set:
    """The names the file at path reads from crossconf: each name it imports
    from crossconf, and each attribute it takes of an imported crossconf
    module. A name the file defines itself is not among them."""
    submodules = {p.stem for p in Path(crossconf.__file__).parent.glob("*.py")}
    tree = ast.parse(path.read_text())
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name.split(".")[0] for alias in node.names
                        if alias.name.split(".")[0] == "crossconf"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "crossconf":
            for alias in node.names:
                is_module = node.module == "crossconf" and alias.name in submodules
                (modules if is_module else names).add(alias.asname or alias.name)
    return names | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name) and node.value.id in modules}


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
    used |= set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        used |= names_read_from_crossconf(path)
    assert sorted(exported - used) == []


def test_every_public_method_of_a_class_is_read_by_the_program():
    # a method or property that only tests read is a test helper: it belongs
    # in tests/. A read inside the method's own body does not count.
    package = Path(crossconf.__file__).parent
    methods, reads = [], []
    for path in sorted(package.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        reads += [(path, node.attr, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
        if path.parent == package:
            methods += [(path, cls.name, fn) for cls in ast.walk(tree)
                        if isinstance(cls, ast.ClassDef) for fn in cls.body
                        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not fn.name.startswith("_")]
    unread = [
        f"{path.stem}.{cls}.{fn.name}" for path, cls, fn in methods
        if not any(attr == fn.name and not (where == path and fn.lineno <= line <= fn.end_lineno)
                   for where, attr, line in reads)
    ]
    assert unread == []


def test_every_dataclass_holding_an_array_compares_by_identity():
    # the generated == compares the arrays and raises ValueError on any two
    # equal-valued instances, and the generated __hash__ = None refuses them
    package = Path(crossconf.__file__).parent
    holders, generated = [], []
    for path in sorted(package.glob("*.py")):
        module = importlib.import_module(f"crossconf.{path.stem}")
        for cls in vars(module).values():
            if not (dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__):
                continue
            if any("np.ndarray" in str(f.type) for f in dataclasses.fields(cls)):
                holders.append(cls.__name__)
                if cls.__eq__ is not object.__eq__ or cls.__hash__ is not object.__hash__:
                    generated.append(f"{path.stem}.{cls.__name__}")
    assert generated == []
    assert sorted(holders) == [
        "CvScores", "Dataset", "FoldAssignment", "KnnModel", "LinearModel", "SplitState",
    ]


def _defaulted_parameters(fn: ast.FunctionDef):
    """(position or None, name) of each parameter of fn that has a default; a
    keyword-only parameter has no position."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    out = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
    out += [(None, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
    return out


def test_every_default_of_an_exported_function_is_overridden_by_the_program():
    # a default that no call in src/ or perfbench/ overrides is an option that
    # only tests reach; spread calls (*args, **kwargs) do not count as passing it
    package = Path(crossconf.__file__).parent
    calls = {}
    for path in sorted(package.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                positional = [a for a in node.args if not isinstance(a, ast.Starred)]
                calls.setdefault(name, []).append(
                    (len(positional), {kw.arg for kw in node.keywords if kw.arg}))
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "__init__":
            continue
        exported = set(getattr(importlib.import_module(f"crossconf.{path.stem}"), "__all__", ()))
        for fn in ast.parse(path.read_text()).body:
            if not (isinstance(fn, ast.FunctionDef) and fn.name in exported):
                continue
            unused += [
                f"{path.stem}.{fn.name}({name}=)"
                for position, name in _defaulted_parameters(fn)
                if not any(name in keywords or (position is not None and position < count)
                           for count, keywords in calls.get(fn.name, ()))
            ]
    assert unused == []


def test_the_readme_quickstart_runs():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    gen = np.random.default_rng(0)
    features = gen.standard_normal((60, 3))
    names = {"features": features, "responses": features.sum(axis=1) + gen.standard_normal(60),
             "x_new": gen.standard_normal(3), "x_rows": gen.standard_normal((4, 3))}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(blocks[0], "README.md", "exec"), names)
    assert set(names["sets"]) == {"mod", "eu-mod", "cross"}
    assert names["cv_plus"].n_components == 1
