"""Module boundaries inside the package."""

import ast
import importlib
import sys
from pathlib import Path

import crossconf

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import install  # noqa: E402

# A scope, not a helper: experiments opens it around the public set builders
# so that they share a query's fold predictions and keep their signatures.
ALLOWED_PRIVATE_IMPORTS = {"_shared_fold_predictions"}


def test_no_module_imports_another_modules_private_name():
    offending = []
    for path in sorted(Path(crossconf.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                offending += [
                    f"{path.name}: {alias.name} from {node.module}"
                    for alias in node.names
                    if alias.name.startswith("_") and alias.name not in ALLOWED_PRIVATE_IMPORTS
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
