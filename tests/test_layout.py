"""Module boundaries inside the package."""

import ast
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


def test_every_name_the_benchmark_rebinds_is_bound_where_it_looks():
    tracer = Tracer()
    try:
        install(tracer, [])  # Tracer.patch raises AttributeError on a missing name
    finally:
        tracer.restore()
