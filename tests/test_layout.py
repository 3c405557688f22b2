"""Module boundaries inside the package."""

import ast
from pathlib import Path

import crossconf

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
