"""The runtime imports only the standard library, as ``dependencies = []``
in pyproject.toml promises: every absolute import in ``src/aspexplain``
names a standard-library module."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "aspexplain"


def absolute_imports(tree: ast.AST):
    """The top-level module name of each absolute import, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0], node.lineno


def test_runtime_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    outside = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        outside += [f"{path.name}:{line}: {name}"
                    for name, line in absolute_imports(tree)
                    if name not in sys.stdlib_module_names]
    assert outside == []
