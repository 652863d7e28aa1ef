"""The runtime imports only the standard library, as ``dependencies = []``
in pyproject.toml promises: every absolute import in ``src/aspexplain``
names a standard-library module.  The package exports exactly the public
names its ``__init__.py`` imports."""

import ast
import sys
from pathlib import Path

import aspexplain

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


def test_all_lists_the_imported_public_names():
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    public = {name for name in imported if not name.startswith("_")}
    assert len(set(aspexplain.__all__)) == len(aspexplain.__all__)
    assert set(aspexplain.__all__) == public
