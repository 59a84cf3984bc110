"""The library keeps no runtime dependency outside the standard library."""

import ast
import sys
from pathlib import Path

import pytest

import noetherline

PACKAGE = Path(noetherline.__file__).parent


def test_the_library_imports_only_the_standard_library():
    # Relative imports (level > 0) stay inside the package.
    found = sorted({
        f"{path.name}: {name}"
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for name in ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) and not node.level
                     else [])
        if name.partition(".")[0] not in sys.stdlib_module_names
    })
    assert found == []


def test_no_module_imports_a_private_name_of_another():
    # A name that starts with an underscore stays in the module that defines it.
    found = sorted({
        f"{path.name}: {node.module}.{alias.name}"
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    })
    assert found == []


def test_the_package_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(PACKAGE.parents[1] / "pyproject.toml", "rb") as handle:
        assert tomllib.load(handle)["project"]["dependencies"] == []
