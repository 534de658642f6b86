"""nilmod has no runtime dependencies: every module under src/nilmod
imports only the standard library and its own package."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "nilmod").glob("*.py"))


def outside_imports(path):
    """Top-level names of the absolute imports in a file that are not
    standard-library modules; relative imports are the package's own."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [name for name in names if name.split(".")[0] not in sys.stdlib_module_names]
    return found


def test_the_package_has_modules():
    assert len(SOURCES) >= 8


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_imports_only_the_standard_library(path):
    assert outside_imports(path) == []


def test_an_outside_import_is_caught(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import numpy\nfrom sympy import Rational\nfrom . import exactalg\nimport json\n")
    assert outside_imports(probe) == ["numpy", "sympy"]
