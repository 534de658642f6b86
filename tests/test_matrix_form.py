"""`QMatrix` has one stored form: integer rows over one denominator.
Every other module of the package reads that form, so the matrix format
is decided in `exactalg` alone.

The guard parses the package with `ast`: outside `exactalg.py`, no
module reads an attribute `entries` (the `Fraction` view of a matrix)
or names `_fraction_row` (the helper that builds `Fraction` rows).
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "nilmod"
OWNER = "exactalg.py"


def fraction_reads(path):
    """(file, line, what) for each read of `.entries` and each mention of
    `_fraction_row` (a name, an attribute or an import) in a source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr in ("entries", "_fraction_row"):
            found.append((path.name, node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id == "_fraction_row":
            found.append((path.name, node.lineno, node.id))
        elif isinstance(node, ast.alias) and node.name == "_fraction_row":
            found.append((path.name, node.lineno, node.name))
    return sorted(found)


def test_only_exactalg_reads_the_fraction_form():
    files = sorted(SOURCE.glob("*.py"))
    assert OWNER in [path.name for path in files] and len(files) > 5
    assert [hit for path in files if path.name != OWNER for hit in fraction_reads(path)] == []
    # The owner does read it, so the scan sees what it looks for.
    assert {what for _, _, what in fraction_reads(SOURCE / OWNER)} == {"entries", "_fraction_row"}


def test_the_guard_catches_a_planted_copy(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        '"""Reads matrix.entries, in a docstring, which is no read."""\n'
        "from . import exactalg\n"
        "from .exactalg import QMatrix, _fraction_row\n"
        "def first(matrix):\n"
        "    return matrix.entries[0]\n"
        "def rebuilt(ints, den):\n"
        "    return [_fraction_row(row, den) for row in ints]\n"
        "def qualified(row):\n"
        "    return exactalg._fraction_row(row, 1)\n"
        "def fine(entries, matrix):\n"
        "    return QMatrix(entries, cols=matrix.cols)\n"
    )
    assert fraction_reads(lib) == [
        ("lib.py", 3, "_fraction_row"),
        ("lib.py", 5, "entries"),
        ("lib.py", 7, "_fraction_row"),
        ("lib.py", 9, "_fraction_row"),
    ]
