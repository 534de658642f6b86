"""`QMatrix` and `Poly` each have one stored form: integer rows, or
integer numerators, over one denominator.  Every other module of the
package reads that form, so the matrix format is decided in `exactalg`
alone and the polynomial format in `multipoly` alone.

The guards parse the package with `ast`.  Outside `exactalg.py`, no
module reads an attribute `entries` (the `Fraction` view of a matrix)
or names `_fraction_row` (the helper that builds `Fraction` rows).
Outside `multipoly.py`, no module reads an attribute `terms` (the
`Fraction` view of a polynomial) or names `_integer_coeffs` (the
helper that turns `Fraction` coefficients into numerators), except in
the functions of an explicit allow-list.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "nilmod"
OWNER = "exactalg.py"
POLY_OWNER = "multipoly.py"
# The functions outside `multipoly` that may read a polynomial's
# `Fraction` view, each for its reason.
POLY_ALLOWED = {
    # A series' `coeffs` is the `Fraction` view of its polynomial in d.
    "diffop.DiffOpSeries.coeffs",
    # An `AutDescriptor` stores `Fraction` coordinates, so the log series
    # becomes one there.
    "diffop.AutGroup.descriptor_of",
}


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


def poly_fraction_reads(path):
    """(enclosing function, line, what) for each read of `.terms` and each
    mention of `_integer_coeffs` (a name, an attribute or an import) in a
    source file; the function is qualified by module and class, and code
    outside any function counts as the module's."""
    found = []

    def visit(node, owner, scope):
        if isinstance(node, ast.ClassDef):
            scope = f"{scope}.{node.name}"
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = scope = f"{scope}.{node.name}"
        if isinstance(node, ast.Attribute) and node.attr in ("terms", "_integer_coeffs"):
            found.append((owner, node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id == "_integer_coeffs":
            found.append((owner, node.lineno, node.id))
        elif isinstance(node, ast.alias) and node.name == "_integer_coeffs":
            found.append((owner, node.lineno, node.name))
        for child in ast.iter_child_nodes(node):
            visit(child, owner, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), path.stem, path.stem)
    return sorted(found)


def test_only_exactalg_reads_the_fraction_form():
    files = sorted(SOURCE.glob("*.py"))
    assert OWNER in [path.name for path in files] and len(files) > 5
    assert [hit for path in files if path.name != OWNER for hit in fraction_reads(path)] == []
    # The owner does read it, so the scan sees what it looks for.
    assert {what for _, _, what in fraction_reads(SOURCE / OWNER)} == {"entries", "_fraction_row"}


def test_only_multipoly_reads_the_fraction_form_of_a_polynomial():
    files = sorted(SOURCE.glob("*.py"))
    assert POLY_OWNER in [path.name for path in files] and len(files) > 5
    hits = [hit for path in files if path.name != POLY_OWNER for hit in poly_fraction_reads(path)]
    assert [hit for hit in hits if hit[0] not in POLY_ALLOWED] == []
    # Each allowed function still reads the view, so the list stays tight.
    assert {owner for owner, _, _ in hits} == POLY_ALLOWED
    assert {what for _, _, what in poly_fraction_reads(SOURCE / POLY_OWNER)} == {"terms", "_integer_coeffs"}


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


def test_the_polynomial_guard_catches_a_planted_copy(tmp_path):
    lib = tmp_path / "diffop.py"
    lib.write_text(
        '"""Reads p.terms, in a docstring, which is no read."""\n'
        "from . import multipoly\n"
        "from .multipoly import Poly, _integer_coeffs\n"
        "def first(p):\n"
        "    return p.terms\n"
        "class Copy:\n"
        "    def coeffs(self):\n"
        "        return self._poly.terms\n"
        "def rebuilt(terms):\n"
        "    return _integer_coeffs(terms)\n"
        "def qualified(terms):\n"
        "    return multipoly._integer_coeffs(terms)\n"
        "def fine(terms, p):\n"
        "    return Poly(p.n, terms), p._nums\n"
    )
    assert poly_fraction_reads(lib) == [
        ("diffop", 3, "_integer_coeffs"),
        ("diffop.Copy.coeffs", 8, "terms"),
        ("diffop.first", 5, "terms"),
        ("diffop.qualified", 12, "_integer_coeffs"),
        ("diffop.rebuilt", 10, "_integer_coeffs"),
    ]
    # None of them is allowed: the list names functions, not attributes.
    assert not {owner for owner, _, _ in poly_fraction_reads(lib)} & POLY_ALLOWED
