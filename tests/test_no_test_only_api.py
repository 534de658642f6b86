"""Every public function and method of nilmod has a caller outside the
unit tests: the library itself, the CLI, the benchmark or the acceptance
tests.  A name that only the unit tests reach is test-only API; it goes,
or it moves into the tests as a reference.  Every private helper is read
inside the library itself, so a deleted helper does not live on for the
tests, or the benchmark, alone.

The scan is by name: a definition counts as used when its name occurs
as a `Name` or an `Attribute` anywhere in those files.  So it misses a
dead method that shares its name with a live one (`sum`, `zero`,
`from_json`), and it never reports a live one.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nilmod"
CALLERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")) + [
    ROOT / "tests" / "test_acceptance.py"
]

# Public API with no caller of its own, each kept for a reason.
ALLOWED = {
    "Poly.constant": "constructor of the constant polynomial",
    "Poly.variable": "constructor of the coordinate polynomial x_i",
    "DiffOpSeries.derivative": "constructor of the operator d_i",
    "DiffOpSeries.is_automorphism": "the paper's criterion c_0 != 0, which the README names",
    "AutGroup.additive_count": "the group's number of additive coordinates, m - 1",
    "restriction_kernel_dim": "the kernel in the quotient description of the group",
}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def used_names(paths):
    """Every identifier read as a name or an attribute in the files."""
    found = set()
    for path in paths:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
    return found


def definitions(paths):
    """(qualified name, bare name) of the module-level functions and the
    methods of module-level classes, dunder methods left out."""
    out = []
    for path in paths:
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((node.name, node.name))
            elif isinstance(node, ast.ClassDef):
                out += [
                    (f"{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
    return [(qualified, name) for qualified, name in out if not name.startswith("__")]


def unused(package_files, caller_files):
    """Public definitions that no caller reads."""
    names = used_names(caller_files)
    return sorted(q for q, name in definitions(package_files) if not name.startswith("_") and name not in names)


def unread_private(package_files):
    """Private definitions that the package itself never reads."""
    names = used_names(package_files)
    return sorted(q for q, name in definitions(package_files) if name.startswith("_") and name not in names)


def test_the_scan_reads_the_callers():
    assert all(path.is_file() for path in CALLERS)
    assert len(CALLERS) > len(list(PACKAGE.glob("*.py")))


def test_only_the_allowlist_has_no_caller():
    assert unused(sorted(PACKAGE.glob("*.py")), CALLERS) == sorted(ALLOWED)


def test_every_private_helper_is_read_by_the_library():
    package = sorted(PACKAGE.glob("*.py"))
    assert len([name for _, name in definitions(package) if name.startswith("_")]) > 50
    assert unread_private(package) == []


def test_an_uncalled_method_is_caught(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        "class A:\n"
        "    def used(self): pass\n"
        "    def spare(self): pass\n"
        "    def _private(self): pass\n"
        "def helper(): pass\n"
        "def orphan(): pass\n"
    )
    caller = tmp_path / "caller.py"
    caller.write_text("from lib import A, helper\nA().used()\nhelper()\n")
    assert unused([lib], [lib, caller]) == ["A.spare", "orphan"]


def test_an_unread_private_helper_is_caught(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        "class A:\n"
        "    def __init__(self): self._read()\n"
        "    def _read(self): pass\n"
        "    def _spare(self): pass\n"
        "def _helper(): pass\n"
        "def _orphan(): _helper()\n"
    )
    assert unread_private([lib]) == ["A._spare", "_orphan"]
