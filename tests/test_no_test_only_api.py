"""Every public function and method of nilmod has a caller outside the
unit tests: the library itself, the CLI, the benchmark or the acceptance
tests.  A name that only the unit tests reach is test-only API; it goes,
or it moves into the tests as a reference.  Every private helper is read
inside the library itself, so a deleted helper does not live on for the
tests, or the benchmark, alone.

The scan is by name: a function counts as used when its name occurs
as a `Name` or an `Attribute` anywhere in those files, and a method only
when it occurs as an `Attribute`, the one way a caller reaches it.  So a
local variable of the same name (`column`) does not keep a method alive.
It still misses a dead method that shares its name with a live attribute
(`sum`, `zero`, `from_json`), and it never reports a live one.

Options get the same scan: every defaulted parameter of a public
function or method must be set, by keyword or by position, in some call
of that name among the same callers; a call of a class counts for its
`__init__`.  Being name-based, it misses an option whose function
shares its name with one that sets it: `perfbench/workloads.py` defines
an `embed_general(nm, rng, smoke)` of its own, so a test-only
`rng` option of `nilmod.embed_general` would have slipped past.
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
    "DiffOpSeries.derivative": "constructor of the operator d_i",
    "DiffOpSeries.is_automorphism": "the paper's criterion c_0 != 0, which the README names",
    "AutGroup.additive_count": "the group's number of additive coordinates, m - 1",
    "restriction_kernel_dim": "the kernel in the quotient description of the group",
    "parse_rational": "the reader of one wire literal, inverse of format_rational; the JSON readers split literals",
}

# Options that no caller sets, each kept for a reason.
ALLOWED_OPTIONS = {}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def used_names(paths):
    """(names, attributes): every identifier read as a name, and every one
    read as an attribute, in the files."""
    names, attributes = set(), set()
    for path in paths:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return names, attributes


def definitions(paths):
    """(qualified name, bare name, is a method) of the module-level
    functions and the methods of module-level classes, dunder methods
    left out."""
    out = []
    for path in paths:
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((node.name, node.name, False))
            elif isinstance(node, ast.ClassDef):
                out += [
                    (f"{node.name}.{item.name}", item.name, True)
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
    return [d for d in out if not d[1].startswith("__")]


def unreached(package_files, caller_files, private):
    """Definitions, private or public, that no caller reaches: a method as
    an attribute, a function as a name or an attribute."""
    names, attributes = used_names(caller_files)
    return sorted(
        q
        for q, name, method in definitions(package_files)
        if name.startswith("_") == private and name not in (attributes if method else names | attributes)
    )


def unused(package_files, caller_files):
    """Public definitions that no caller reaches."""
    return unreached(package_files, caller_files, False)


def unread_private(package_files):
    """Private definitions that the package itself never reaches."""
    return unreached(package_files, package_files, True)


def _defaulted(fn, skip):
    """(parameter, position in a call) of each defaulted parameter of a
    function, skipping `skip` leading ones; position None for keyword-only."""
    args = fn.args
    positional = args.posonlyargs + args.args
    for k in range(len(positional) - len(args.defaults), len(positional)):
        yield positional[k].arg, k - skip
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def options(paths):
    """(label, called name, parameter, position) of each defaulted
    parameter of the public module-level functions and of the public
    methods and `__init__` of module-level classes."""
    out = []
    for path in paths:
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out += [(f"{node.name}({p})", node.name, p, k) for p, k in _defaulted(node, 0)]
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        continue
                    called = node.name if item.name == "__init__" else item.name
                    static = any(getattr(d, "id", None) == "staticmethod" for d in item.decorator_list)
                    out += [
                        (f"{node.name}.{item.name}({p})", called, p, k)
                        for p, k in _defaulted(item, 0 if static else 1)
                    ]
    return [o for o in out if not o[1].startswith("_")]


def set_options(caller_files):
    """(called name, keyword) and (called name, positional count, starred)
    of every call in the files."""
    found = set()
    for path in caller_files:
        for node in ast.walk(_parse(path)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            found.update((name, kw.arg) for kw in node.keywords)
            found.add((name, len(node.args), any(isinstance(a, ast.Starred) for a in node.args)))
    return found


def unset_options(package_files, caller_files):
    """Labels of the options that no call sets: not by keyword, nor by
    position, nor through `*args` or `**kwargs`."""
    calls = set_options(caller_files)

    def is_set(name, param, position):
        if (name, param) in calls or (name, None) in calls:
            return True
        return any(
            c[0] == name and isinstance(c[1], int) and (c[2] or (position is not None and c[1] > position))
            for c in calls
        )

    return sorted(label for label, name, param, k in options(package_files) if not is_set(name, param, k))


def test_the_scan_reads_the_callers():
    assert all(path.is_file() for path in CALLERS)
    assert len(CALLERS) > len(list(PACKAGE.glob("*.py")))


def test_only_the_allowlist_has_no_caller():
    assert unused(sorted(PACKAGE.glob("*.py")), CALLERS) == sorted(ALLOWED)


def test_every_public_option_is_set_by_a_caller():
    package = sorted(PACKAGE.glob("*.py"))
    assert len(options(package)) > 5
    assert unset_options(package, CALLERS) == sorted(ALLOWED_OPTIONS)


def test_every_private_helper_is_read_by_the_library():
    package = sorted(PACKAGE.glob("*.py"))
    assert len([name for _, name, _ in definitions(package) if name.startswith("_")]) > 50
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
    caller.write_text("from lib import A, helper\nspare = A()\nspare.used()\nhelper()\n")
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


def test_an_unset_option_is_caught(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        "class A:\n"
        "    def __init__(self, x=0, y=0): pass\n"
        "    def method(self, a, b=1): pass\n"
        "    def _private(self, c=2): pass\n"
        "def by_keyword(a, scale=1): pass\n"
        "def by_position(a, scale=1): pass\n"
        "def spread(a, scale=1): pass\n"
        "def spread_keywords(a, scale=1): pass\n"
        "def keyword_only(a, *, flag=False): pass\n"
        "def unset(a, degree=None): pass\n"
    )
    caller = tmp_path / "caller.py"
    caller.write_text(
        "from lib import *\n"
        "A(1).method(0)\n"
        "by_keyword(0, scale=2)\n"
        "by_position(0, 2)\n"
        "spread(*[0, 2])\n"
        "spread_keywords(0, **{'scale': 2})\n"
        "keyword_only(0)\n"
        "unset(0)\n"
    )
    assert unset_options([lib], [lib, caller]) == [
        "A.__init__(y)",
        "A.method(b)",
        "keyword_only(flag)",
        "unset(degree)",
    ]
