"""Each input rule has one owner, in `nilmod.multipoly` or, for the index
that the matrix side reads too and for a dimension, in `nilmod.exactalg`,
and every entry that reads such an input calls it:

- a variable count is an integer, not a bool, at least 1
  (`_variable_count`);
- values combined with each other have the same count (`_same_count`);
- an exponent vector is n integers, none a bool or negative
  (`_exponent`);
- a variable index is an integer, not a bool, in 1..n (`_check_var`);
- a truncation degree is an integer, not a bool, at least 0
  (`_truncation`);
- a dimension of a matrix or a subspace is an integer, not a bool, at
  least 0 (`exactalg._dimension`).

The guard parses the package with `ast`: each rule's message is built in
its owner alone, and no hand-written copy of a rule's comparison is left.
The tables then feed every public entry `True`, `2.0` and out-of-range
values, and expect the rule's one error kind.

Commutativity of a module's matrices is checked at one boundary too:
only the readers of outside input call the validating `FDModule(...)`,
and every module that commutes by construction comes from
`FDModule._trusted`.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from nilmod.diffop import (
    AutDescriptor,
    AutGroup,
    DiffOpSeries,
    MonomialSubmodule,
    extend_iso,
    extend_iso_step,
    extract_coeffs,
    restrict,
    restriction_kernel_dim,
)
from nilmod.embed import brute_force_isomorphic, is_isomorphic
from nilmod.errors import IncompatibleMap
from nilmod.exactalg import QMatrix, Subspace, as_fraction
from nilmod.modcore import FDModule
from nilmod.multipoly import Poly, monomials_of_degree, monomials_up_to_degree, potential, truncated_product
from nilmod.polysub import (
    ExpSubmodule,
    ModuleMap,
    PolySubmodule,
    random_nilpotent_module,
    submodule_from_polys,
)

SOURCE = Path(__file__).resolve().parents[1] / "src" / "nilmod"

# Each rule's message (a piece of it, for the f-strings) and its owner.
OWNERS = {
    "variable count must be at least 1": "multipoly._variable_count",
    "variable count mismatch": "multipoly._same_count",
    "bad exponent vector": "multipoly._exponent",
    "out of range 1..": "exactalg._check_var",
    "truncation degree must be non-negative": "multipoly._truncation",
    "dimension must be non-negative": "exactalg._dimension",
}
# `extract_coeffs` names the table in its own message.
EXCLUDED = "variable count mismatch in image table"


def _nodes_by_function(path):
    """(qualified function name, node) for every node of a source file,
    under its innermost enclosing function (None outside any), docstrings
    and other bare string statements left out."""

    def visit(node, owner, scope):
        if isinstance(node, ast.ClassDef):
            scope = f"{scope}.{node.name}"
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = scope = f"{scope}.{node.name}"
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            return
        yield owner, node
        for child in ast.iter_child_nodes(node):
            yield from visit(child, owner, scope)

    return visit(ast.parse(path.read_text(), filename=str(path)), None, path.stem)


def package_nodes():
    files = sorted(SOURCE.glob("*.py"))
    assert files
    return [item for path in files for item in _nodes_by_function(path)]


def builders(nodes, message):
    """The functions whose strings contain the message."""
    return sorted(
        {
            owner
            for owner, node in nodes
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and message in node.value
            and EXCLUDED not in node.value
        }
    )


def _is_count(node):
    return isinstance(node, ast.Attribute) and node.attr == "n"


def count_comparisons(nodes):
    """Functions that compare one value's `.n` with another's."""
    return sorted(
        {
            owner
            for owner, node in nodes
            if isinstance(node, ast.Compare) and _is_count(node.left) and any(map(_is_count, node.comparators))
        }
    )


def index_ranges(nodes):
    """Functions with a chained comparison `1 <= i <= n`."""
    return sorted(
        {
            owner
            for owner, node in nodes
            if isinstance(node, ast.Compare)
            and isinstance(node.left, ast.Constant)
            and node.left.value == 1
            and [type(op) for op in node.ops] == [ast.LtE, ast.LtE]
        }
    )


def below_one(nodes):
    """Functions that compare something with `< 1`."""
    return sorted(
        {
            owner
            for owner, node in nodes
            if isinstance(node, ast.Compare)
            and [type(op) for op in node.ops] == [ast.Lt]
            and isinstance(node.comparators[0], ast.Constant)
            and node.comparators[0].value == 1
        }
    )


@pytest.mark.parametrize("message", sorted(OWNERS))
def test_each_rule_message_is_built_in_one_function(message):
    assert builders(package_nodes(), message) == [OWNERS[message]]


def test_no_copy_of_a_rule_is_left():
    nodes = package_nodes()
    assert count_comparisons(nodes) == []
    assert index_ranges(nodes) == ["exactalg._check_var"]
    # FDModule reads its count as "one matrix per variable", in its own words.
    assert below_one(nodes) == ["modcore.FDModule.__init__", "multipoly._variable_count"]


def test_the_guard_catches_a_copy(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        '"""variable count mismatch, in a docstring, is no copy."""\n'
        "def owner(n, value):\n"
        "    if value.n != n:\n"
        '        raise ValueError("variable count mismatch")\n'
        "def copy(p, q):\n"
        "    if p.n != q.n:\n"
        '        raise ValueError("variable count mismatch")\n'
        "def table(p, n):\n"
        "    if p.n != n:\n"
        '        raise ValueError("variable count mismatch in image table")\n'
        "class A:\n"
        "    def method(self, p, q):\n"
        "        return p.n == q.n\n"
        "def index(i, n):\n"
        "    def inner():\n"
        "        return 1 <= i <= n\n"
        "    if n < 1:\n"
        '        raise IndexError(f"variable index {i} out of range 1..{n}")\n'
    )
    nodes = list(_nodes_by_function(lib))
    assert builders(nodes, "variable count mismatch") == ["lib.copy", "lib.owner"]
    assert builders(nodes, "out of range 1..") == ["lib.index"]
    assert count_comparisons(nodes) == ["lib.A.method", "lib.copy"]
    assert index_ranges(nodes) == ["lib.index.inner"]
    assert below_one(nodes) == ["lib.index"]


# --- one validating boundary for modules ----------------------------------

# `FDModule(n, matrices)` checks commutativity, and `PolySubmodule(n, polys)`
# closure under differentiation.  Only the readers of outside input call
# them; a module that commutes, or a span that is closed, by construction
# comes from the class's `_trusted`.
BUILDERS = {
    "FDModule": (["modcore.FDModule.from_json", "modcore.validate"], ["modcore.twist", "polysub.as_matrices"]),
    "PolySubmodule": (
        ["polysub.PolySubmodule.from_json"],
        [
            "diffop.MonomialSubmodule.as_poly_submodule",
            "diffop._extend",
            "embed._image",
            "polysub._degree_span",
            "polysub.submodule_from_polys",
        ],
    ),
}


def _called(node):
    """The name a call's function ends in, or None."""
    func = node.func
    return func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None


def module_builders(nodes, cls):
    """(validating, trusted): the functions that call `cls(...)` by the
    class's name (or as `cls(...)` in a method of the class), and those
    that call `<cls>._trusted(...)`."""
    validating, trusted = set(), set()
    for owner, node in nodes:
        if not isinstance(node, ast.Call):
            continue
        name = _called(node)
        in_class = owner is not None and owner.split(".")[-2:-1] == [cls]
        if name == cls or (name == "cls" and in_class):
            validating.add(owner)
        elif name == "_trusted" and isinstance(node.func.value, ast.Name) and node.func.value.id == cls:
            trusted.add(owner)
    return sorted(validating), sorted(trusted)


def test_only_the_readers_of_input_validate_a_module():
    nodes = package_nodes()
    assert {cls: module_builders(nodes, cls) for cls in BUILDERS} == BUILDERS


def test_the_module_guard_catches_a_planted_call(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        '"""FDModule(n, matrices), in a docstring, is no call."""\n'
        "from . import modcore\n"
        "def shifted(module, eye):\n"
        "    return FDModule(module.n, [m - eye for m in module.matrices])\n"
        "def qualified(module):\n"
        "    return modcore.FDModule(module.n, module.matrices)\n"
        "class FDModule:\n"
        "    @classmethod\n"
        "    def read(cls, n, matrices):\n"
        "        return cls(n, matrices)\n"
        "class Other:\n"
        "    @classmethod\n"
        "    def read(cls, n):\n"
        "        return cls(n)\n"
        "def fine(module, blocks):\n"
        "    return FDModule._trusted(module.n, module.dim, blocks, 1)\n"
        "def closure(sub, p):\n"
        "    return modcore.PolySubmodule(sub.n, list(sub.basis) + [p])\n"
        "def span(n, monomials, rows):\n"
        "    return PolySubmodule._trusted(n, monomials, rows)\n"
    )
    nodes = list(_nodes_by_function(lib))
    assert module_builders(nodes, "FDModule") == (
        ["lib.FDModule.read", "lib.qualified", "lib.shifted"],
        ["lib.fine"],
    )
    assert module_builders(nodes, "PolySubmodule") == (["lib.closure"], ["lib.span"])


# --- the tables -----------------------------------------------------------

ZERO = QMatrix([[0]])

# Entries that read a variable count n.
COUNT_ENTRIES = {
    "Poly": lambda n: Poly(n, {}),
    "Poly.zero": lambda n: Poly.zero(n),
    "Poly.one": lambda n: Poly.one(n),
    "Poly.constant": lambda n: Poly.constant(n, 3),
    "Poly.monomial": lambda n: Poly.monomial(n, (0,)),
    "Poly.variable": lambda n: Poly.variable(n, 1),
    "Poly.from_json": lambda n: Poly.from_json([], n),
    "monomials_of_degree": lambda n: list(monomials_of_degree(n, 1)),
    "monomials_up_to_degree": lambda n: list(monomials_up_to_degree(n, 1)),
    "potential": lambda n: potential([], n),
    "FDModule": lambda n: FDModule(n, [ZERO]),
    "FDModule.from_json": lambda n: FDModule.from_json({"n": n, "matrices": [[["0"]]]}),
    "PolySubmodule": lambda n: PolySubmodule(n, []),
    "PolySubmodule.from_json": lambda n: PolySubmodule.from_json({"n": n, "basis": [[{"exps": [0], "coef": "1"}]]}),
    "submodule_from_polys": lambda n: submodule_from_polys(n, []),
    "random_nilpotent_module": lambda n: random_nilpotent_module(n, 1, 0),
    "DiffOpSeries": lambda n: DiffOpSeries(n, 1),
    "DiffOpSeries.identity": lambda n: DiffOpSeries.identity(n, 1),
    "DiffOpSeries.derivative": lambda n: DiffOpSeries.derivative(n, 1, 1),
    "extract_coeffs": lambda n: extract_coeffs(n, 0, {(0,): Poly.one(1)}),
    "MonomialSubmodule": lambda n: MonomialSubmodule(n, [(0,)]),
    "MonomialSubmodule.from_json": lambda n: MonomialSubmodule.from_json({"n": n, "indices": [[0]]}),
}


@pytest.mark.parametrize("n", [True, 2.0, "2"], ids=["bool", "float", "string"])
@pytest.mark.parametrize("entry", sorted(COUNT_ENTRIES))
def test_every_count_entry_refuses_a_non_integer_count(entry, n):
    with pytest.raises(ValueError, match=f"^expected an integer, got {n!r}$"):
        COUNT_ENTRIES[entry](n)


@pytest.mark.parametrize("n", [0, -1], ids=["zero", "negative"])
@pytest.mark.parametrize("entry", sorted(COUNT_ENTRIES))
def test_every_count_entry_refuses_fewer_than_one_variable(entry, n):
    # FDModule reads the count as one matrix per variable.
    message = {
        "FDModule": "need one action matrix per variable",
        "FDModule.from_json": "need one action matrix per variable",
    }.get(entry, "variable count must be at least 1")
    with pytest.raises(ValueError) as caught:
        COUNT_ENTRIES[entry](n)
    assert str(caught.value) == message


def _as_json(alpha):
    """An exponent as JSON holds it: a tuple as a list, a scalar as itself."""
    return list(alpha) if isinstance(alpha, tuple) else alpha


# Entries that read an exponent vector of length 2 (AutDescriptor: of any length).
EXPONENT_ENTRIES = {
    "Poly": lambda alpha: Poly(2, {alpha: 1}),
    "Poly.monomial": lambda alpha: Poly.monomial(2, alpha),
    "Poly.from_json": lambda alpha: Poly.from_json([{"exps": _as_json(alpha), "coef": "1"}], 2),
    # (True, 0) and (1.0, 0) equal (1, 0): each vector is read before the duplicate test.
    "Poly.from_json after (1, 0)": lambda alpha: Poly.from_json(
        [{"exps": [1, 0], "coef": "1"}, {"exps": _as_json(alpha), "coef": "1"}], 2
    ),
    "DiffOpSeries": lambda alpha: DiffOpSeries(2, 3, {alpha: 1}),
    "MonomialSubmodule": lambda alpha: MonomialSubmodule(2, [(0, 0), alpha]),
    "AutDescriptor": lambda alpha: AutDescriptor(1, {alpha: 1}),
}
BAD_EXPONENTS = {
    "bool": (True, 0),
    "float": (1.0, 0),
    "negative": (-1, 0),
    "string": ("1", 0),
    "short": (1,),
    "scalar": 5,
    "none": None,
}


# A descriptor has no variable count to hold a short vector, or one with no
# length, against (test_a_descriptor_refuses_an_exponent_that_is_not_a_sequence).
UNREAD = {("AutDescriptor", k) for k in ("short", "scalar", "none")}
EXPONENT_CASES = [(e, k) for e in sorted(EXPONENT_ENTRIES) for k in sorted(BAD_EXPONENTS) if (e, k) not in UNREAD]


@pytest.mark.parametrize("entry,kind", EXPONENT_CASES, ids=[f"{e}-{k}" for e, k in EXPONENT_CASES])
def test_every_exponent_entry_refuses_a_bad_vector(entry, kind):
    alpha = BAD_EXPONENTS[kind]
    with pytest.raises(ValueError) as caught:
        EXPONENT_ENTRIES[entry](alpha)
    assert str(caught.value) == f"bad exponent vector {alpha} for n=2"


@pytest.mark.parametrize("entry", sorted(EXPONENT_ENTRIES))
def test_every_exponent_entry_accepts_a_vector(entry):
    EXPONENT_ENTRIES[entry]((0, 1))


def test_poly_from_json_reads_an_unhashable_vector_as_a_bad_one():
    # [[1], 0] used to reach the duplicate test and fail there with
    # "unhashable type: 'list'".
    with pytest.raises(ValueError) as caught:
        EXPONENT_ENTRIES["Poly.from_json after (1, 0)"]([[1], 0])
    assert str(caught.value) == "bad exponent vector ([1], 0) for n=2"


# Entries that read a variable index i with n = 2.
INDEX_ENTRIES = {
    "Poly.variable": lambda i: Poly.variable(2, i),
    "Poly.partial": lambda i: Poly(2, {(1, 1): 1}).partial(i),
    "Poly.degree_in": lambda i: Poly(2, {(1, 1): 1}).degree_in(i),
    "FDModule.action": lambda i: FDModule(2, [ZERO, ZERO]).action(i),
    "DiffOpSeries.derivative": lambda i: DiffOpSeries.derivative(2, 3, i),
}


@pytest.mark.parametrize("i", [True, 2.0, 0, 3, -1], ids=["bool", "float", "zero", "above", "negative"])
@pytest.mark.parametrize("entry", sorted(INDEX_ENTRIES))
def test_every_index_entry_refuses_a_bad_index(entry, i):
    if isinstance(i, int) and not isinstance(i, bool):
        with pytest.raises(IndexError, match=rf"^variable index {i} out of range 1..2$"):
            INDEX_ENTRIES[entry](i)
    else:
        with pytest.raises(ValueError, match=rf"^expected an integer, got {i!r}$"):
            INDEX_ENTRIES[entry](i)


@pytest.mark.parametrize("entry", sorted(INDEX_ENTRIES))
def test_every_index_entry_accepts_both_variables(entry):
    INDEX_ENTRIES[entry](1)
    INDEX_ENTRIES[entry](2)


# Entries that read a truncation degree d.
TRUNCATION_ENTRIES = {
    "DiffOpSeries": lambda d: DiffOpSeries(1, d),
    "DiffOpSeries.identity": lambda d: DiffOpSeries.identity(1, d),
    "DiffOpSeries.derivative": lambda d: DiffOpSeries.derivative(1, d, 1),
    "extract_coeffs": lambda d: extract_coeffs(1, d, {(0,): Poly.one(1), (1,): Poly(1, {(1,): 1})}),
    "restriction_kernel_dim": lambda d: restriction_kernel_dim(MonomialSubmodule(1, [(0,)]), d),
}


@pytest.mark.parametrize("d", [True, 2.0, -1], ids=["bool", "float", "negative"])
@pytest.mark.parametrize("entry", sorted(TRUNCATION_ENTRIES))
def test_every_truncation_entry_refuses_a_bad_degree(entry, d):
    message = "truncation degree must be non-negative" if d == -1 else f"expected an integer, got {d!r}"
    with pytest.raises(ValueError) as caught:
        TRUNCATION_ENTRIES[entry](d)
    assert str(caught.value) == message


@pytest.mark.parametrize("entry", sorted(TRUNCATION_ENTRIES))
def test_every_truncation_entry_accepts_a_degree(entry):
    TRUNCATION_ENTRIES[entry](1)


# Enumerators that read a total degree: an integer, and none below 0.
DEGREE_ENTRIES = {
    "monomials_of_degree": lambda d: list(monomials_of_degree(2, d)),
    "monomials_up_to_degree": lambda d: list(monomials_up_to_degree(2, d)),
}


@pytest.mark.parametrize("d", [True, 2.0, -1], ids=["bool", "float", "negative"])
@pytest.mark.parametrize("entry", sorted(DEGREE_ENTRIES))
def test_every_enumerator_reads_an_integer_degree(entry, d):
    # True was read as 1 (monomials_of_degree yielded (True, 0)), and 2.0
    # gave float exponents or Python's own TypeError.
    if d == -1:
        assert DEGREE_ENTRIES[entry](d) == []
        return
    with pytest.raises(ValueError) as caught:
        DEGREE_ENTRIES[entry](d)
    assert str(caught.value) == f"expected an integer, got {d!r}"


# Entries that read a dimension d.
DIMENSION_ENTRIES = {
    "Subspace": lambda d: Subspace(d, []),
    "QMatrix": lambda d: QMatrix([], cols=d),
    "QMatrix.from_columns": lambda d: QMatrix.from_columns([], rows=d),
    "QMatrix.identity": lambda d: QMatrix.identity(d),
}


@pytest.mark.parametrize("d", [True, 2.0, -1], ids=["bool", "float", "negative"])
@pytest.mark.parametrize("entry", sorted(DIMENSION_ENTRIES))
def test_every_dimension_entry_refuses_a_bad_dimension(entry, d):
    # Subspace(-1, []) was "dim 0 of Q^-1", QMatrix.from_columns([], rows=-1)
    # a 0 x 0 matrix and Subspace(2.0, []) Python's own TypeError.
    message = "dimension must be non-negative" if d == -1 else f"expected an integer, got {d!r}"
    with pytest.raises(ValueError) as caught:
        DIMENSION_ENTRIES[entry](d)
    assert str(caught.value) == message


@pytest.mark.parametrize("entry", sorted(DIMENSION_ENTRIES))
def test_every_dimension_entry_accepts_a_dimension(entry):
    DIMENSION_ENTRIES[entry](0)
    DIMENSION_ENTRIES[entry](2)


def _span(n):
    return submodule_from_polys(n, [])


def _identity_map(n):
    return ModuleMap(_span(n), _span(n), QMatrix.identity(1))


# Entries that combine values with different variable counts.
MISMATCH_ENTRIES = {
    "Poly.__add__": lambda: Poly.one(1) + Poly.one(2),
    "Poly.__sub__": lambda: Poly.one(1) - Poly.one(2),
    "truncated_product": lambda: truncated_product(Poly.one(1), Poly.one(2), 2),
    "DiffOpSeries.compose": lambda: DiffOpSeries.identity(1, 2).compose(DiffOpSeries.identity(2, 2)),
    "DiffOpSeries.apply": lambda: DiffOpSeries.identity(1, 2).apply(Poly.one(2)),
    "restrict": lambda: restrict(DiffOpSeries.identity(1, 2), MonomialSubmodule(2, [(0, 0)])),
    "potential": lambda: potential([Poly.one(1)], 2),
    "is_isomorphic": lambda: is_isomorphic(FDModule(1, [ZERO]), FDModule(2, [ZERO, ZERO])),
    "brute_force_isomorphic": lambda: brute_force_isomorphic(FDModule(1, [ZERO]), FDModule(2, [ZERO, ZERO])),
    "PolySubmodule": lambda: PolySubmodule(2, [Poly.one(1)]),
    "PolySubmodule.coordinates_of": lambda: _span(2).coordinates_of(Poly.one(1)),
    "submodule_from_polys": lambda: submodule_from_polys(2, [Poly.one(1)]),
    "extend_iso": lambda: extend_iso(_span(2), _span(2), _identity_map(2), MonomialSubmodule(1, [(0,)])),
    "extend_iso_step": lambda: extend_iso_step(_span(2), _span(2), _identity_map(2), MonomialSubmodule(1, [(0,)])),
}


@pytest.mark.parametrize("entry", sorted(MISMATCH_ENTRIES))
def test_every_combining_entry_refuses_a_count_mismatch(entry):
    with pytest.raises(ValueError, match="^variable count mismatch$"):
        MISMATCH_ENTRIES[entry]()


# --- the five inputs that slipped past a copy of a rule ---------------------

@pytest.mark.parametrize("alpha", [(True, 0), (1.0, 0)], ids=["bool", "float"])
def test_a_descriptor_refuses_a_non_integer_exponent(alpha):
    # (True, 0) used to be read as (1, 0); (1.0, 0) failed later, in
    # `matrix_of`, with Python's own TypeError.
    with pytest.raises(ValueError, match=r"^bad exponent vector .* for n=2$"):
        AutDescriptor(1, {alpha: 1})


@pytest.mark.parametrize("alpha", [5, None], ids=["scalar", "none"])
def test_a_descriptor_refuses_an_exponent_that_is_not_a_sequence(alpha):
    # Its length used to be read first, with Python's own TypeError.  A
    # first exponent with no length is read against n = 1, a later one
    # against the first one's length.
    with pytest.raises(ValueError) as caught:
        AutDescriptor(1, {alpha: 1})
    assert str(caught.value) == f"bad exponent vector {alpha} for n=1"
    with pytest.raises(ValueError) as caught:
        AutDescriptor(1, {(1, 0): 1, alpha: 2})
    assert str(caught.value) == f"bad exponent vector {alpha} for n=2"


def test_a_descriptor_refuses_exponents_of_different_lengths():
    # Each exponent's length used to be its own variable count.
    with pytest.raises(ValueError, match=r"^bad exponent vector \(1, 0\) for n=1$"):
        AutDescriptor(1, {(1,): 1, (1, 0): 2})


@pytest.mark.parametrize("i", [0, 3, -1])
def test_the_derivative_refuses_an_index_out_of_range(i):
    # Building the unit vector unchecked gave the identity operator.
    with pytest.raises(IndexError, match=rf"^variable index {i} out of range 1..2$"):
        DiffOpSeries.derivative(2, 3, i)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Poly(True, {}),
        lambda: Poly(2.0, {}),
        lambda: Poly.one(2.0),
        lambda: PolySubmodule(True, [Poly.one(1)]),
        lambda: FDModule(True, [ZERO]),
        lambda: submodule_from_polys(True, []),
        lambda: random_nilpotent_module(True, 1, 0),
    ],
    ids=["Poly-bool", "Poly-float", "Poly.one-float", "PolySubmodule", "FDModule", "submodule_from_polys", "random"],
)
def test_a_non_integer_count_is_refused_as_series_refuse_it(build):
    # Only `DiffOpSeries`, `extract_coeffs` and `MonomialSubmodule` refused it.
    with pytest.raises(ValueError, match=r"^expected an integer, got (True|2\.0)$"):
        build()


def test_a_bool_index_is_refused():
    with pytest.raises(ValueError, match="^expected an integer, got True$"):
        Poly.variable(2, True)
    with pytest.raises(ValueError, match="^expected an integer, got True$"):
        FDModule(1, [ZERO]).action(True)


def test_the_rules_keep_accepting_plain_input():
    assert Poly.variable(2, 2) == Poly(2, {(0, 1): 1})
    assert DiffOpSeries.derivative(2, 3, 2) == DiffOpSeries(2, 3, {(0, 1): 1})
    assert DiffOpSeries.identity(2, 3) == DiffOpSeries(2, 3, {(0, 0): Fraction(1)})
    assert AutDescriptor(2, {(1, 0): 1}).additive == {(1, 0): 1}


# --- refusals and edge answers that no other test reaches -------------------

def _x1_span():
    """K[d] x_1 in two variables: 1 and x_1, dimension 2."""
    return submodule_from_polys(2, [Poly.variable(2, 1)])


EDGE_CASES = {
    "as_fraction-bool": (lambda: as_fraction(True), ValueError("expected an exact rational, got the boolean True")),
    "QMatrix.apply-length": (
        lambda: QMatrix([[1, 2]]).apply([1]),
        ValueError("vector length differs from column count"),
    ),
    "QMatrix.__add__-shape": (lambda: QMatrix([[1]]) + QMatrix([[1, 2]]), ValueError("shape mismatch")),
    "QMatrix.det-non-square": (lambda: QMatrix([[1, 2]]).det(), ValueError("determinant of a non-square matrix")),
    "Subspace.coordinates_of-length": (
        lambda: Subspace(2, [[1, 0]]).coordinates_of([1]),
        ValueError("vector length differs from ambient dimension"),
    ),
    "PolySubmodule.from_coordinates-length": (
        lambda: _x1_span().from_coordinates([1]),
        ValueError("coordinate length differs from dimension"),
    ),
    "ExpSubmodule-eigenvalue-count": (
        lambda: ExpSubmodule([1, 2], _span(1)),
        ValueError("eigenvalue count differs from the variable count"),
    ),
    "ModuleMap-shape": (
        lambda: ModuleMap(_x1_span(), _x1_span(), QMatrix([[1]])),
        ValueError("image matrix shape disagrees with the modules"),
    ),
    "ModuleMap.is_intertwining-counts": (
        lambda: ModuleMap(FDModule(1, [ZERO]), FDModule(2, [ZERO, ZERO]), QMatrix([[1]])).is_intertwining(),
        False,
    ),
    "extend_iso-endpoints": (
        lambda: extend_iso(_x1_span(), _x1_span(), _identity_map(2), MonomialSubmodule(2, [(0, 0)])),
        IncompatibleMap("map endpoints disagree with the given submodules"),
    ),
    "AutDescriptor-origin": (
        lambda: AutDescriptor(1, {(0, 0): 1}),
        ValueError("the origin is not an additive coordinate"),
    ),
    "AutGroup.descriptor_of-size": (
        lambda: AutGroup(MonomialSubmodule(2, [(0, 0), (1, 0)])).descriptor_of(QMatrix([[1]])),
        ValueError("matrix size disagrees with the submodule"),
    ),
    "brute_force_isomorphic-dim-0": (
        lambda: brute_force_isomorphic(FDModule(1, [QMatrix([], cols=0)]), FDModule(1, [QMatrix([], cols=0)])),
        True,
    ),
    "brute_force_isomorphic-no-intertwiner": (
        lambda: brute_force_isomorphic(FDModule(1, [ZERO]), FDModule(1, [QMatrix([[1]])])),
        False,
    ),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_each_edge_case_gives_its_one_answer(case):
    # An expected exception names the error kind and its exact message.
    build, expected = EDGE_CASES[case]
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as caught:
            build()
        assert type(caught.value) is type(expected) and str(caught.value) == str(expected)
    else:
        assert build() is expected
