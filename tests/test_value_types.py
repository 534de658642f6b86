"""The immutable value types share one base (`exactalg.Immutable` and
`exactalg.Value`): assignment after construction raises, values of one
type compare by their fields, and module maps and embedding results
compare by identity.  One table covers all eleven types; each row builds
two equal values from scratch."""

import random
from fractions import Fraction

import pytest

from nilmod.diffop import AutDescriptor, DiffOpSeries, MonomialSubmodule, restrict
from nilmod.embed import embed_nilpotent
from nilmod.exactalg import QMatrix, Subspace
from nilmod.modcore import FDModule
from nilmod.multipoly import Poly
from nilmod.polysub import (
    ExpSubmodule,
    PolySubmodule,
    random_nilpotent_module,
    submodule_from_polys,
)


def subspace(warm):
    space = Subspace(3, [[1, 2, 0], [0, 1, 1]])
    if warm:  # fills the membership cache, which is not part of the value
        assert space.coordinates_of([1, 3, 1]) is not None
    return space


def monomial_submodule(warm):
    module = MonomialSubmodule(2, [(0, 0), (1, 0), (0, 1), (2, 0)])
    if warm:  # builds the memoised span, which is not part of the value
        module.as_poly_submodule()
    return module


def qmatrix(warm):
    matrix = QMatrix([[1, Fraction(1, 2)], [0, -3]])
    if warm:  # builds the Fraction view, which is not part of the value
        assert matrix.entries[0][1] == Fraction(1, 2)
    return matrix


def poly(warm):
    p = Poly(2, {(1, 0): 2, (0, 3): Fraction(-1, 5)})
    if warm:  # builds the Fraction view, which is not part of the value
        assert p.terms[(0, 3)] == Fraction(-1, 5)
    return p


def series(warm):
    s = DiffOpSeries(2, 3, {(0, 0): 1, (1, 1): Fraction(2, 3)})
    if warm:  # builds the Fraction view, which is not part of the value
        assert s.coeffs[(1, 1)] == Fraction(2, 3)
    return s


def fd_module(warm):
    module = random_nilpotent_module(2, 2, seed=5)
    if warm:  # builds the QMatrix view, which is not part of the value
        assert len(module.matrices) == 2
    return module


def poly_submodule(_):
    return submodule_from_polys(2, [Poly(2, {(2, 1): 1, (0, 1): -3})])


VALUES = {
    "QMatrix": qmatrix,
    "Subspace": subspace,
    "Poly": poly,
    "FDModule": fd_module,
    "PolySubmodule": poly_submodule,
    "ExpSubmodule": lambda warm: ExpSubmodule([3, Fraction(1, 2)], poly_submodule(warm)),
    "DiffOpSeries": series,
    "MonomialSubmodule": monomial_submodule,
    "AutDescriptor": lambda _: AutDescriptor(-2, {(1, 0): Fraction(1, 3)}),
}

# Equal only to themselves: two maps with equal matrices stay distinct.
IDENTITIES = {
    "ModuleMap": lambda: restrict(DiffOpSeries.identity(2, 2), monomial_submodule(False)),
    "EmbeddingResult": lambda: embed_nilpotent(random_nilpotent_module(2, 2, seed=5)),
}


# Each value type's repr, on the values above and two more polynomials:
# zero, and a coefficient -1 (ExpSubmodule has no repr of its own).
REPRS = [
    (qmatrix, "QMatrix(2x2: 1 1/2; 0 -3)"),
    (subspace, "Subspace(dim 2 of Q^3)"),
    (fd_module, "FDModule(n=2, dim=1)"),
    (poly_submodule, "PolySubmodule(n=2, dim=6)"),
    (monomial_submodule, "MonomialSubmodule(n=2, m=4)"),
    (series, "DiffOpSeries(n=2, trunc=3, 2 terms)"),
    (VALUES["AutDescriptor"], "AutDescriptor(unit=-2, 1 additive terms)"),
    (poly, "-1/5*x2^3 + 2*x1"),
    (lambda _: Poly.zero(2), "0"),
    (lambda _: Poly(2, {(1, 1): -1, (0, 1): 3, (0, 0): -1}), "-x1*x2 + 3*x2 - 1"),
]


@pytest.mark.parametrize("build,text", REPRS, ids=[text for _, text in REPRS])
def test_repr_shows_the_value(build, text):
    assert repr(build(False)) == text


def test_the_table_covers_eleven_types():
    assert len(VALUES) + len(IDENTITIES) == 11
    assert {"ModuleMap", "EmbeddingResult"} == set(IDENTITIES)


@pytest.mark.parametrize("name", sorted(VALUES) + sorted(IDENTITIES))
def test_assignment_is_refused(name):
    value = VALUES[name](False) if name in VALUES else IDENTITIES[name]()
    assert type(value).__name__ == name
    for attribute in [*type(value).__slots__, "extra"]:
        with pytest.raises(AttributeError) as caught:
            setattr(value, attribute, None)
        assert str(caught.value) == f"{name} is immutable"


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equal_values_have_equal_hashes(name):
    first, second = VALUES[name](False), VALUES[name](True)
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1
    assert first != "a string" and first != None  # noqa: E711


@pytest.mark.parametrize("name", sorted(IDENTITIES))
def test_maps_equal_only_themselves(name):
    first, second = IDENTITIES[name](), IDENTITIES[name]()
    assert first == first and hash(first) == hash(first)
    assert first != second
    assert len({first, second}) == 2


def test_unequal_fields_are_unequal_values():
    assert QMatrix([], cols=2) != QMatrix([], cols=3)
    assert Poly(2, {(1, 0): 1}) != Poly(3, {(1, 0, 0): 1})
    assert DiffOpSeries(1, 2, {(1,): 1}) != DiffOpSeries(1, 3, {(1,): 1})
    assert AutDescriptor(2) != AutDescriptor(3)
    base = poly_submodule(False)
    assert ExpSubmodule([1, 0], base) != ExpSubmodule([0, 1], base)
    assert FDModule(1, [QMatrix([[0]])]) != FDModule(1, [QMatrix([[0, 1], [0, 0]])])
    assert PolySubmodule(1, [Poly.one(1)]) != PolySubmodule(2, [Poly.one(2)])


def test_a_poly_never_equals_a_series():
    coeffs = {(0, 0): 1, (1, 2): Fraction(3, 4)}
    p, s = Poly(2, coeffs), DiffOpSeries(2, 3, coeffs)
    assert p.terms == s.coeffs
    assert p != s and s != p
    assert len({p, s}) == 2


def test_dict_fields_hash_as_the_frozenset_of_their_items():
    # The formula that Poly and AutDescriptor each wrote out before
    # `Value.__hash__` took it over.  A polynomial's key is its integer
    # form (n, _den, _nums), and a series' key holds its polynomial.
    rng = random.Random(20)
    for _ in range(60):
        n = rng.randint(1, 3)
        terms = {
            tuple(rng.randint(0, 3) for _ in range(n)): Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            for _ in range(rng.randint(0, 6))
        }
        p = Poly(n, terms)
        assert p._key() == (p.n, p._den, p._nums)
        assert hash(p) == hash((p.n, p._den, frozenset(p._nums.items())))
        s = DiffOpSeries(n, 9, terms)
        assert s._key() == (s.trunc, p)
        assert hash(s) == hash((s.trunc, p))
        d = AutDescriptor(Fraction(rng.randint(1, 9), rng.randint(1, 4)), {a: c for a, c in terms.items() if any(a)})
        assert hash(d) == hash((d.unit, frozenset(d.additive.items())))
    # Keys without a dict field hash as they are.
    for name in set(VALUES) - {"Poly", "AutDescriptor"}:
        value = VALUES[name](False)
        assert hash(value) == hash(value._key()), name
