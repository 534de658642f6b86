"""Tests for the module layer (commuting tuples, socle, twisting, bridges).

Independent oracles: a from-scratch nullspace routine for socle checks,
brute-force enumeration of all iterated derivatives for the generated
submodules, and the library's earlier breadth-first closure and its
earlier Fraction/Poly `PolySubmodule` constructor, kept below as
reference implementations.
"""

import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from nilmod.errors import (
    NoCommonEigenline,
    NonCommuting,
    NonRationalEigenvalue,
    NotNilpotent,
    SocleNotOneDimensional,
)
import nilmod.exactalg as exactalg
from nilmod.exactalg import QMatrix, Subspace, parse_rational, standard_basis_vector
from nilmod.modcore import (
    ExpSubmodule,
    FDModule,
    ModuleMap,
    PolySubmodule,
    action_matrices,
    as_matrices,
    is_nilpotent,
    random_nilpotent_module,
    random_poly,
    socle,
    socle_eigenvalues,
    submodule_from_polys,
    twist,
    validate,
)
from nilmod.multipoly import (
    Poly,
    grlex_key,
    lower_set_closure,
    monomials_up_to_degree,
    vector_to_poly,
)

E12 = QMatrix([[0, 1], [0, 0]])
E21 = QMatrix([[0, 0], [1, 0]])
Z2 = QMatrix.zeros(2, 2)


def partial_multi(p, alpha):
    """d^alpha p, one partial derivative at a time."""
    for i, a in enumerate(alpha, start=1):
        for _ in range(a):
            p = p.partial(i)
    return p


def poly_to_vector(p, monomial_list):
    """Coefficient vector of p over an ordered monomial list, or None
    when p involves a monomial outside it."""
    if not p.terms.keys() <= set(monomial_list):
        return None
    return tuple(p.terms.get(alpha, Fraction(0)) for alpha in monomial_list)


def naive_nullspace(rows, cols):
    """Independent nullspace: eliminate, then read off free columns."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = {}
    rank = 0
    for c in range(cols):
        pr = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
        if pr is None:
            continue
        m[rank], m[pr] = m[pr], m[rank]
        m[rank] = [x / m[rank][c] for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        pivots[c] = rank
        rank += 1
    basis = []
    for free in range(cols):
        if free in pivots:
            continue
        v = [Fraction(0)] * cols
        v[free] = Fraction(1)
        for c, r in pivots.items():
            v[c] = -m[r][free]
        basis.append(tuple(v))
    return basis


def naive_rank(rows):
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return 0
    rank = 0
    for c in range(len(m[0])):
        pr = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
        if pr is None:
            continue
        m[rank], m[pr] = m[pr], m[rank]
        for r in range(rank + 1, len(m)):
            if m[r][c] != 0:
                f = m[r][c] / m[rank][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def random_commuting_pair(rng, d):
    """Two polynomials in one random matrix commute."""
    a = QMatrix([[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)])
    eye = QMatrix.identity(d)

    def poly_of(m):
        out = QMatrix.zeros(d, d)
        power = eye
        for _ in range(3):
            out = out + power.scale(rng.randint(-2, 2))
            power = power * m
        return out

    return poly_of(a), poly_of(a)


# --- validation ----------------------------------------------------------

def test_validate_accepts_commuting():
    mod = validate([E12, Z2])
    assert mod.n == 2 and mod.dim == 2


def test_validate_rejects_noncommuting_with_witness():
    with pytest.raises(NonCommuting) as info:
        validate([E12, E21])
    assert (info.value.i, info.value.j) == (1, 2)


def test_validate_reports_first_failing_pair():
    # (1,2) commute, (1,3) is the first failure in scan order
    with pytest.raises(NonCommuting) as info:
        validate([E12, Z2, E21])
    assert (info.value.i, info.value.j) == (1, 3)


def test_validate_random_polynomial_pairs_commute():
    rng = random.Random(211)
    for _ in range(25):
        a, b = random_commuting_pair(rng, rng.randint(2, 4))
        validate([a, b])  # must not raise


def test_validate_size_mismatch():
    with pytest.raises(ValueError):
        validate([E12, QMatrix.zeros(3, 3)])
    with pytest.raises(ValueError):
        validate([QMatrix.zeros(2, 3)])
    with pytest.raises(ValueError):
        FDModule(2, [E12])


# --- nilpotency -----------------------------------------------------------

def test_is_nilpotent_cases():
    assert is_nilpotent(validate([Z2, Z2]))
    assert not is_nilpotent(validate([QMatrix.identity(2)]))
    assert is_nilpotent(validate([E12]))


def test_derivative_closure_modules_are_nilpotent():
    rng = random.Random(223)
    for _ in range(10):
        p = Poly(
            2,
            {
                (rng.randint(0, 2), rng.randint(0, 2)): rng.randint(1, 4)
                for _ in range(3)
            },
        )
        fd, _ = as_matrices(submodule_from_polys(2, [p]))
        assert is_nilpotent(fd)


# --- socle -----------------------------------------------------------------

def test_socle_zero_module_is_everything():
    assert socle(validate([QMatrix.zeros(3, 3)])) == Subspace(3, QMatrix.identity(3).entries)


def test_socle_jordan_block():
    jordan = QMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    space = socle(validate([jordan]))
    assert space.dim == 1
    assert space.coordinates_of(standard_basis_vector(3, 0)) is not None


def test_socle_of_x1x2_closure():
    sub = submodule_from_polys(2, [Poly(2, {(1, 1): 1})])
    fd, _ = as_matrices(sub)
    space = socle(fd)
    assert space.dim == 1
    # canonical basis is monomials descending, so the constant is last
    one_coords = sub.coordinates_of(Poly.one(2))
    assert space.coordinates_of(one_coords) is not None


def test_socle_matches_stacked_nullspace_oracle():
    for seed in range(15):
        mod = random_nilpotent_module(2, 2, seed=seed)
        stacked = [row for m in mod.matrices for row in m.entries]
        expected = Subspace(
            mod.dim, naive_nullspace(stacked, mod.dim)
        )
        assert socle(mod) == expected


def test_socle_requires_nilpotent():
    with pytest.raises(NotNilpotent):
        socle(validate([QMatrix.identity(2)]))


# --- twisting ----------------------------------------------------------------

def test_twist_by_zero_is_identity():
    mod = random_nilpotent_module(2, 2, seed=1)
    assert twist(mod, [0, 0]) == mod


def test_twist_scalar_matrix_to_zero():
    alpha = Fraction(3, 2)
    mod = validate([QMatrix.identity(2).scale(alpha)])
    twisted = twist(mod, [alpha])
    assert twisted.matrices[0] == QMatrix.zeros(2, 2)
    assert is_nilpotent(twisted)


def test_double_twist_round_trip():
    rng = random.Random(233)
    for seed in range(8):
        mod = random_nilpotent_module(2, 2, seed=seed)
        shift = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2)]
        back = twist(twist(mod, shift), [-s for s in shift])
        assert back == mod


def test_twist_preserves_commutants():
    # a map commutes with the action iff it commutes with the twisted one
    rng = random.Random(239)
    for seed in range(10):
        mod = random_nilpotent_module(2, 2, seed=seed)
        d = mod.dim
        g = QMatrix([[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)])
        shift = [Fraction(rng.randint(-3, 3)) for _ in range(2)]
        twisted = twist(mod, shift)
        before = all(g * m == m * g for m in mod.matrices)
        after = all(g * m == m * g for m in twisted.matrices)
        assert before == after


# --- polynomial submodules ---------------------------------------------------

def test_submodule_from_zero_is_constants():
    sub = submodule_from_polys(2, [Poly.zero(2)])
    assert sub.dim == 1
    assert sub.basis == (Poly.one(2),)
    assert submodule_from_polys(1, []).dim == 1


def test_submodule_single_variable_chain():
    sub = submodule_from_polys(1, [Poly(1, {(2,): 1})])
    assert sub.basis == (Poly.monomial(1, (2,)), Poly.monomial(1, (1,)), Poly.one(1))
    assert sub.dim == 3


def test_submodule_x1x2():
    sub = submodule_from_polys(2, [Poly(2, {(1, 1): 1})])
    assert sub.dim == 4
    assert sub.monomial_list == ((1, 1), (1, 0), (0, 1), (0, 0))


def test_submodule_matches_brute_force_closure():
    rng = random.Random(241)
    for _ in range(12):
        n = rng.randint(1, 3)
        p = Poly(
            n,
            {
                tuple(rng.randint(0, 2) for _ in range(n)): rng.randint(-3, 3)
                for _ in range(3)
            },
        )
        sub = submodule_from_polys(n, [p])
        derived = [Poly.one(n), p]
        for alpha in product(*(range(4) for _ in range(n))):
            q = partial_multi(p, alpha)
            if not q.is_zero():
                derived.append(q)
        for q in derived:
            assert sub.contains(q)
        rows = [poly_to_vector(q, sub.monomial_list) for q in derived]
        assert all(r is not None for r in rows)
        assert naive_rank(rows) == sub.dim


def reference_closure(n, gens):
    """The library's earlier closure: breadth-first over derivatives,
    keeping each polynomial outside the span found so far."""
    support = {(0,) * n}
    for g in gens:
        support |= lower_set_closure(g.monomials())
    monomial_list = tuple(sorted(support, key=grlex_key, reverse=True))
    width = len(monomial_list)
    span = Subspace(width, [])
    queue = [Poly.one(n)] + [g for g in gens if not g.is_zero()]
    members = []
    while queue:
        p = queue.pop()
        v = poly_to_vector(p, monomial_list)
        if span.coordinates_of(v) is not None:
            continue
        span = Subspace(width, span.basis + (v,))
        members.append(p)
        for i in range(1, n + 1):
            queue.append(p.partial(i))
    return PolySubmodule(n, members)


def test_submodule_matches_breadth_first_reference():
    rng = random.Random(257)
    top = {1: 9, 2: 4, 3: 3}
    cases = [(1, []), (2, [Poly.zero(2)]), (3, [Poly.zero(3), Poly.variable(3, 2)])]
    for n in (1, 2, 3):
        for count in (1, 2):
            for _ in range(6):
                cases.append((n, [random_poly(n, rng.randint(0, top[n]), rng) for _ in range(count)]))
    # the generators behind `nilmod gen --n N --degree-bound B --seed S`
    for n, bound, seed in [(2, 2, 7), (3, 2, 11), (2, 0, 3), (1, 5, 1), (3, 1, 2), (2, 7, 5), (3, 4, 6)]:
        cases.append((n, [random_poly(n, bound, random.Random(seed))]))
    for n, gens in cases:
        assert submodule_from_polys(n, gens) == reference_closure(n, gens)


def test_submodule_runs_one_elimination(monkeypatch):
    calls = []
    real = exactalg._rref_int
    monkeypatch.setattr(exactalg, "_rref_int", lambda *a: calls.append(a) or real(*a))
    gens = [Poly(2, {(3, 1): 2, (0, 2): -1}), Poly(2, {(1, 2): 1})]
    sub = submodule_from_polys(2, gens)
    assert len(calls) == 1
    assert sub == reference_closure(2, gens)


def test_submodule_rejects_mixed_variable_counts():
    with pytest.raises(ValueError, match="^variable count mismatch$"):
        submodule_from_polys(2, [Poly.variable(2, 1), Poly.variable(1, 1)])


def test_submodule_closed_under_partials():
    rng = random.Random(251)
    for _ in range(8):
        gens = [
            Poly(
                2,
                {
                    (rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-2, 2)
                    for _ in range(2)
                },
            )
            for _ in range(2)
        ]
        sub = submodule_from_polys(2, gens)
        for b in sub.basis:
            for i in (1, 2):
                assert sub.contains(b.partial(i))


def test_polysubmodule_rejects_non_closed_spans():
    # span{x1} misses both the constants and nothing else
    with pytest.raises(ValueError):
        submodule = PolySubmodule(1, [Poly.variable(1, 1)])
        del submodule
    # span{x1^2, 1} misses the derivative x1
    with pytest.raises(ValueError):
        PolySubmodule(1, [Poly(1, {(2,): 1}), Poly.one(1)])


CONSTANTS = "a polynomial submodule must contain the constants"
CLOSED = "subspace is not closed under differentiation"


@pytest.mark.parametrize(
    "n,spans,message",
    [
        (1, [{(1,): 1}], CONSTANTS),  # closed up to the missing 1
        (1, [{(2,): 1}], CONSTANTS),  # neither: the constants come first
        (2, [{(1, 1): 1}, {(0, 1): 1}], CONSTANTS),
        (1, [{(2,): 1}, {(0,): 1}], CLOSED),
        (2, [{(1, 1): 1}, {(1, 0): 1}, {(0, 0): 1}], CLOSED),  # misses x2
        (2, [{(2, 0): 1, (0, 1): 1}, {(0, 0): 1}], CLOSED),
        (3, [{(0, 0, 1): 1}, {(1, 0, 0): 1, (0, 2, 0): 1}, {(0, 0, 0): 1}], CLOSED),
        # the support is a lower set, but a derivative leaves the span
        (1, [{(2,): 1, (1,): 1}, {(0,): 1}], CLOSED),
        (2, [{(1, 0): 1, (0, 1): 1}, {(2, 0): 1, (0, 2): 1}, {(0, 0): 1}], CLOSED),
    ],
)
def test_closure_check_order_and_messages(n, spans, message):
    polys = [Poly(n, terms) for terms in spans]
    with pytest.raises(ValueError) as direct:
        PolySubmodule(n, polys)
    assert str(direct.value) == message
    data = {"n": n, "basis": [p.to_json() for p in polys]}
    with pytest.raises(ValueError) as parsed:
        PolySubmodule.from_json(data)
    assert str(parsed.value) == message


def test_polysubmodule_canonical_under_basis_change():
    p = Poly(2, {(1, 1): 1})
    sub = submodule_from_polys(2, [p])
    shuffled = [
        sub.basis[0] + sub.basis[1].scale(3),
        sub.basis[1] - sub.basis[2],
        sub.basis[2] + sub.basis[3],
        sub.basis[3].scale(Fraction(-5, 7)),
    ]
    rebuilt = PolySubmodule(2, shuffled)
    assert rebuilt == sub
    assert rebuilt.monomial_list == sub.monomial_list
    assert rebuilt.basis == sub.basis


def test_polysubmodule_membership_and_coordinates():
    sub = submodule_from_polys(2, [Poly(2, {(1, 1): 1})])
    inside = Poly(2, {(1, 1): 2, (0, 1): -3, (0, 0): 1})
    outside = Poly(2, {(2, 0): 1})
    assert sub.contains(inside)
    assert not sub.contains(outside)
    coords = sub.coordinates_of(inside)
    assert sub.from_coordinates(coords) == inside
    assert sub.coordinates_of(outside) is None


# --- the constructor against the Fraction/Poly reference ----------------------

def reference_polysubmodule(n, polys):
    """The constructor before the integer core, as (monomial_list, coords,
    basis, action matrices): Fraction rows, a Poly basis, membership of 1,
    then a closure pass over the Poly partials of the basis."""
    support = set()
    for p in polys:
        if p.n != n:
            raise ValueError("variable count mismatch")
        support |= p.monomials()
    monomial_list = tuple(sorted(support, key=grlex_key, reverse=True))
    coords = Subspace(
        len(monomial_list), [poly_to_vector(p, monomial_list) for p in polys]
    )
    basis = tuple(vector_to_poly(row, monomial_list, n) for row in coords.basis)

    def coordinates_of(p):
        v = poly_to_vector(p, monomial_list)
        return None if v is None else coords.coordinates_of(v)

    if coordinates_of(Poly.one(n)) is None:
        raise ValueError("a polynomial submodule must contain the constants")
    matrices = []
    for i in range(1, n + 1):
        columns = []
        for p in basis:
            c = coordinates_of(p.partial(i))
            if c is None:
                raise ValueError("subspace is not closed under differentiation")
            columns.append(c)
        matrices.append(QMatrix.from_columns(columns, rows=len(basis)))
    return monomial_list, coords, basis, tuple(matrices)


def stored(build):
    """What a construction leaves: the stored fields and the action
    matrices, or the error's kind and message."""
    try:
        out = build()
    except Exception as exc:  # the kind is part of what is compared
        return type(exc).__name__, str(exc)
    if isinstance(out, tuple):
        return out
    return out.monomial_list, out.coords, out.basis, out.action_matrices()


def recorded_inputs(monkeypatch, run):
    """Every (n, polys) the library hands to PolySubmodule while run runs."""
    seen = []
    real = PolySubmodule.__init__

    def recording(self, n, polys):
        seen.append((n, list(polys)))
        real(self, n, polys)

    monkeypatch.setattr(PolySubmodule, "__init__", recording)
    run()
    monkeypatch.setattr(PolySubmodule, "__init__", real)
    return seen


def constructor_table(monkeypatch):
    """(n, polys) inputs of every kind the constructor meets."""
    from nilmod.diffop import MonomialSubmodule, extend_iso

    rng = random.Random(263)
    x = [None] + [Poly.variable(2, i) for i in (1, 2)]
    one = Poly.one(2)
    table = [
        # zero and duplicate generators
        (2, [Poly.zero(2), one, one, x[1], x[1], Poly.zero(2)]),
        (2, [x[1] * x[2], x[2] * x[1], x[1], x[2], one, x[1] + x[2]]),
        (1, [Poly(1, {(3,): 2}), Poly(1, {(2,): 6}), Poly(1, {(1,): 12}), Poly.constant(1, 5)]),
        # lacking 1
        (2, []),
        (2, [Poly.zero(2)]),
        (2, [x[1]]),
        (1, [Poly(1, {(2,): 1, (1,): 1})]),
        (2, [x[1] + one, x[1] - one]),  # 1 only through a combination
        (0, []),
        (2, [Poly.one(1)]),
        # not closed
        (2, [one, x[1] * x[1]]),
        (2, [one, x[1] * x[2], x[1]]),
        (2, [one, x[1] * x[1] + x[2]]),
        (3, [Poly.one(3), Poly(3, {(1, 1, 1): 1, (0, 0, 1): 2}), Poly(3, {(0, 1, 1): 1})]),
        (2, [one, x[1] + x[2], x[1] * x[1] + x[2] * x[2]]),  # support a lower set
        (2, [one, x[1], x[2], x[1] * x[2] + x[1] * x[1], x[2] * x[2]]),
        # closed with 1 as a combination, and in rescaled rows
        (2, [x[1] + one, x[1] - one, x[2].scale(Fraction(1, 3))]),
    ]
    # submodule_from_polys, lower-set spans and extend_iso steps, as the
    # library calls the constructor.
    gens = {n: [random_poly(n, {1: 7, 2: 4, 3: 3}[n], rng) for _ in range(2)] for n in (1, 2, 3)}
    goal = MonomialSubmodule(2, lower_set_closure([(3, 1), (1, 3)]))
    source = submodule_from_polys(2, [Poly(2, {(1, 1): 1})])
    target = submodule_from_polys(2, [Poly(2, {(1, 1): 2, (1, 0): 1})])
    phi_images = QMatrix.from_columns([target.coordinates_of(p.scale(2)) for p in source.basis])
    phi = ModuleMap(source, target, phi_images)

    def run():
        for n, polys in gens.items():
            submodule_from_polys(n, polys)
            submodule_from_polys(n, polys[:1])
        for n, tops in [(1, [(6,)]), (2, [(3, 0), (1, 2)]), (3, [(1, 1, 1), (2, 0, 0)])]:
            MonomialSubmodule(n, lower_set_closure(tops)).as_poly_submodule()
        extend_iso(source, target, phi, goal)

    recorded = recorded_inputs(monkeypatch, run)
    # 6 closures, 3 lower sets and two spans per extension step
    assert len(recorded) >= 9 + 2 * 4, len(recorded)
    return table + recorded


def test_constructor_matches_the_fraction_reference(monkeypatch):
    table = constructor_table(monkeypatch)
    kinds = set()
    for n, polys in table:
        got = stored(lambda: PolySubmodule(n, polys))
        assert got == stored(lambda: reference_polysubmodule(n, polys)), (n, polys)
        kinds.add(got[1] if isinstance(got[0], str) else "ok")
        if n >= 1 and all(p.n == n for p in polys):
            # from_json: the same polynomials through the wire format.
            data = {"n": n, "basis": [p.to_json() for p in polys]}
            assert stored(lambda: PolySubmodule.from_json(data)) == got
    assert kinds == {
        "ok",
        "variable count mismatch",
        "variable count must be at least 1",
        "a polynomial submodule must contain the constants",
        "subspace is not closed under differentiation",
    }


def test_from_json_errors_match_the_fraction_reference():
    cases = [
        (2, [[{"exps": [2, 0], "coef": "1"}], [{"exps": [0, 0], "coef": "1"}]]),
        (1, [[{"exps": [1], "coef": "1/2"}]]),
        (2, [[{"exps": [1, 0], "coef": "-3/4"}], [{"exps": [0, 0], "coef": "2"}]]),
    ]
    for n, basis in cases:
        polys = [Poly.from_json(p, n) for p in basis]
        got = stored(lambda: PolySubmodule.from_json({"n": n, "basis": basis}))
        assert got == stored(lambda: reference_polysubmodule(n, polys))


@pytest.mark.parametrize("n,k", [(1, 9), (2, 4), (3, 3)])
def test_canonical_images_match_the_fraction_reference(n, k):
    # The embedding builds its image from integer rows and weights; the
    # reference builds the same span from the planted form's derivatives.
    from nilmod.embed import canonical_form

    rng = random.Random(269 + n)
    form = Poly(n, {a: rng.choice([-2, -1, 1, 2]) for a in monomials_up_to_degree(n, k) if sum(a) == k})
    members = [Poly.one(n)] + [partial_multi(form, b) for b in lower_set_closure(form.monomials())]
    plain, _ = as_matrices(submodule_from_polys(n, [form]))
    g = QMatrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(plain.dim)]
                 for _ in range(plain.dim)])
    while g.det() == 0:
        g = QMatrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(plain.dim)]
                     for _ in range(plain.dim)])
    dense = validate([g * m * g.inverse() for m in plain.matrices])
    for module in (plain, dense):
        assert stored(lambda: canonical_form(module)) == stored(lambda: reference_polysubmodule(n, members))


# --- matrix bridge -------------------------------------------------------------

def test_as_matrices_constants_module():
    fd, bridge = as_matrices(submodule_from_polys(1, []))
    assert fd.matrices == (QMatrix.zeros(1, 1),)
    assert bridge.images == QMatrix.identity(1)


def test_as_matrices_one_jet_line():
    sub = submodule_from_polys(1, [Poly.variable(1, 1)])
    fd, _ = as_matrices(sub)
    # basis is [x1, 1] (monomials descending), so d/dx1 sends e1 -> e2
    assert fd.matrices == (QMatrix([[0, 0], [1, 0]]),)


def test_action_matrices_match_partials():
    rng = random.Random(419)
    subs = [submodule_from_polys(2, [Poly(2, {(2, 1): 1})])]
    for n in (1, 2, 3):
        for _ in range(4):
            subs.append(submodule_from_polys(n, [random_poly(n, 3 if n < 3 else 2, rng)]))
    for sub in subs:
        mats = action_matrices(sub)
        assert len(mats) == sub.n
        for i, m in enumerate(mats, start=1):
            assert m.rows == m.cols == sub.dim
            for j, b in enumerate(sub.basis):
                expected = sub.coordinates_of(b.partial(i))
                assert list(m.column(j)) == list(expected)


def test_exp_submodule_actions_add_scalar():
    base = submodule_from_polys(1, [Poly.variable(1, 1)])
    exp = ExpSubmodule([Fraction(5)], base)
    plain = action_matrices(base)
    shifted = action_matrices(exp)
    assert shifted[0] == plain[0] + QMatrix.identity(2).scale(5)


# --- module maps ----------------------------------------------------------------

def test_module_map_identity_intertwines():
    mod = random_nilpotent_module(2, 2, seed=9)
    ident = ModuleMap(mod, mod, QMatrix.identity(mod.dim))
    assert ident.is_intertwining()
    assert ident.is_isomorphism()


def test_module_map_detects_non_intertwining():
    source = validate([E12])
    target = validate([Z2])
    bad = ModuleMap(source, target, QMatrix.identity(2))
    assert not bad.is_intertwining()


def test_module_map_rank():
    mod = validate([E12])
    double = ModuleMap(mod, mod, QMatrix.identity(2).scale(2))
    assert double.is_intertwining()
    assert double.rank() == 2
    collapse = ModuleMap(mod, mod, QMatrix([[0, 1], [0, 0]]))
    assert collapse.is_intertwining()
    assert collapse.rank() == 1
    assert not collapse.is_isomorphism()


def test_module_map_between_poly_submodules():
    sub = submodule_from_polys(1, [Poly.variable(1, 1)])
    scale = ModuleMap(sub, sub, QMatrix.identity(2).scale(3))
    assert scale.is_intertwining()
    # basis is [x1, 1], so basis vector 0 maps to 3*x1
    assert scale.image_poly(0) == Poly.variable(1, 1).scale(3)
    assert scale.image_poly(1) == Poly.constant(1, 3)


# --- random generator ------------------------------------------------------------

def test_random_module_deterministic_per_seed():
    a = random_nilpotent_module(2, 3, seed=77)
    b = random_nilpotent_module(2, 3, seed=77)
    assert a == b
    c = random_nilpotent_module(2, 3, seed=78)
    d = random_nilpotent_module(2, 3, seed=79)
    assert c != d or a != c  # different seeds do vary somewhere


def test_random_module_invariants():
    for seed in range(30):
        mod = random_nilpotent_module(2, 2, seed=seed)
        assert is_nilpotent(mod)
        assert socle(mod).dim == 1


def test_random_module_degree_bound_zero():
    mod = random_nilpotent_module(3, 0, seed=4)
    assert mod.dim == 1
    assert all(m == QMatrix.zeros(1, 1) for m in mod.matrices)


# --- eigenvalue extraction --------------------------------------------------------

def test_socle_eigenvalues_nilpotent_is_zero():
    mod = random_nilpotent_module(2, 2, seed=13)
    assert socle_eigenvalues(mod) == tuple(Fraction(0) for _ in range(2))


def test_socle_eigenvalues_shifted_jordan():
    alpha = Fraction(5)
    mod = validate([QMatrix([[5, 1], [0, 5]])])
    assert socle_eigenvalues(mod) == (alpha,)


def test_socle_eigenvalues_rational_shift_recovered():
    rng = random.Random(257)
    for seed in range(10):
        base = random_nilpotent_module(2, 2, seed=seed)
        alpha = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(2)]
        shifted = twist(base, [-a for a in alpha])  # N_i + alpha_i I
        assert socle_eigenvalues(shifted) == tuple(alpha)


def test_socle_eigenvalues_rotation_is_irrational_failure():
    rotation = QMatrix([[0, 1], [-1, 0]])
    with pytest.raises(NonRationalEigenvalue):
        socle_eigenvalues(validate([rotation]))


def test_socle_eigenvalues_two_eigenlines_rejected():
    diag = QMatrix([[1, 0], [0, 2]])
    with pytest.raises(NoCommonEigenline):
        socle_eigenvalues(validate([diag]))


def test_no_common_eigenline_refined_by_second_matrix():
    # the identity leaves everything open, the second matrix splits it
    a = QMatrix.identity(2)
    b = QMatrix([[0, 0], [0, 1]])
    mod = validate([a, b])
    with pytest.raises(NoCommonEigenline):
        socle_eigenvalues(mod)


def test_socle_eigenvalues_jordan_block_beside_a_rotation():
    # x_1 acts by a Jordan block at 3 plus a rotation, so its characteristic
    # polynomial does not split; x_2 is diagonal.  The only rational joint
    # eigenline is the Jordan block's, but its twist is not nilpotent.
    from nilmod.embed import embed_general

    jordan_rotation = QMatrix([[3, 1, 0, 0], [0, 3, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    diagonal = QMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]])
    mod = validate([jordan_rotation, diagonal])
    assert socle_eigenvalues(mod) == (Fraction(3), Fraction(1))
    with pytest.raises(
        SocleNotOneDimensional,
        match="^the action is not nilpotent after twisting by the socle eigenvalues$",
    ):
        embed_general(mod)


def test_no_common_eigenline_for_large_prime_eigenvalues():
    # Two eight-digit prime eigenvalues: the rational-root search must not
    # trial-divide their product, and the error stays the same.
    from nilmod.embed import embed_general

    mod = validate([QMatrix([[10000019, 0], [0, 10000079]])])
    with pytest.raises(NoCommonEigenline, match="^2 distinct joint eigenvalue tuples found$"):
        embed_general(mod)
    with pytest.raises(NoCommonEigenline, match="^2 distinct joint eigenvalue tuples found$"):
        socle_eigenvalues(mod)


def brute_force_rational_roots(coeffs):
    """Rational roots by the rational root theorem, trying every p/q with
    p | a_0 and q | a_d after zero roots are divided out; returns the
    sorted distinct roots and whether their multiplicities add up to the
    degree."""
    scale = 1
    for c in coeffs:
        scale = scale * c.denominator // gcd(scale, c.denominator)
    work = [c * scale for c in coeffs]
    while work[-1] == 0:
        work.pop()
    degree = len(work) - 1
    roots, found = set(), 0
    while len(work) > 1 and work[0] == 0:
        roots.add(Fraction(0))
        found += 1
        work = work[1:]

    def divisors(v):
        v = abs(int(v))
        return [k for k in range(1, v + 1) if v % k == 0]

    for q in divisors(work[-1]):
        for p in divisors(work[0]):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                while len(work) > 1:
                    acc, quotient = Fraction(0), []
                    for c in reversed(work):
                        acc = acc * cand + c
                        quotient.append(acc)
                    if quotient.pop() != 0:
                        break
                    roots.add(cand)
                    found += 1
                    work = list(reversed(quotient))
    return sorted(roots), found == degree


def poly_times(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def squarefree_degree(coeffs):
    """deg f - deg gcd(f, f'): the number of distinct complex roots."""

    def trim(p):
        while p and p[-1] == 0:
            p = p[:-1]
        return p

    def remainder(a, b):
        a = list(a)
        while len(a) >= len(b):
            q = a[-1] / b[-1]
            shift = len(a) - len(b)
            for k, c in enumerate(b):
                a[shift + k] -= q * c
            a = trim(a)
        return a

    f = trim([Fraction(c) for c in coeffs])
    g, h = f, trim([k * c for k, c in enumerate(f)][1:])
    while h:
        g, h = h, remainder(g, h)
    return len(f) - len(g)


def test_rational_roots_match_brute_force():
    from nilmod.modcore import _rational_roots

    rng = random.Random(97)
    for _ in range(300):
        # A product of rational linear factors (repeats allowed) and of
        # random small factors that may or may not split further.
        poly = [Fraction(rng.randint(1, 4), rng.randint(1, 3))]
        for _ in range(rng.randint(0, 4)):
            root = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            poly = poly_times(poly, [-root, Fraction(1)])
        for _ in range(rng.randint(0, 2)):
            factor = [Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(2, 3))]
            factor.append(Fraction(rng.randint(1, 3)))
            poly = poly_times(poly, factor)
        roots = _rational_roots(poly)
        expected_roots, splits = brute_force_rational_roots(poly)
        assert roots == expected_roots
        # f splits over Q iff its distinct rational roots are all its roots
        assert (len(roots) == squarefree_degree(poly)) == splits


def test_rational_roots_fixed_cases():
    from nilmod.modcore import _rational_roots

    def f(*cs):
        return [Fraction(c) for c in cs]

    def check(poly, roots, splits):
        assert _rational_roots(poly) == roots
        assert (len(roots) == squarefree_degree(poly)) == splits

    check(f(1), [], True)
    check(f(0, 0, 1), [Fraction(0)], True)
    check(f(1, 0, 1), [], False)  # t^2 + 1
    check(f(-2, 0, 1), [], False)  # t^2 - 2
    check(f(-1, 0, 4), [Fraction(-1, 2), Fraction(1, 2)], True)
    # (t - 1/3)^2 (t^2 - 2): a double rational root beside two irrational ones.
    poly = poly_times(poly_times(f(Fraction(-1, 3), 1), f(Fraction(-1, 3), 1)), f(-2, 0, 1))
    check(poly, [Fraction(1, 3)], False)
    # 99/70 lies within 1/70 of sqrt(2): scaled by the leading coefficient
    # 70, both roots fall in the same unit interval (98, 99].
    poly = poly_times(f(-2, 0, 1), f(-99, 70))
    check(poly, [Fraction(99, 70)], False)
    check(poly_times(poly, f(-99, 70)), [Fraction(99, 70)], False)
    check(poly_times(f(-99, 70), f(-99, 70)), [Fraction(99, 70)], True)


# --- serialization ------------------------------------------------------------------

def test_fdmodule_json_round_trip():
    mod = random_nilpotent_module(2, 2, seed=21)
    assert FDModule.from_json(mod.to_json()) == mod


def test_fdmodule_json_rejects_bad_dim():
    blob = validate([E12]).to_json()
    blob["dim"] = 3
    with pytest.raises(ValueError):
        FDModule.from_json(blob)


@pytest.mark.parametrize("dim", [True, 1.0, "1"])
def test_fdmodule_json_refuses_non_integer_dim(dim):
    # True == 1 and 1.0 == 1 in Python, so a plain comparison let them pass.
    with pytest.raises(ValueError):
        FDModule.from_json({"n": 1, "dim": dim, "matrices": [[["0"]]]})
    assert FDModule.from_json({"n": 1, "dim": 1, "matrices": [[["0"]]]}).dim == 1


def test_polysubmodule_json_round_trip():
    sub = submodule_from_polys(2, [Poly(2, {(1, 1): 1, (2, 0): 2})])
    assert PolySubmodule.from_json(sub.to_json()) == sub


def test_exp_submodule_json_round_trip():
    # The wire format `embed-general` writes reads back to the same value.
    base = submodule_from_polys(1, [Poly(1, {(2,): 1})])
    exp = ExpSubmodule([Fraction(-7, 3)], base)
    data = exp.to_json()
    assert list(data) == ["eigenvalues", "part"]
    back = ExpSubmodule([parse_rational(a) for a in data["eigenvalues"]], PolySubmodule.from_json(data["part"]))
    assert back == exp
