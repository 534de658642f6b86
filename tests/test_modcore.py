"""Tests for the module layer (commuting tuples, socle, twisting, bridges).

Independent oracles: a from-scratch nullspace routine for socle checks,
brute-force enumeration of all iterated derivatives for the generated
submodules, and the library's earlier breadth-first closure, its
earlier Fraction/Poly `PolySubmodule` constructor and its `Fraction`
`from_coordinates` loop, kept below as reference implementations.
"""

import random
from fractions import Fraction
from itertools import product
from math import comb, gcd, lcm
from unittest import mock

import pytest

from nilmod.errors import (
    DimensionTooLarge,
    NoCommonEigenline,
    NonCommuting,
    NonRationalEigenvalue,
    NotNilpotent,
    SocleNotOneDimensional,
)
import nilmod.exactalg as exactalg
import nilmod.polysub as polysub
from nilmod.exactalg import QMatrix, Subspace, parse_rational
from nilmod.modcore import (
    FDModule,
    is_nilpotent,
    socle,
    socle_eigenvalues,
    twist,
    validate,
)
from nilmod.multipoly import (
    Poly,
    grlex_key,
    is_lower_set,
    lower_set_closure,
    monomials_up_to_degree,
)
from nilmod.polysub import (
    GEN_LIMIT,
    ExpSubmodule,
    ModuleMap,
    PolySubmodule,
    action_matrices,
    as_matrices,
    random_nilpotent_module,
    random_poly,
    submodule_from_polys,
)

# The share of nonzero entries past which a row form is dense: 1 puts
# every integer product on the sparse route, -1 every nonempty one on the
# dense route.
ROUTES = (1, -1)


def zeros(rows, cols):
    return QMatrix([[0] * cols for _ in range(rows)], cols=cols)


def standard_basis_vector(ambient_dim, j):
    return tuple(Fraction(int(i == j)) for i in range(ambient_dim))


E12 = QMatrix([[0, 1], [0, 0]])
E21 = QMatrix([[0, 0], [1, 0]])
Z2 = zeros(2, 2)


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


def naive_rref(rows, cols):
    """Independent Gauss-Jordan on Fraction rows: the reduced rows (the
    nonzero ones first) and {pivot column: row}."""
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
    return m, pivots


def naive_nullspace(rows, cols):
    """Independent nullspace: eliminate, then read off free columns."""
    m, pivots = naive_rref(rows, cols)
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
        out = zeros(d, d)
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


def reference_first_noncommuting(matrices):
    """The first pair (i, j), i < j in scan order, whose products differ,
    each product summed from the `Fraction` entries, with no `QMatrix`
    product."""

    def product(a, b):
        return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b.entries)] for row in a.entries]

    for i in range(len(matrices)):
        for j in range(i + 1, len(matrices)):
            if product(matrices[i], matrices[j]) != product(matrices[j], matrices[i]):
                return i + 1, j + 1
    return None


def test_validate_names_the_pair_of_the_fraction_check(monkeypatch):
    rng = random.Random(277)
    witnesses = set()
    for _ in range(60):
        n, d = rng.randint(2, 4), rng.randint(1, 4)
        a = QMatrix([[Fraction(rng.randint(-3, 3), rng.choice([1, 2, 9])) for _ in range(d)] for _ in range(d)])
        pool = [a, a * a + a.scale(Fraction(1, 3)), zeros(d, d), QMatrix.identity(d).scale(Fraction(-5, 4))]
        matrices = []
        for _ in range(n):
            if rng.random() < 0.3:
                pool.append(QMatrix([[Fraction(rng.randint(-2, 2), rng.randint(1, 4)) for _ in range(d)] for _ in range(d)]))
                matrices.append(pool[-1])
            else:
                matrices.append(rng.choice(pool))
        expected = reference_first_noncommuting(matrices)
        if expected is None:
            assert validate(matrices).matrices == tuple(matrices)
            continue
        # The same pair with every row form sparse (share 1), then dense (-1).
        for share in (1, -1):
            monkeypatch.setattr(exactalg, "_SPARSE_SHARE", share)
            with pytest.raises(NonCommuting) as info:
                validate(matrices)
            assert (info.value.i, info.value.j) == expected
        monkeypatch.undo()
        witnesses.add(expected)
    assert len(witnesses) >= 4, witnesses


def test_validate_random_polynomial_pairs_commute():
    rng = random.Random(211)
    for _ in range(25):
        a, b = random_commuting_pair(rng, rng.randint(2, 4))
        validate([a, b])  # must not raise


def test_validate_size_mismatch():
    with pytest.raises(ValueError):
        validate([E12, zeros(3, 3)])
    with pytest.raises(ValueError):
        validate([zeros(2, 3)])
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
    assert socle(validate([zeros(3, 3)])) == Subspace(3, QMatrix.identity(3).entries)


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


def test_plain_block_sums_take_the_sparse_route(monkeypatch):
    # is_nilpotent and socle square the plain J_200 + J_200 on sparse row
    # forms only: dot products with every column took seconds.
    d = 400
    block = [[int(j == i + 1 != 200) for j in range(d)] for i in range(d)]
    module = FDModule._trusted(1, d, [block], 1)
    routes = []
    row_form = exactalg._row_form

    def recording(rows, width):
        form = row_form(rows, width)
        routes.append(form[0] is not None)
        return form

    monkeypatch.setattr(exactalg, "_row_form", recording)
    assert is_nilpotent(module)
    assert socle(module).dim == 2
    assert routes and all(routes)


# --- twisting ----------------------------------------------------------------

def test_twist_by_zero_is_identity():
    mod = random_nilpotent_module(2, 2, seed=1)
    assert twist(mod, [0, 0]) == mod


def test_twist_scalar_matrix_to_zero():
    alpha = Fraction(3, 2)
    mod = validate([QMatrix.identity(2).scale(alpha)])
    twisted = twist(mod, [alpha])
    assert twisted.matrices[0] == zeros(2, 2)
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


def test_single_variable_submodule_is_every_polynomial_up_to_the_top_degree(monkeypatch):
    # At n = 1 the derivatives of g have every degree up to deg g, so the
    # closure is written down with no elimination.
    rng = random.Random(263)
    cases = [[], [Poly.zero(1)], [Poly.constant(1, Fraction(-5, 3))], [Poly.zero(1), Poly.one(1)]]
    cases += [[Poly.monomial(1, (k,))] for k in (1, 2, 13)]
    for count in (1, 2, 3, 5):
        cases += [[random_poly(1, rng.randint(0, 12), rng) for _ in range(count)] for _ in range(4)]
    references = [reference_closure(1, gens) for gens in cases]
    calls = []
    real = exactalg._echelon
    monkeypatch.setattr(exactalg, "_echelon", lambda *a: calls.append(a) or real(*a))
    for gens, reference in zip(cases, references):
        top = max([0] + [p.total_degree() for p in gens if not p.is_zero()])
        sub = submodule_from_polys(1, gens)
        assert sub == reference and sub.monomial_list == tuple((k,) for k in range(top, -1, -1))
    assert calls == []
    refusals = [(True, "expected an integer, got True"), (1.0, "expected an integer, got 1.0")]
    for bad, message in refusals + [(0, "variable count must be at least 1")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            submodule_from_polys(bad, [Poly.one(1)])


def test_submodule_runs_one_elimination(monkeypatch):
    calls = []
    real = exactalg._echelon
    monkeypatch.setattr(exactalg, "_echelon", lambda *a: calls.append(a) or real(*a))
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


CLOSURE_CASES = [
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
]


@pytest.mark.parametrize("n,spans,message", CLOSURE_CASES)
def test_closure_check_order_and_messages(n, spans, message):
    polys = [Poly(n, terms) for terms in spans]
    data = {"n": n, "basis": [p.to_json() for p in polys]}
    for share in ROUTES:
        with mock.patch.object(exactalg, "_SPARSE_SHARE", share):
            with pytest.raises(ValueError) as direct:
                PolySubmodule(n, polys)
            assert str(direct.value) == message
            with pytest.raises(ValueError) as parsed:
                PolySubmodule.from_json(data)
            assert str(parsed.value) == message


@pytest.mark.parametrize("n,spans", [(n, spans) for n, spans, message in CLOSURE_CASES if message == CLOSED])
def test_the_constructor_alone_checks_closure_and_still_refuses(n, spans):
    # On a lower set of monomials only the products can see the span leave.
    polys = [Poly(n, terms) for terms in spans]
    with mock.patch.object(polysub, "_matmul", wraps=exactalg._matmul) as spy:
        with pytest.raises(ValueError, match=f"^{CLOSED}$"):
            PolySubmodule(n, polys)
    if is_lower_set(set().union(*spans)):
        assert spy.call_count >= 1


def test_trusted_spans_read_their_matrices_with_no_product():
    # Spans closed by construction, with free columns: reading their
    # matrices runs no closure check, while the same span through the
    # public constructor is checked, one product per variable.
    spans = [
        submodule_from_polys(2, [Poly(2, {(3, 1): 1, (1, 2): 2, (0, 2): -1})]),
        submodule_from_polys(3, [Poly(3, {(2, 1, 0): 1, (0, 1, 2): -3, (1, 1, 1): 2})]),
    ]
    for span in spans:
        assert span.coords._free
        with mock.patch.object(polysub, "_matmul", wraps=exactalg._matmul) as spy:
            matrices = span.action_matrices()
            fd, identity = as_matrices(span)
            shifted = ExpSubmodule([1] * span.n, span)
            shifted.action_matrices()
            assert identity.is_intertwining()
        assert spy.call_count == 0
        assert shifted.n == span.n
        assert fd.matrices == matrices
        with mock.patch.object(polysub, "_matmul", wraps=exactalg._matmul) as spy:
            assert PolySubmodule(span.n, span.basis) == span
        assert spy.call_count == span.n


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


def reference_from_coordinates(sub, coords):
    """The loop before the integer path: one `Fraction` scale and sum per
    basis member."""
    out = Poly.zero(sub.n)
    for c, p in zip(coords, sub.basis):
        if c != 0:
            out = out + p.scale(c)
    return out


def test_from_coordinates_matches_the_fraction_loop():
    rng = random.Random(419)
    big = 10**12 + 39
    x1x1, x1x2 = Poly(2, {(2, 0): 1}), Poly(2, {(1, 1): 1})
    subs = [
        # a basis with denominator 10^12 + 39
        submodule_from_polys(2, [x1x1 + x1x2.scale(Fraction(3, big))]),
        submodule_from_polys(1, [Poly(1, {(4,): Fraction(1, big), (1,): 5})]),
    ]
    subs += [
        submodule_from_polys(n, [random_poly(n, {1: 6, 2: 3, 3: 2}[n], rng)])
        for n in (1, 2, 3)
        for _ in range(3)
    ]
    for sub in subs:
        vectors = [[0] * sub.dim]
        for _ in range(8):
            vectors.append(
                [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 7, big, big * big])) for _ in range(sub.dim)]
            )
        for share in ROUTES:
            with mock.patch.object(exactalg, "_SPARSE_SHARE", share):
                for v in vectors:
                    got = sub.from_coordinates(v)
                    assert got == reference_from_coordinates(sub, [Fraction(c) for c in v])
                    assert sub.coordinates_of(got) == tuple(Fraction(c) for c in v)


def test_image_polys_match_the_fraction_loop():
    from nilmod.embed import embed_general, embed_nilpotent

    rng = random.Random(421)
    for n, bound in [(1, 7), (2, 3), (3, 2)]:
        for seed in range(2):
            module = random_nilpotent_module(n, bound, seed=seed)
            module = FDModule(n, [m.scale(Fraction(1, 3)) for m in module.matrices])
            embedded = embed_nilpotent(module, rng=rng)
            weighted, twisted = embed_general(twist(module, [Fraction(rng.randint(-3, 3), 2)] * n))
            for phi, part in [(embedded.map, embedded.image), (twisted, weighted.part)]:
                columns = list(zip(*phi.images.entries))
                expected = tuple(reference_from_coordinates(part, column) for column in columns)
                for share in ROUTES:
                    with mock.patch.object(exactalg, "_SPARSE_SHARE", share):
                        assert phi.image_polys() == expected
                        assert phi.image_poly(len(columns) - 1) == expected[-1]
    fd, _ = as_matrices(submodule_from_polys(1, [Poly.variable(1, 1)]))
    plain = ModuleMap(fd, fd, QMatrix.identity(2))
    for read in (plain.image_polys, lambda: plain.image_poly(0)):
        with pytest.raises(TypeError, match="polynomial basis"):
            read()


def test_products_with_the_basis_go_through_one_kernel():
    def calls(run):
        with mock.patch.object(polysub, "_matmul", wraps=exactalg._matmul) as spy:
            run()
        return spy.call_count

    from nilmod.embed import embed_nilpotent

    result = embed_nilpotent(random_nilpotent_module(3, 2, seed=5))
    assert result.image.dim > 3
    assert calls(result.image_polys) == 1
    planted = submodule_from_polys(2, [Poly(2, {(3, 1): 1, (1, 2): 2, (0, 2): -1})])
    assert planted.coords._free
    assert calls(lambda: PolySubmodule(2, planted.basis)) == 2
    # A lower set's span is the whole space over its monomials: no free column.
    lower = [Poly(3, {alpha: 1}) for alpha in lower_set_closure([(2, 1, 0), (0, 1, 2)])]
    assert calls(lambda: PolySubmodule(3, lower)) == 0


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
    basis = tuple(Poly(n, dict(zip(monomial_list, row))) for row in coords.basis)

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


def recorded_products(monkeypatch, run):
    """(n, basis) of every span the library builds through the trusted
    constructor, `_trusted`, while run runs."""
    seen = []
    real = PolySubmodule._trusted

    def record(cls, *args):
        out = real(*args)
        seen.append((out.n, list(out.basis)))
        return out

    monkeypatch.setattr(PolySubmodule, "_trusted", classmethod(record))
    run()
    monkeypatch.setattr(PolySubmodule, "_trusted", real)
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
    # The products of submodule_from_polys, lower-set spans and extend_iso
    # steps, which the library builds without the closure check: the
    # validating constructor must accept each of them.
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

    recorded = recorded_products(monkeypatch, run)
    # 6 closures, 3 lower sets and the extension's two final spans
    assert len(recorded) == 9 + 2, len(recorded)
    # The extension builds each side once.  Read from the constant up, every
    # prefix of a canonical basis spans a submodule: a derivative of a row
    # has lower degree than the row's lead, so it lies in the span of the
    # rows led by monomials of lower degree.
    prefixes = [(n, polys[::-1][:k]) for n, polys in recorded[-2:] for k in range(source.dim + 1, len(polys))]
    assert len(prefixes) >= 2 * 4, len(prefixes)
    for n, polys in recorded + prefixes:
        PolySubmodule(n, polys)  # closed: the validating constructor accepts it
    return table + recorded + prefixes


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


def eager_key(n, polys):
    """The PolySubmodule key before the integer form, from the inputs:
    n, the monomial list, and the coordinate subspace's key then, its
    ambient dimension and RREF basis as `Fraction` rows."""
    monomial_list = tuple(sorted(set().union(*(p.monomials() for p in polys)), key=grlex_key, reverse=True))
    m, pivots = naive_rref([poly_to_vector(p, monomial_list) for p in polys], len(monomial_list))
    return n, monomial_list, (len(monomial_list), tuple(map(tuple, m[: len(pivots)])))


def test_polysubmodule_equality_matches_the_eager_key(monkeypatch):
    rng = random.Random(281)
    built = []
    for n, polys in constructor_table(monkeypatch):
        # The same space from another spanning set: the generators in
        # reverse, rescaled, and the sum of the first and the last.
        twin = [p.scale(Fraction(rng.choice([-3, -1, 2]), rng.choice([1, 5]))) for p in polys[::-1]]
        for span in (polys, twin + [polys[0] + polys[-1]] if polys else []):
            try:
                built.append((PolySubmodule(n, span), eager_key(n, span)))
            except ValueError:
                pass
    equal = 0
    for a, key_a in built:
        basis = tuple(Poly(a.n, dict(zip(a.monomial_list, row))) for row in key_a[2][1])
        assert a.basis == basis and a.dim == len(basis)
        for b, key_b in built:
            assert (a == b) == (key_a == key_b)
            if a == b:
                assert hash(a) == hash(b)
                equal += 1
    assert len(built) >= 40 and equal >= 2 * len(built), (len(built), equal)


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
    # At n = 2 and 3 the pass leaves more monomials than d, with weights
    # other than 1, so the image is eliminated on the rows over the lcm of
    # their weights; each case runs with every block sparse and every dense.
    from nilmod.embed import _pass, canonical_form
    from nilmod.modcore import _socle_walk

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
    reference = stored(lambda: reference_polysubmodule(n, members))
    for module in (plain, dense):
        if n > 1:
            monomials, _, weights = _pass(module, _socle_walk(module), None)
            assert len(monomials) > module.dim and set(weights) != {1}
        for share in (1, -1):
            with mock.patch.object(exactalg, "_SPARSE_SHARE", share):
                assert stored(lambda: canonical_form(module)) == reference


# --- matrix bridge -------------------------------------------------------------

def test_as_matrices_constants_module():
    fd, bridge = as_matrices(submodule_from_polys(1, []))
    assert fd.matrices == (zeros(1, 1),)
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
        for share in ROUTES:
            with mock.patch.object(exactalg, "_SPARSE_SHARE", share):
                mats = action_matrices(sub)
            assert len(mats) == sub.n
            for i, m in enumerate(mats, start=1):
                assert m.rows == m.cols == sub.dim
                for j, b in enumerate(sub.basis):
                    expected = sub.coordinates_of(b.partial(i))
                    assert [row[j] for row in m.entries] == list(expected)


def test_exp_submodule_actions_add_scalar():
    base = submodule_from_polys(1, [Poly.variable(1, 1)])
    exp = ExpSubmodule([Fraction(5)], base)
    plain = action_matrices(base)
    shifted = action_matrices(exp)
    assert shifted[0] == plain[0] + QMatrix.identity(2).scale(5)
    # A twist of the derivative module: the same matrices as the identity
    # plus scale form, for rational eigenvalues in one to three variables.
    rng = random.Random(2505)
    for n in (1, 2, 3):
        for _ in range(3):
            part = submodule_from_polys(n, [random_poly(n, 3 if n < 3 else 2, rng)])
            eigenvalues = [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(n)]
            eye = QMatrix.identity(part.dim)
            old = tuple(d + eye.scale(a) for d, a in zip(part.action_matrices(), eigenvalues))
            assert ExpSubmodule(eigenvalues, part).action_matrices() == old


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


def test_image_poly_reads_one_basis_index():
    rng = random.Random(44)
    sub = submodule_from_polys(2, [Poly(2, {(2, 1): 1, (0, 2): 3, (1, 0): -1})])
    d = sub.dim
    entries = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(d)] for _ in range(d)]
    phi = ModuleMap(sub, sub, QMatrix(entries))
    assert tuple(phi.image_poly(j) for j in range(d)) == phi.image_polys()
    for j in (-1, d):
        with pytest.raises(IndexError, match=rf"^basis index {j} out of range 0\.\.{d - 1}$"):
            phi.image_poly(j)
    for j in (True, 1.0):
        with pytest.raises(ValueError, match=rf"^expected an integer, got {j!r}$"):
            phi.image_poly(j)


def test_one_image_poly_is_its_column_of_the_packed_product():
    # image_polys() multiplies by the rows of the basis B, over 36
    # monomials, in one product, and image_poly(j) and from_coordinates take
    # dot products with B's stored columns.  A canonical basis of a closure
    # is about a tenth nonzero, so the share is patched to give B's rows
    # the dense form, which is packed at this width.
    rng = random.Random(46)
    terms = {a: rng.choice([-3, -2, -1, 1, 2, 3]) for a in monomials_up_to_degree(2, 7)}
    sub = submodule_from_polys(2, [Poly(2, terms)])
    d, width = sub.dim, len(sub.monomial_list)
    assert d >= 16
    entries = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d)] for _ in range(d)]
    phi = ModuleMap(sub, sub, QMatrix(entries))
    with mock.patch.object(exactalg, "_SPARSE_SHARE", -1):
        assert isinstance(exactalg._row_form(list(zip(*sub.coords._columns)), width)[1], exactalg._Packs)
        images = phi.image_polys()
        assert [phi.image_poly(j) for j in range(d)] == list(images)
        assert [sub.from_coordinates(column) for column in zip(*entries)] == list(images)
    assert images == phi.image_polys()
    assert images[-1] == reference_from_coordinates(sub, [row[-1] for row in entries])


def test_the_constructors_read_an_iterator_as_its_list():
    x1, x2 = Poly.variable(2, 1), Poly.variable(2, 2)
    assert submodule_from_polys(2, iter([x1 * x2])) == submodule_from_polys(2, [x1 * x2])
    assert submodule_from_polys(2, iter([x1 * x2])).dim == 4
    y = Poly.variable(1, 1)
    assert submodule_from_polys(1, iter([y * y * y])) == submodule_from_polys(1, [y * y * y])
    assert submodule_from_polys(1, iter([y * y * y])).dim == 4
    assert PolySubmodule(2, iter([Poly.one(2), x1])) == PolySubmodule(2, [Poly.one(2), x1])


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
    assert all(m == zeros(1, 1) for m in mod.matrices)


@pytest.mark.parametrize("n,bound", [(2, 15), (3, 7), (GEN_LIMIT, 0), (GEN_LIMIT - 1, 1)])
def test_random_module_at_the_limit_is_built(n, bound):
    assert comb(n + bound, n) <= GEN_LIMIT
    assert is_nilpotent(random_nilpotent_module(n, bound, seed=1))


@pytest.mark.parametrize("n,bound", [(2, 16), (3, 8), (GEN_LIMIT + 1, 0), (GEN_LIMIT, 1), (1, 10**100)])
def test_random_module_past_the_limit_is_refused(n, bound):
    with pytest.raises(DimensionTooLarge, match=f"^random modules take at most {GEN_LIMIT} variables"):
        random_nilpotent_module(n, bound, seed=1)


def test_random_module_checks_degree_then_count_then_size():
    with pytest.raises(ValueError, match="^degree bound must be non-negative$"):
        random_nilpotent_module(10**6, -1, seed=1)
    with pytest.raises(ValueError, match="^variable count must be at least 1$"):
        random_nilpotent_module(0, 10**6, seed=1)


@pytest.mark.parametrize("bound", [True, 2.5, "3", None], ids=["bool", "float", "string", "none"])
def test_random_module_refuses_a_degree_bound_that_is_not_an_integer(bound):
    # True was read as 1; the others failed with Python's own TypeError.
    with pytest.raises(ValueError) as caught:
        random_nilpotent_module(2, bound, seed=0)
    assert str(caught.value) == f"expected an integer, got {bound!r}"


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


def test_eigenvalue_errors_carry_their_witness():
    # The block that leaves no tuple, with the characteristic polynomial
    # of D S_k ascending; the surviving tuples as "p/q" strings.
    cases = [
        ([QMatrix([[0, 1], [-1, 0]])], NonRationalEigenvalue, {"block": 1, "char_poly": ["1", "0", "1"]}),
        # x_1 = I/2 keeps the tuple (1/2,) alive; x_2 is half a rotation,
        # so over D = 2 the block D S_2 is the rotation, with t^2 + 1.
        (
            [QMatrix.identity(2).scale(Fraction(1, 2)), QMatrix([[0, Fraction(1, 2)], [Fraction(-1, 2), 0]])],
            NonRationalEigenvalue,
            {"block": 2, "char_poly": ["1", "0", "1"]},
        ),
        ([QMatrix([[1, 0], [0, 2]])], NoCommonEigenline, [["1"], ["2"]]),
        ([QMatrix.identity(2), QMatrix([[0, 0], [0, Fraction(-1, 3)]])], NoCommonEigenline, [["1", "-1/3"], ["1", "0"]]),
    ]
    for matrices, kind, witness in cases:
        with pytest.raises(kind) as caught:
            socle_eigenvalues(validate(matrices))
        assert caught.value.witness_json == witness
    with pytest.raises(NoCommonEigenline) as caught:
        socle_eigenvalues(validate([QMatrix([], cols=0)]))
    assert caught.value.witness_json is None


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


def test_integer_roots_match_brute_force():
    from nilmod.modcore import _integer_roots

    rng = random.Random(97)
    for _ in range(300):
        # A product of integer linear factors (repeats allowed) and of
        # random small monic factors that may or may not split further.
        poly = [Fraction(1)]
        for _ in range(rng.randint(0, 4)):
            poly = poly_times(poly, [-rng.randint(-6, 6), 1])
        for _ in range(rng.randint(0, 2)):
            factor = [rng.randint(-5, 5) for _ in range(rng.randint(1, 3))] + [1]
            poly = poly_times(poly, factor)
        roots = _integer_roots([int(c) for c in poly])
        expected_roots, splits = brute_force_rational_roots(poly)
        assert roots == expected_roots
        # f splits over Q iff its distinct rational roots are all its roots
        assert (len(roots) == squarefree_degree(poly)) == splits


def test_integer_roots_fixed_cases():
    from nilmod.modcore import _integer_roots

    def product_of(*factors):
        poly = [Fraction(1)]
        for factor in factors:
            poly = poly_times(poly, factor)
        return [int(c) for c in poly]

    def check(poly, roots, splits):
        assert _integer_roots(poly) == roots
        assert (len(roots) == squarefree_degree(poly)) == splits

    check([1], [], True)
    check([7, 1], [-7], True)
    check([0, 0, 0, 1], [0], True)  # t^3
    check([1, 0, 1], [], False)  # t^2 + 1
    check([-2, 0, 1], [], False)  # t^2 - 2
    check(product_of([1, 1], [0, 1], [-1, 1]), [-1, 0, 1], True)
    check(product_of([-2, 1], [-2, 1], [5, 1]), [-5, 2], True)
    # 1 and sqrt(2) share the unit interval [1, 2) with the critical
    # point of t^3 - t^2 - 2t + 2 between them.
    check(product_of([-1, 1], [-2, 0, 1]), [1], False)
    # 19 falls on a bisection endpoint of its monotone stretch.
    check(product_of([15, 1], [-19, 1], [-30, 1]), [-15, 19, 30], True)
    # Two eight-digit primes: nothing trial-divides their product.
    check(product_of([-10000019, 1], [-10000079, 1]), [10000019, 10000079], True)


def test_char_poly_matches_determinants():
    from nilmod.modcore import _char_poly

    rng = random.Random(421)
    table = [[[0]], [[7]], [[-3]], [[0] * 4 for _ in range(4)]]
    for d in range(2, 8):
        table.append([[rng.randint(-9, 9) for _ in range(d)] for _ in range(d)])
        # Entries near 10^6.
        table.append([[rng.choice((-1, 1)) * (10**6 - rng.randint(0, 9)) for _ in range(d)] for _ in range(d)])
    for m in table:
        d = len(m)
        coeffs = _char_poly(m)
        assert len(coeffs) == d + 1 and coeffs[-1] == 1
        # d + 1 points pin down a polynomial of degree d.
        for t in (-3, -2, -1, 0, 1, 2, 5, 10**6):
            shifted = QMatrix([[t * (i == j) - x for j, x in enumerate(row)] for i, row in enumerate(m)])
            assert sum(c * t**k for k, c in enumerate(coeffs)) == shifted.det()


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


# --- one stored form ---------------------------------------------------------

def reference_twist(module, shift):
    """The twist by QMatrix arithmetic, as the library built it before it
    wrote the twist on the integer blocks."""
    eye = QMatrix.identity(module.dim)
    return [m - eye.scale(a) for m, a in zip(module.matrices, shift)]


def rational_conjugate(module, rng):
    d = module.dim
    while True:
        g = QMatrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(d)] for _ in range(d)])
        if g.det() != 0:
            return validate([g * m * g.inverse() for m in module.matrices])


def stored_form_table():
    """Seeded modules in one to three variables, plain (over 1) and
    rationally conjugated (over a denominator D > 1), and the zero
    modules."""
    rng = random.Random(2501)
    cases = [FDModule(1, [QMatrix([], cols=0)]), FDModule(3, [QMatrix([], cols=0)] * 3)]
    for n, bound in [(1, 4), (2, 3), (3, 2)]:
        for seed in range(2):
            plain = random_nilpotent_module(n, bound, seed=seed)
            cases += [plain, rational_conjugate(plain, rng)]
    return cases


def test_every_route_to_a_module_gives_one_value():
    # The constructor, the JSON reader, the trusted twist and the trusted
    # derivative module store the same blocks over the same denominator
    # whenever their matrices agree, so they are equal and hash equal.
    rng = random.Random(2502)
    for module in stored_form_table():
        built = FDModule(module.n, module.matrices)
        read = FDModule.from_json(module.to_json())
        untwisted = twist(twist(module, [Fraction(1, 7)] * module.n), [Fraction(-1, 7)] * module.n)
        shift = [Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(module.n)]
        twisted = twist(module, shift)
        validated = validate(reference_twist(module, shift))
        for one, other in [(module, built), (module, read), (module, untwisted), (twisted, validated)]:
            assert one == other and hash(one) == hash(other)
            assert (one._den, one._blocks) == (other._den, other._blocks)
            assert one.matrices == other.matrices
    for n, terms in [(1, {(5,): 1}), (2, {(2, 1): 1, (0, 3): -2}), (3, {(1, 1, 1): 1, (2, 0, 0): 3})]:
        sub = submodule_from_polys(n, [Poly(n, terms)])
        fd, _ = as_matrices(sub)
        validated = FDModule(n, sub.action_matrices())
        assert fd == validated and hash(fd) == hash(validated)
        assert fd.matrices == validated.matrices


def test_the_stored_denominator_is_the_least_one():
    # D is the least common denominator of all entries: no factor is
    # shared by D and every entry of the blocks.
    rng = random.Random(2503)
    for module in stored_form_table():
        shift = [Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(module.n)]
        for value in (module, twist(module, shift), twist(module, [0] * module.n)):
            entries = [x for block in value._blocks for row in block for x in row]
            assert value._den > 0 and gcd(value._den, *entries) == 1
            assert all(type(x) is int for x in entries)
            assert type(value._blocks) is tuple and all(type(row) is tuple for b in value._blocks for row in b)
            assert value._den == lcm(*(m._den for m in value.matrices))


def test_matrices_are_built_once_and_equal_the_given_tuple(monkeypatch):
    mats = (QMatrix([[0, Fraction(1, 2)], [0, 0]]), QMatrix([[0, 3], [0, 0]]))
    module = FDModule(2, mats)
    # A constructed module keeps the matrices it was given.
    assert module.matrices == mats and all(a is b for a, b in zip(module.matrices, mats))
    assert module.action(1) is mats[0]
    # A trusted module builds them on first read, and only then.
    built = []
    real = QMatrix._trusted
    monkeypatch.setattr(QMatrix, "_trusted", classmethod(lambda cls, *args: built.append(1) or real(*args)))
    twisted = twist(module, [Fraction(1, 3), 2])
    assert built == []
    first = twisted.matrices
    assert len(built) == 2
    assert twisted.matrices is first and twisted.action(2) is first[1]
    assert len(built) == 2
    monkeypatch.undo()
    assert first == tuple(reference_twist(module, [Fraction(1, 3), 2]))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_twist_matches_the_matrix_reference(n, monkeypatch):
    # Over the blocks' D, shifts with denominators coprime to D, and ones
    # that share a factor with it; the trusted module re-checks nothing.
    rng = random.Random(2504 + n)
    plain = random_nilpotent_module(n, 3 if n < 3 else 2, seed=n)
    modules = (plain, rational_conjugate(plain, rng), FDModule(n, [QMatrix([], cols=0)] * n))
    checks = []
    real = FDModule.__init__
    monkeypatch.setattr(FDModule, "__init__", lambda self, *args: checks.append(1) or real(self, *args))
    for module in modules:
        coprime = [q for q in range(2, 40) if gcd(q, module._den) == 1][:3]
        shifts = [[Fraction(rng.randint(-9, 9), rng.choice(coprime)) for _ in range(n)] for _ in range(4)]
        shifts += [[Fraction(rng.randint(-9, 9), module._den * rng.randint(1, 3)) for _ in range(n)]]
        shifts += [[0] * n, [Fraction(1, module._den)] * n]
        for shift in shifts:
            twisted = twist(module, shift)
            assert checks == []
            assert twisted.matrices == tuple(reference_twist(module, shift))
            assert (twisted.n, twisted.dim) == (module.n, module.dim)
    with pytest.raises(ValueError):
        twist(plain, [1] * (n + 1))
    with pytest.raises(TypeError):
        twist(plain, [0.5] * n)
