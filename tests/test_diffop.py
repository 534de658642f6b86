"""Tests for truncated differential-operator series and everything
built on them: coefficient extraction, composition, exp/log, submodule
restriction, isomorphism extension, and automorphism groups.

Oracles: the falling-factorial formula for d^alpha on monomials,
operator composition checked pointwise, matrix products for the group
structure, and the library's earlier loops for sums, composition, exp,
log, application, the automorphism group, the endomorphism space and
the rebuild-per-step isomorphism extension, kept below as reference
implementations.  The product and the graded exp/log recurrence are
kept in their `Fraction` forms, one product and sum per term pair, so
no reference runs on the integer kernels.
"""

import json
import math
import operator
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from operator import add
from pathlib import Path

import pytest
from timing import time_limit

import nilmod.diffop as diffop
from nilmod.diffop import (
    AutDescriptor,
    AutGroup,
    DiffOpSeries,
    MonomialSubmodule,
    aut_structure,
    extend_iso,
    extend_iso_step,
    extract_coeffs,
    monomial_images,
    restrict,
    restriction_kernel_dim,
    series_exp,
    series_log,
)
from nilmod.errors import (
    Incompatible,
    IncompatibleMap,
    NilmodError,
    NotAnEndomorphism,
    NothingToExtend,
    TruncationTooLow,
    WrongConstantTerm,
)
from nilmod.exactalg import QMatrix
from nilmod.multipoly import (
    Poly,
    grlex_key,
    lower_set_closure,
    monomials_of_degree,
    monomials_up_to_degree,
    multi_factorial,
    potential,
    truncated_product,
)
from nilmod.polysub import ModuleMap, PolySubmodule, _poly_rows, submodule_from_polys


def partial_multi(p, alpha):
    """d^alpha p, one partial derivative at a time."""
    for i, a in enumerate(alpha, start=1):
        for _ in range(a):
            p = p.partial(i)
    return p


def random_series(rng, n, trunc, zero_unit=False, unit_one=False):
    coeffs = {}
    for alpha in monomials_up_to_degree(n, trunc):
        if rng.random() < 0.5:
            coeffs[alpha] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    origin = (0,) * n
    if zero_unit:
        coeffs.pop(origin, None)
    elif unit_one:
        coeffs[origin] = Fraction(1)
    return DiffOpSeries(n, trunc, coeffs)


def random_poly(rng, n, degree):
    return Poly(
        n,
        {
            alpha: Fraction(rng.randint(-4, 4))
            for alpha in monomials_up_to_degree(n, degree)
            if rng.random() < 0.5
        },
    )


# --- reference implementations -------------------------------------------------
# The library's earlier loops, kept as oracles for the closed forms: sums as a
# sparse loop of their own, the truncated product and the graded exp/log
# recurrence on `Fraction`s, exp and log as sums of k-fold products,
# application through chains of single partial derivatives, the automorphism
# group through full truncated series and their action on each monomial, the
# endomorphism space as the d^2-unknown intertwiner system, and the
# extension's two searches for the least missing monomial with its loop that
# rescans the goal before each step.


def reference_add(a, b):
    if a.n != b.n:
        raise ValueError("variable count mismatch")
    trunc = min(a.trunc, b.trunc)
    out = {k: c for k, c in a.coeffs.items() if sum(k) <= trunc}
    for k, c in b.coeffs.items():
        if sum(k) > trunc:
            continue
        total = out.get(k, Fraction(0)) + c
        if total == 0:
            out.pop(k, None)
        else:
            out[k] = total
    return DiffOpSeries(a.n, trunc, out)


def reference_truncated_product(p, q, bound):
    """The terms of p * q of degree <= bound: one `Fraction` product and
    sum per term pair, q's terms in ascending degree."""
    if p.n != q.n:
        raise ValueError("variable count mismatch")
    by_degree = sorted(((b, sum(b), c) for b, c in q.terms.items()), key=lambda t: t[1])
    out = {}
    for a, ca in p.terms.items():
        room = bound - sum(a)
        for b, b_deg, cb in by_degree:
            if b_deg > room:
                break
            g = tuple(map(add, a, b))
            out[g] = out.get(g, 0) + ca * cb
    return Poly(p.n, out)


def reference_compose(a, b):
    if a.n != b.n:
        raise ValueError("variable count mismatch")
    trunc = min(a.trunc, b.trunc)
    product = reference_truncated_product(Poly(a.n, a.coeffs), Poly(b.n, b.coeffs), trunc)
    return DiffOpSeries(a.n, trunc, product.terms)


def reference_graded_solve(trunc, within, seed, step, weight):
    """The nonzero X_g, 0 < |g| <= trunc, of
    |g| X_g = seed_g + sum_(a + b = g, a != 0) weight(|a|) X_a step_b,
    one ascending pass on `Fraction`s, each solved X_a pushed onto a + b."""
    terms = sorted(((b, sum(b), c) for b, c in step.items()), key=lambda t: t[1])
    pending = [{} for _ in range(trunc + 1)]
    for g, c in seed.items():
        d = sum(g)
        if d <= trunc and (within is None or g in within):
            pending[d][g] = c
    out = {}
    for d in range(1, trunc + 1):
        for g, total in pending[d].items():
            if not total:
                continue
            x = total / d
            out[g] = x
            w = weight(d) * x
            for b, b_deg, c in terms:
                e = d + b_deg
                if e > trunc:
                    break
                h = tuple(map(add, g, b))
                if within is None or h in within:
                    pending[e][h] = pending[e].get(h, 0) + w * c
    return out


def reference_exp_coeffs(s, trunc, within=None):
    """The non-constant terms of exp(s): |g| E_g = sum_(0<b<=g) |b| s_b E_(g-b)."""
    weighted = {b: sum(b) * c for b, c in s.items() if any(b)}
    return reference_graded_solve(trunc, within, weighted, weighted, lambda d: 1)


def reference_log_coeffs(e, trunc, within=None):
    """log(e): |g| L_g = |g| e_g - sum_(0<b<g) |g-b| L_(g-b) e_b."""
    step = {b: c for b, c in e.items() if any(b)}
    seed = {b: sum(b) * c for b, c in step.items()}
    return reference_graded_solve(trunc, within, seed, step, lambda d: -d)


def reference_endomorphism_dim(sub):
    """dim of {P : P D_i = D_i P for all i}, the d^2 unknowns of P read
    row by row, where D_i is the action of d_i on the submodule."""
    d = sub.dim
    rows = []
    for m in sub.action_matrices():
        for a in range(d):
            for c in range(d):
                row = [Fraction(0)] * (d * d)
                for b in range(d):
                    row[a * d + b] += m.entries[b][c]
                    row[b * d + c] -= m.entries[a][b]
                rows.append(row)
    return QMatrix(rows, cols=d * d).kernel().dim


def reference_restricted_series_dim(sub):
    """dim of the span of the restrictions of every d^beta, |beta| at most
    the top degree of the submodule."""
    d = sub.dim
    degree = max(sum(alpha) for alpha in sub.monomial_list)
    flat = []
    for beta in monomials_up_to_degree(sub.n, degree):
        columns = [sub.coordinates_of(partial_multi(p, beta)) for p in sub.basis]
        mat = QMatrix.from_columns(columns, rows=d)
        flat.append([x for row in mat.entries for x in row])
    return QMatrix(flat, cols=d * d).rank()


def reference_exp(s):
    acc = DiffOpSeries.identity(s.n, s.trunc)
    power = DiffOpSeries.identity(s.n, s.trunc)
    fact = 1
    for k in range(1, s.trunc + 1):
        power = reference_compose(power, s)
        fact *= k
        acc = reference_add(acc, power.scale(Fraction(1, fact)))
    return acc


def reference_log(s):
    u = reference_add(s, DiffOpSeries.identity(s.n, s.trunc).scale(-1))
    acc = DiffOpSeries(s.n, s.trunc)
    power = DiffOpSeries.identity(s.n, s.trunc)
    for k in range(1, s.trunc + 1):
        power = reference_compose(power, u)
        acc = reference_add(acc, power.scale(Fraction(-1 if k % 2 == 0 else 1, k)))
    return acc


def reference_apply(s, p):
    out = Poly.zero(s.n)
    for alpha, c in s.coeffs.items():
        term = partial_multi(p, alpha)
        if not term.is_zero():
            out = out + term.scale(c)
    return out


def reference_aut_matrix(module, desc):
    """Row x^beta, column x^alpha: the coefficient at x^beta of
    u exp(t) applied to x^alpha, one partial derivative at a time."""
    log_part = DiffOpSeries(module.n, module.max_degree, desc.additive)
    series = reference_exp(log_part).scale(desc.unit)
    order = module.monomials_descending()
    images = [reference_apply(series, Poly.monomial(module.n, alpha)).terms for alpha in order]
    return QMatrix([[image.get(beta, 0) for image in images] for beta in order])


def reference_descriptor_of(module, matrix):
    order = module.monomials_descending()
    origin_row = order.index((0,) * module.n)
    coeffs = {}
    for col, alpha in enumerate(order):
        c = matrix.entries[origin_row][col] / multi_factorial(alpha)
        if c != 0:
            coeffs[alpha] = c
    unit = coeffs.get((0,) * module.n, Fraction(0))
    if unit == 0:
        raise ValueError("not an automorphism: zero unit coefficient")
    series = DiffOpSeries(module.n, module.max_degree, coeffs)
    logs = reference_log(series.scale(1 / unit))
    additive = {alpha: logs.coeffs.get(alpha, Fraction(0)) for alpha in module.indices if any(alpha)}
    desc = AutDescriptor(unit, additive)
    if reference_aut_matrix(module, desc) != matrix:
        raise ValueError("matrix is not the restriction of any series")
    return desc


def reference_least_missing_monomial(module, within):
    """Filter `within`, or walk every monomial degree by degree."""
    if within is not None:
        missing = [
            a
            for a in within.indices
            if not module.contains(Poly.monomial(module.n, a))
        ]
        if not missing:
            raise NothingToExtend("the target monomials are already covered")
        least_degree = min(sum(a) for a in missing)
        return min((a for a in missing if sum(a) == least_degree), key=grlex_key)
    degree = 0
    while True:
        for alpha in sorted(monomials_of_degree(module.n, degree), key=grlex_key):
            if not module.contains(Poly.monomial(module.n, alpha)):
                return alpha
        degree += 1


def reference_extend_to(phi, kappa):
    """phi extended to x^kappa, the least monomial missing from its
    source, by rebuilding both spans and forming B A^-1: the columns of A
    are the new source coordinates of the old basis and x^kappa, those
    of B the new target coordinates of their images."""
    source, target = phi.source, phi.target
    n = source.n

    def coordinates(space, p):
        coords = space.coordinates_of(p)
        assert coords is not None
        return coords

    def phi_of(p):
        return target.from_coordinates(phi.apply_coords(coordinates(source, p)))

    new_monomial = Poly.monomial(n, kappa)
    g = potential([phi_of(new_monomial.partial(i)) for i in range(1, n + 1)], n)
    assert not target.contains(g)
    new_source = PolySubmodule(n, list(source.basis) + [new_monomial])
    new_target = PolySubmodule(n, list(target.basis) + [g])
    images = [phi.image_poly(r) for r in range(source.dim)] + [g]
    a = QMatrix.from_columns([coordinates(new_source, p) for p in list(source.basis) + [new_monomial]])
    b = QMatrix.from_columns([coordinates(new_target, q) for q in images])
    return ModuleMap(new_source, new_target, b * a.inverse())


def reference_extend_iso_step(phi, within=None):
    return reference_extend_to(phi, reference_least_missing_monomial(phi.source, within))


def reference_extend_iso(phi, goal):
    current = phi
    while True:
        src = current.source
        if all(src.contains(Poly.monomial(src.n, a)) for a in goal.indices):
            return current
        current = reference_extend_iso_step(current, goal)


def random_fraction(rng):
    return Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 3, 7]), rng.randint(1, 6))


def sparse_series(rng, n, trunc, unit=0):
    """A series on a few random exponents, which need not form a lower set."""
    coeffs = {}
    for _ in range(rng.randint(0, 3)):
        alpha = tuple(rng.randint(0, trunc) for _ in range(n))
        if 0 < sum(alpha) <= trunc:
            coeffs[alpha] = random_fraction(rng)
    coeffs[(0,) * n] = unit
    return DiffOpSeries(n, trunc, coeffs)


def falling_derivative(beta, alpha, n):
    """d^alpha x^beta by the falling-factorial formula."""
    if any(a > b for a, b in zip(alpha, beta)):
        return Poly.zero(n)
    coef = 1
    for a, b in zip(alpha, beta):
        coef *= math.factorial(b) // math.factorial(b - a)
    return Poly(n, {tuple(b - a for a, b in zip(alpha, beta)): coef})


# --- series construction ----------------------------------------------------

def test_series_drops_zeros_and_validates():
    s = DiffOpSeries(2, 2, {(1, 0): 0, (0, 1): 3})
    assert s.coeffs == {(0, 1): Fraction(3)}
    with pytest.raises(ValueError):
        DiffOpSeries(2, 1, {(1, 1): 1})
    with pytest.raises(ValueError):
        DiffOpSeries(2, 3, {(1,): 1})
    with pytest.raises(ValueError):
        DiffOpSeries(2, 3, {(-1, 0): 1})


def test_series_unit_and_accessors():
    s = DiffOpSeries(2, 2, {(0, 0): Fraction(5, 2), (1, 1): -1})
    assert s.unit == Fraction(5, 2)
    assert s.coeffs == {(0, 0): Fraction(5, 2), (1, 1): -1}
    assert DiffOpSeries.identity(2, 3).unit == 1
    assert DiffOpSeries.derivative(2, 3, 2).coeffs == {(0, 1): 1}


def test_series_arithmetic():
    a = DiffOpSeries(1, 2, {(0,): 1, (2,): 3})
    b = DiffOpSeries(1, 2, {(0,): -1, (1,): 2})
    assert (a + b).coeffs == {(1,): Fraction(2), (2,): Fraction(3)}
    assert (a - a) == DiffOpSeries(1, 2)
    assert (-b).coeffs[(1,)] == -2
    assert a.scale(Fraction(1, 3)).coeffs[(2,)] == 1


def test_series_add_truncates_to_min():
    a = DiffOpSeries(1, 3, {(3,): 1})
    b = DiffOpSeries(1, 2, {(1,): 1})
    total = a + b
    assert total.trunc == 2
    assert total.coeffs == {(1,): Fraction(1)}


def test_add_and_compose_match_loop_reference():
    rng = random.Random(617)
    for n in (1, 2, 3):
        for _ in range(12):
            trunc_a, trunc_b = rng.randint(0, 4), rng.randint(0, 4)
            pairs = [
                (random_series(rng, n, trunc_a), random_series(rng, n, trunc_b)),
                (sparse_series(rng, n, trunc_a, unit=random_fraction(rng)),
                 random_series(rng, n, trunc_b)),
                (DiffOpSeries(n, trunc_a), sparse_series(rng, n, trunc_b)),
            ]
            for a, b in pairs:
                assert a + b == reference_add(a, b)
                assert a - b == reference_add(a, -b)
                assert a + (-a) == DiffOpSeries(n, a.trunc)
                assert a.compose(b) == reference_compose(a, b)
                assert b.compose(a) == reference_compose(b, a)
    other = DiffOpSeries.identity(2, 2)
    for op in (DiffOpSeries.__add__, DiffOpSeries.compose, reference_add, reference_compose):
        with pytest.raises(ValueError, match="^variable count mismatch$"):
            op(DiffOpSeries.identity(1, 2), other)


@pytest.mark.parametrize("op", [operator.add, operator.sub], ids=["add", "sub"])
@pytest.mark.parametrize(
    "value", [Poly(1, {(1,): 1}), DiffOpSeries(1, 2, {(1,): 1})], ids=["poly", "series"]
)
def test_arithmetic_with_a_foreign_operand_is_a_type_error(op, value):
    # Adding or subtracting a number used to fail inside the count check
    # with "'int' object has no attribute 'n'" (or 'trunc').
    for other in (1, Fraction(1, 2), Poly(1, {(1,): 1}) if isinstance(value, DiffOpSeries) else DiffOpSeries(1, 2)):
        with pytest.raises(TypeError, match="^unsupported operand type"):
            op(value, other)
        with pytest.raises(TypeError, match="^unsupported operand type"):
            op(other, value)


def test_series_validation_messages_come_from_poly():
    with pytest.raises(ValueError, match=r"^bad exponent vector \(1,\) for n=2$"):
        DiffOpSeries(2, 3, {(1,): 1})
    with pytest.raises(ValueError, match=r"^index \(1, 1\) exceeds truncation 1$"):
        DiffOpSeries(2, 1, {(1, 1): 1})
    with pytest.raises(ValueError, match="^truncation degree must be non-negative$"):
        DiffOpSeries(1, -1)
    with pytest.raises(ValueError, match="^variable count must be at least 1$"):
        DiffOpSeries(0, 1)


def test_series_json_round_trip():
    # The coefficients are written as a polynomial in d and read back so.
    rng = random.Random(401)
    for _ in range(10):
        s = random_series(rng, 2, 3)
        data = s.to_json()
        assert DiffOpSeries(data["n"], data["trunc"], Poly.from_json(data["coeffs"], data["n"]).terms) == s


@pytest.mark.parametrize(
    "args",
    [
        (True, 1, {}),
        (1, True, {}),
        (1, 1.0, {}),
        (1, 1, {(True,): 1}),
        (1, 1, {(1.0,): 1}),
        (1, 1, {("1",): 1}),
    ],
    ids=["bool_n", "bool_trunc", "float_trunc", "bool_exps", "float_exps", "str_exps"],
)
def test_series_json_refuses_non_integers(args):
    # The constructor checks the fields a series is read from.  Booleans
    # are ints to Python; as a count, a truncation or an exponent they
    # are malformed input, like any other non-integer.
    with pytest.raises(ValueError):
        DiffOpSeries(*args)


# --- application -------------------------------------------------------------

def test_apply_identity_is_identity():
    rng = random.Random(403)
    ident = DiffOpSeries.identity(2, 4)
    for _ in range(10):
        p = random_poly(rng, 2, 4)
        assert ident.apply(p) == p


def test_apply_single_derivative():
    d1 = DiffOpSeries.derivative(1, 3, 1)
    assert d1.apply(Poly(1, {(2,): 1})) == Poly(1, {(1,): 2})


def test_apply_matches_falling_factorial_oracle():
    rng = random.Random(409)
    for _ in range(30):
        n = rng.randint(1, 3)
        s = random_series(rng, n, 3)
        beta = tuple(rng.randint(0, 3) for _ in range(n))
        while sum(beta) > 3:
            beta = tuple(rng.randint(0, 3) for _ in range(n))
        expected = Poly.zero(n)
        for alpha, c in s.coeffs.items():
            expected = expected + falling_derivative(beta, alpha, n).scale(c)
        assert s.apply(Poly.monomial(n, beta)) == expected


def test_apply_never_raises_variable_degrees():
    rng = random.Random(419)
    for _ in range(40):
        n = rng.randint(1, 3)
        s = random_series(rng, n, 4)
        p = random_poly(rng, n, 4)
        image = s.apply(p)
        for i in range(1, n + 1):
            assert image.degree_in(i) <= p.degree_in(i)


def test_apply_matches_partial_derivative_reference():
    rng = random.Random(601)
    for n in (1, 2, 3):
        for trunc in range(5):
            for _ in range(6):
                s = random_series(rng, n, trunc)
                p = random_poly(rng, n, trunc)
                assert s.apply(p) == reference_apply(s, p)
            s = sparse_series(rng, n, trunc, unit=random_fraction(rng))
            p = random_poly(rng, n, trunc)
            assert s.apply(p) == reference_apply(s, p)
            assert DiffOpSeries(n, trunc).apply(p) == Poly.zero(n)
            assert s.apply(Poly.zero(n)) == Poly.zero(n)
            assert monomial_images(s) == {
                alpha: reference_apply(s, Poly.monomial(n, alpha))
                for alpha in monomials_up_to_degree(n, trunc)
            }


def test_apply_rejects_polynomials_beyond_truncation():
    s = DiffOpSeries.identity(1, 2)
    with pytest.raises(TruncationTooLow):
        s.apply(Poly(1, {(3,): 1}))


PLANE = MonomialSubmodule(2, [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)])


@pytest.mark.parametrize(
    "call,message,truncation,degree",
    [
        (lambda: DiffOpSeries.identity(2, 2).apply(Poly(2, {(1, 3): 1})), "polynomial degree 4 exceeds truncation 2", 2, 4),
        (lambda: restrict(DiffOpSeries.identity(2, 1), PLANE), "series truncation 1 below the submodule degree 2", 1, 2),
        (lambda: restriction_kernel_dim(PLANE, 0), "truncation 0 below the submodule degree 2", 0, 2),
    ],
    ids=["apply", "restrict", "restriction_kernel_dim"],
)
def test_truncation_too_low_carries_its_witness(call, message, truncation, degree):
    # Each raise site names the truncation and the operand's degree, as
    # attributes and as the JSON witness; the message is as it was.
    with pytest.raises(TruncationTooLow) as info:
        call()
    assert str(info.value) == message
    assert (info.value.truncation, info.value.degree) == (truncation, degree)
    assert info.value.witness_json == {"truncation": truncation, "degree": degree}


def test_apply_preserves_derivative_closed_submodules():
    rng = random.Random(421)
    for seed in range(10):
        gen = random_poly(random.Random(seed), 2, 3)
        sub = submodule_from_polys(2, [gen])
        s = random_series(rng, 2, 4)
        for b in sub.basis:
            assert sub.contains(s.apply(b))


# --- coefficient extraction -----------------------------------------------------

def test_extract_identity_table():
    images = {
        alpha: Poly.monomial(2, alpha)
        for alpha in monomials_up_to_degree(2, 2)
    }
    s = extract_coeffs(2, 2, images)
    assert s == DiffOpSeries.identity(2, 2)


def test_extract_first_derivative_table():
    images = {
        alpha: Poly.monomial(2, alpha).partial(1)
        for alpha in monomials_up_to_degree(2, 2)
    }
    s = extract_coeffs(2, 2, images)
    assert s == DiffOpSeries.derivative(2, 2, 1)


def test_extract_round_trip_on_random_series():
    rng = random.Random(431)
    for _ in range(20):
        n = rng.randint(1, 3)
        s = random_series(rng, n, 3)
        assert extract_coeffs(n, 3, monomial_images(s)) == s


def test_extracted_series_reproduces_the_map():
    rng = random.Random(433)
    for _ in range(10):
        s = random_series(rng, 2, 3)
        table = monomial_images(s)
        recovered = extract_coeffs(2, 3, table)
        p = random_poly(rng, 2, 3)
        assert recovered.apply(p) == s.apply(p)


def test_extract_rejects_non_commuting_table():
    s = random_series(random.Random(439), 2, 2)
    images = dict(monomial_images(s))
    images[(1, 1)] = images[(1, 1)] + Poly.variable(2, 1)
    with pytest.raises(NotAnEndomorphism) as info:
        extract_coeffs(2, 2, images)
    assert info.value.i == 1
    assert info.value.witness == (1, 1)


def test_extract_requires_full_table():
    images = {(0, 0): Poly.one(2)}
    with pytest.raises(ValueError):
        extract_coeffs(2, 1, images)


def test_extract_rejects_a_table_over_other_variables():
    images = dict(monomial_images(DiffOpSeries.identity(2, 1)))
    images[(1, 0)] = Poly(3, {(1, 0, 0): 1})
    with pytest.raises(ValueError, match="variable count mismatch in image table"):
        extract_coeffs(2, 1, images)


# --- the integer kernels against the Fraction forms ------------------------------
# apply and monomial_images by the closed form on Fraction terms, and the
# endomorphism check of extract_coeffs through Poly.partial and Poly.scale,
# as the library had them before its series kernels moved to integer
# numerators over one common denominator.

def reference_closed_form_apply(s, p):
    if p.n != s.n:
        raise ValueError("variable count mismatch")
    deg = p.total_degree()
    if isinstance(deg, int) and deg > s.trunc:
        raise TruncationTooLow(f"polynomial degree {deg} exceeds truncation {s.trunc}", s.trunc, deg)
    scaled = {}
    for beta, b in p.terms.items():
        b_fact = b * multi_factorial(beta)
        for gamma, c in s.coeffs.items():
            delta = tuple(x - y for x, y in zip(beta, gamma))
            if min(delta) >= 0:
                scaled[delta] = scaled.get(delta, 0) + c * b_fact
    return Poly(s.n, {delta: v / multi_factorial(delta) for delta, v in scaled.items()})


def reference_monomial_images(s):
    return {
        alpha: reference_closed_form_apply(s, Poly.monomial(s.n, alpha))
        for alpha in monomials_up_to_degree(s.n, s.trunc)
    }


def reference_extract(n, degree, images):
    table = {}
    for alpha in monomials_up_to_degree(n, degree):
        if alpha not in images:
            raise ValueError(f"image table is missing monomial {alpha}")
        p = images[alpha]
        if p.n != n:
            raise ValueError("variable count mismatch in image table")
        table[alpha] = p
    for alpha in sorted(table, key=grlex_key):
        for i in range(1, n + 1):
            lowered = (
                table[alpha[: i - 1] + (alpha[i - 1] - 1,) + alpha[i:]].scale(alpha[i - 1])
                if alpha[i - 1] >= 1
                else Poly.zero(n)
            )
            if table[alpha].partial(i) != lowered:
                raise NotAnEndomorphism(i, alpha)
    origin = (0,) * n
    coeffs = {
        alpha: table[alpha].terms.get(origin, Fraction(0)) / multi_factorial(alpha)
        for alpha in table
    }
    return DiffOpSeries(n, degree, coeffs)


def assert_canonical_poly(p):
    """What Poly._trusted makes of what its callers hand it: nonzero
    integer numerators over a positive denominator coprime to them all,
    and the same polynomial as the validated constructor gives."""
    assert p._den > 0 and all(type(c) is int and c != 0 for c in p._nums.values()), (p._den, p._nums)
    assert math.gcd(p._den, *p._nums.values()) == 1, (p._den, p._nums)
    assert all(isinstance(c, Fraction) and c != 0 for c in p.terms.values()), p.terms
    assert p == Poly(p.n, p.terms)


def assert_canonical_series(s):
    assert_canonical_poly(s._poly)
    assert s.n == s._poly.n
    assert all(sum(alpha) <= s.trunc for alpha in s.coeffs)
    assert s == DiffOpSeries(s.n, s.trunc, s.coeffs)
    assert s._poly == Poly(s.n, s.coeffs)


# Coprime denominators near 10^4, so the common denominator is their product.
LARGE_DENOMINATORS = [Fraction(1, 10007), Fraction(1, 10009), Fraction(-3, 10007), Fraction(5, 10009)]


def test_apply_and_images_match_the_fraction_closed_form():
    rng = random.Random(613)
    for n in (1, 2, 3):
        for trunc in range(5):
            monomials = list(monomials_up_to_degree(n, trunc))
            large = {a: rng.choice(LARGE_DENOMINATORS) for a in monomials if rng.random() < 0.6}
            series = [
                DiffOpSeries(n, trunc),
                random_series(rng, n, trunc),
                sparse_series(rng, n, trunc, unit=random_fraction(rng)),
                DiffOpSeries(n, trunc, large),
            ]
            polys = [
                Poly.zero(n),
                random_poly(rng, n, trunc),
                Poly(n, {a: rng.choice(LARGE_DENOMINATORS) for a in monomials if rng.random() < 0.6}),
            ]
            for s in series:
                for p in polys:
                    out = s.apply(p)
                    assert_canonical_poly(out)
                    assert out == reference_closed_form_apply(s, p)
                table = monomial_images(s)
                assert table == reference_monomial_images(s)
                for image in table.values():
                    assert_canonical_poly(image)


# --- application's walk: the box of beta or the support --------------------------

class Sized(dict):
    """A terms dict that reports `size` terms, so `DiffOpSeries.apply`
    takes the branch the size picks on the same terms."""

    def __init__(self, terms, size):
        super().__init__(terms)
        self.size = size

    def __len__(self):
        return self.size


@pytest.mark.parametrize("branch", ["box", "support", "switch"])
def test_both_walks_match_the_fraction_closed_form(branch):
    # The same series and polynomials through the box everywhere, the
    # support everywhere, and the switch as it stands; the supports run
    # from one term to the whole box of the truncation.
    rng = random.Random(617)
    for n in (1, 2, 3):
        for trunc in range(5):
            monomials = list(monomials_up_to_degree(n, trunc))
            for k in sorted({1, 2, 4, len(monomials) // 2, len(monomials)}):
                support = rng.sample(monomials, min(k, len(monomials)))
                s = DiffOpSeries(n, trunc, {a: random_fraction(rng) for a in support})
                walked = s
                if branch != "switch":
                    nums = Sized(s._poly._nums, 10**9 if branch == "box" else 0)
                    walked = DiffOpSeries._trusted(trunc, Poly._trusted(n, nums, s._poly._den))
                    assert walked._poly._nums is nums
                p = random_poly(rng, n, trunc)
                out = walked.apply(p)
                assert_canonical_poly(out)
                assert out == reference_closed_form_apply(s, p)
                table = monomial_images(s)
                assert table == reference_monomial_images(s)
                for image in table.values():
                    assert_canonical_poly(image)


def test_a_one_term_series_walks_its_support_at_a_high_truncation():
    # d1 at n = 3, trunc 40: the boxes of the C(43, 3) = 12341 monomials
    # hold about 9.4 million cells, against one support term each.  Each
    # call takes about 0.1 s; walking every box took about 1.2 s.
    d1 = DiffOpSeries.derivative(3, 40, 1)
    p = Poly(3, {a: 1 for a in monomials_up_to_degree(3, 40)})
    with time_limit(0.5):
        table = monomial_images(d1)
    with time_limit(0.5):
        out = d1.apply(p)
    assert table[(2, 1, 0)] == Poly(3, {(1, 1, 0): 2})
    assert table[(0, 5, 3)] == Poly.zero(3)
    assert out == Poly(3, {(a[0] - 1,) + a[1:]: a[0] for a in p.terms if a[0]})


def test_apply_drops_output_terms_that_sum_to_zero():
    # (1 + d1)(x1 - 1) = x1: the constant terms cancel.
    out = DiffOpSeries(1, 1, {(0,): 1, (1,): 1}).apply(Poly(1, {(1,): 1, (0,): -1}))
    assert_canonical_poly(out)
    assert out == Poly(1, {(1,): 1})
    # (d1 - d2)(x1 + x2) = 1 - 1 = 0
    out = DiffOpSeries(2, 1, {(1, 0): 1, (0, 1): -1}).apply(Poly(2, {(1, 0): 1, (0, 1): 1}))
    assert_canonical_poly(out)
    assert out.terms == {}
    # with large coprime denominators: (1/10007 d1 - 1/10009 d2)(10007 x1 - 10009 x2)
    s = DiffOpSeries(2, 1, {(1, 0): Fraction(1, 10007), (0, 1): Fraction(-1, 10009), (0, 0): 1})
    out = s.apply(Poly(2, {(1, 0): 10007, (0, 1): 10009}))
    assert_canonical_poly(out)
    assert out == Poly(2, {(1, 0): 10007, (0, 1): 10009})


def test_series_results_store_no_zeros():
    one_plus = DiffOpSeries(1, 3, {(0,): 1, (1,): 1})
    one_minus = DiffOpSeries(1, 3, {(0,): 1, (1,): -1})
    product = one_plus.compose(one_minus)
    assert_canonical_series(product)
    assert product.coeffs == {(0,): 1, (2,): -1}
    rng = random.Random(619)
    for n in (1, 2, 3):
        for trunc in range(4):
            s = random_series(rng, n, trunc)
            t = random_series(rng, n, trunc)
            partly = DiffOpSeries(n, trunc, {a: -c for a, c in s.coeffs.items() if rng.random() < 0.5})
            results = [s + partly, s - s, s - (s + t), -s, s.scale(0), s.scale(Fraction(-7, 3))]
            results += [s.compose(t), (s + DiffOpSeries.identity(n, trunc)).compose(DiffOpSeries.identity(n, trunc) - s)]
            lower = max(trunc - 1, 0)
            results.append(s.compose(DiffOpSeries(n, lower, {a: c for a, c in t.coeffs.items() if sum(a) <= lower})))
            no_unit = DiffOpSeries(n, trunc, {a: c for a, c in s.coeffs.items() if any(a)})
            exp = series_exp(no_unit)
            results += [exp, series_log(exp), extract_coeffs(n, trunc, monomial_images(s))]
            for out in results:
                assert_canonical_series(out)
            assert (s - s).coeffs == {}
            assert (s + partly).coeffs.keys() == s.coeffs.keys() - partly.coeffs.keys()


def corrupted(rng, table, n, degree, how):
    """The table with one image changed: one coefficient moved, a term
    added, a term removed, the image zeroed, or its constant term moved."""
    table = dict(table)
    alpha = rng.choice(sorted(table, key=grlex_key))
    terms = dict(table[alpha].terms)
    present = sorted(terms, key=grlex_key)
    if how == "change" and present:
        key = rng.choice(present)
        terms[key] += random_fraction(rng)
    elif how == "add":
        missing = [a for a in monomials_up_to_degree(n, degree) if a not in terms]
        if missing:
            terms[rng.choice(missing)] = random_fraction(rng)
    elif how == "remove" and present:
        del terms[rng.choice(present)]
    elif how == "zero":
        terms = {}
    elif how == "constant":
        origin = (0,) * n
        terms[origin] = terms.get(origin, 0) + random_fraction(rng)
    elif how == "outside":
        # a term at delta with delta_k > alpha_k, so not delta <= alpha
        k = rng.randrange(n)
        terms[tuple(a + (i == k) * rng.randint(1, 2) for i, a in enumerate(alpha))] = random_fraction(rng)
    table[alpha] = Poly(n, terms)
    return table


def extraction_outcome(extract, n, degree, table):
    try:
        return extract(n, degree, table)
    except NotAnEndomorphism as exc:
        return exc.i, exc.witness, str(exc)


@pytest.mark.parametrize(
    "how,seed",
    [("change", 631), ("add", 632), ("remove", 633), ("zero", 634), ("constant", 635), ("outside", 636)],
)
def test_extract_witness_matches_the_poly_check(how, seed):
    rng = random.Random(seed)
    raised = passed = 0
    # Random series up to n = 4, and the one-term d1 at a high degree,
    # whose table is mostly zero images.
    cases = [(n, degree) for n in (1, 2, 3, 4) for degree in range(5 if n < 4 else 4) for _ in range(6)]
    for n, degree in cases + [(3, 12)] * 2:
        if degree == 12:
            s = DiffOpSeries.derivative(n, degree, 1)
        else:
            s = random_series(rng, n, degree, unit_one=rng.random() < 0.5)
        table = monomial_images(s)
        assert extract_coeffs(n, degree, table) == s
        table = corrupted(rng, table, n, degree, how)
        got = extraction_outcome(extract_coeffs, n, degree, table)
        assert got == extraction_outcome(reference_extract, n, degree, table)
        if isinstance(got, DiffOpSeries):
            passed += 1
            assert_canonical_series(got)
        else:
            raised += 1
            assert got[2] == f"map does not commute with derivative {got[0]} at monomial {got[1]}"
    assert raised > 0
    if how in ("constant", "zero", "remove"):
        # a change at the top degree, or of nothing, is not seen
        assert passed > 0
    if how == "outside":
        assert passed == 0


def test_extract_on_tables_beyond_the_degree_matches_the_poly_check():
    # Images of higher degree match the poly check; entries above the
    # extraction degree are refused, naming the least of them, where the
    # poly check ignored them.
    rng = random.Random(641)
    for n in (1, 2, 3):
        for trunc in range(1, 5):
            s = random_series(rng, n, trunc)
            table = monomial_images(s)
            for degree in range(trunc + 1):
                cut = {a: p for a, p in table.items() if sum(a) <= degree}
                for how in ("change", "add"):
                    bad = corrupted(rng, cut, n, trunc, how)
                    got = extraction_outcome(extract_coeffs, n, degree, bad)
                    assert got == extraction_outcome(reference_extract, n, degree, bad)
                got = extraction_outcome(extract_coeffs, n, degree, cut)
                assert got == extraction_outcome(reference_extract, n, degree, cut)
                if degree == trunc:
                    assert extract_coeffs(n, degree, table) == s
                    continue
                least = min((a for a in table if sum(a) > degree), key=grlex_key)
                with pytest.raises(ValueError) as caught:
                    extract_coeffs(n, degree, table)
                assert str(caught.value) == f"image table has monomial {least} above degree {degree}"


@pytest.mark.parametrize(
    "n,degree,message",
    [
        (0, 1, "variable count must be at least 1"),
        (0, -1, "variable count must be at least 1"),
        (2, -1, "truncation degree must be non-negative"),
        (1, True, "expected an integer, got True"),
    ],
)
def test_extract_refuses_bad_sizes_as_before(n, degree, message):
    images = {(0,): Poly.one(1), (1,): Poly(1, {(1,): 1})}
    with pytest.raises(ValueError) as expected:
        reference_extract(n, degree, images)
    with pytest.raises(ValueError) as got:
        extract_coeffs(n, degree, images)
    assert str(got.value) == str(expected.value) == message


def test_image_table_round_trip_validates_no_polynomial(monkeypatch):
    # n = 3, m = 30: every monomial of degree <= 3 and ten of degree 4.
    rng = random.Random(643)
    corners = sorted(monomials_of_degree(3, 4))
    lower = list(monomials_up_to_degree(3, 3)) + rng.sample(corners, 10)
    s = DiffOpSeries(3, 4, {a: random_fraction(rng) for a in lower})
    built = []
    original = Poly.__init__
    monkeypatch.setattr(
        Poly, "__init__", lambda self, *args, **kwargs: built.append(1) or original(self, *args, **kwargs)
    )
    out = extract_coeffs(3, 4, monomial_images(s))
    assert built == []
    monkeypatch.undo()
    assert out == s


# --- composition ------------------------------------------------------------------

def test_compose_identity_neutral():
    rng = random.Random(443)
    ident = DiffOpSeries.identity(2, 3)
    for _ in range(10):
        s = random_series(rng, 2, 3)
        assert ident.compose(s) == s
        assert s.compose(ident) == s


def test_compose_two_derivatives():
    d1 = DiffOpSeries.derivative(2, 3, 1)
    d2 = DiffOpSeries.derivative(2, 3, 2)
    prod = d1.compose(d2)
    assert prod.coeffs == {(1, 1): Fraction(1)}
    assert prod.apply(Poly(2, {(1, 1): 1})) == Poly.one(2)


def test_compose_matches_operator_composition():
    rng = random.Random(449)
    for _ in range(15):
        n = rng.randint(1, 2)
        a = random_series(rng, n, 3)
        b = random_series(rng, n, 3)
        p = random_poly(rng, n, 3)
        assert a.compose(b).apply(p) == a.apply(b.apply(p))


def test_compose_commutative_and_associative():
    rng = random.Random(457)
    for _ in range(10):
        a = random_series(rng, 2, 3)
        b = random_series(rng, 2, 3)
        c = random_series(rng, 2, 3)
        assert a.compose(b) == b.compose(a)
        assert a.compose(b).compose(c) == a.compose(b.compose(c))


def test_compose_variable_count_mismatch():
    with pytest.raises(ValueError):
        DiffOpSeries.identity(1, 2).compose(DiffOpSeries.identity(2, 2))


def test_compose_truncates_to_min():
    a = DiffOpSeries(1, 3, {(2,): 1})
    b = DiffOpSeries(1, 2, {(1,): 1})
    out = a.compose(b)
    assert out.trunc == 2
    assert out.coeffs == {}


# --- exponentials and logarithms ------------------------------------------------

def test_exp_log_trivial_cases():
    assert series_log(DiffOpSeries.identity(2, 3)) == DiffOpSeries(2, 3)
    assert series_exp(DiffOpSeries(2, 3)) == DiffOpSeries.identity(2, 3)


def test_exp_is_shift_operator():
    # exp(d/dx) f = f(x + 1)
    e = series_exp(DiffOpSeries.derivative(1, 3, 1))
    cubed = Poly(1, {(3,): 1})
    assert e.apply(cubed) == Poly(1, {(3,): 1, (2,): 3, (1,): 3, (0,): 1})


def test_exp_log_round_trips():
    rng = random.Random(461)
    for _ in range(15):
        n = rng.randint(1, 2)
        a = random_series(rng, n, 3, zero_unit=True)
        assert series_log(series_exp(a)) == a
        u = random_series(rng, n, 3, unit_one=True)
        assert series_exp(series_log(u)) == u


def test_exp_turns_sums_into_compositions():
    rng = random.Random(463)
    for _ in range(10):
        a = random_series(rng, 2, 3, zero_unit=True)
        b = random_series(rng, 2, 3, zero_unit=True)
        assert series_exp(a + b) == series_exp(a).compose(series_exp(b))


def test_exp_log_on_supports_that_are_not_lower_sets():
    for coeffs in ({(2, 0): Fraction(3, 2)}, {(2, 0): 1, (0, 3): Fraction(-1, 5)}):
        s = DiffOpSeries(2, 7, coeffs)
        assert series_exp(s) == reference_exp(s)
        assert series_log(series_exp(s)) == s
    # exp(3/2 d1^2) lives on the even powers of d1 alone
    e = series_exp(DiffOpSeries(2, 7, {(2, 0): Fraction(3, 2)}))
    assert set(e.coeffs) == {(0, 0), (2, 0), (4, 0), (6, 0)}
    assert e.coeffs[(6, 0)] == Fraction(3, 2) ** 3 / 6


def test_exp_log_sparse_high_truncation_is_fast():
    # Only the 41 powers of d1 are sums of the support; a pass over all
    # C(43, 3) = 12341 monomials of degree <= 40 would be far slower.
    d1 = DiffOpSeries.derivative(3, 40, 1)
    start = time.perf_counter()
    shift = series_exp(d1)
    back = series_log(shift)
    elapsed = time.perf_counter() - start
    assert shift.coeffs == {(k, 0, 0): Fraction(1, math.factorial(k)) for k in range(41)}
    assert back == d1
    assert elapsed < 0.5


# The seeded table of the integer product and exp/log kernels: the zero
# series, a dense series on a lower set, two whose supports need not be lower
# sets, and one over the large coprime denominators 10^12 + 39 and 7.
SERIES_TABLE_TRUNCS = {1: range(6), 2: range(5), 3: range(4)}
BIG_DENOMINATORS = (10**12 + 39, 7, 7 * (10**12 + 39))


def table_series(rng, n, trunc):
    big = {
        alpha: Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**6), rng.choice(BIG_DENOMINATORS))
        for alpha in monomials_up_to_degree(n, trunc)
        if any(alpha) and rng.random() < 0.6
    }
    return [
        DiffOpSeries(n, trunc),
        random_series(rng, n, trunc, zero_unit=True),
        sparse_series(rng, n, trunc),
        sparse_series(rng, n, trunc),
        DiffOpSeries(n, trunc, big),
    ]


def test_products_match_the_fraction_loop():
    rng = random.Random(1009)
    for n, truncs in SERIES_TABLE_TRUNCS.items():
        zero = Poly.zero(n)
        for trunc in truncs:
            table = table_series(rng, n, trunc)
            table.append(random_series(rng, n, trunc))
            for a in table:
                for b in table:
                    ab = a.compose(b)
                    assert_canonical_series(ab)
                    assert ab == reference_compose(a, b)
                p, q = Poly(n, a.coeffs), Poly(n, table[-2].coeffs)
                for bound in range(-1, 2 * trunc + 1):
                    product = truncated_product(p, q, bound)
                    assert_canonical_poly(product)
                    assert product == reference_truncated_product(p, q, bound)
                assert p * q == reference_truncated_product(p, q, p.total_degree() + q.total_degree())
                # a zero factor has degree -inf, and so has the bound
                assert p * zero == zero * p == zero * zero == zero
                assert reference_truncated_product(p, zero, p.total_degree() + zero.total_degree()) == zero


def test_exp_log_match_convolution_reference():
    # Against the power sums and the `Fraction` recurrence, on the whole
    # series and within a lower set, where the result is the truncation.
    rng = random.Random(1013)
    for n, truncs in SERIES_TABLE_TRUNCS.items():
        origin = (0,) * n
        for trunc in truncs:
            lower = random_lower_set(rng, n).indices
            for s in table_series(rng, n, trunc):
                e = series_exp(s)
                assert_canonical_series(e)
                assert e.coeffs == {origin: 1, **reference_exp_coeffs(s.coeffs, trunc)}
                assert e == reference_exp(s)
                back = series_log(e)
                assert back.coeffs == reference_log_coeffs(e.coeffs, trunc)
                assert back == reference_log(e) == s
                # within a lower set: the truncation of the whole series to it
                inside = diffop._graded_solve(s._poly, trunc, lower, log=False)
                assert_canonical_poly(inside)
                assert inside.terms == {origin: 1, **reference_exp_coeffs(s.coeffs, trunc, lower)}
                assert inside.terms == {g: c for g, c in e.coeffs.items() if g in lower}
                logs = diffop._graded_solve(e._poly, trunc, lower, log=True)
                assert_canonical_poly(logs)
                assert logs.terms == reference_log_coeffs(e.coeffs, trunc, lower)
                assert logs.terms == {g: c for g, c in s.coeffs.items() if g in lower}
            for u in (
                DiffOpSeries.identity(n, trunc),
                random_series(rng, n, trunc, unit_one=True),
                sparse_series(rng, n, trunc, unit=1),
            ):
                log = series_log(u)
                assert_canonical_series(log)
                assert log.coeffs == reference_log_coeffs(u.coeffs, trunc)
                assert log == reference_log(u)


def test_exp_log_constant_term_guards():
    with pytest.raises(WrongConstantTerm):
        series_exp(DiffOpSeries.identity(1, 2))
    with pytest.raises(WrongConstantTerm):
        series_log(DiffOpSeries(1, 2))
    with pytest.raises(WrongConstantTerm):
        series_log(DiffOpSeries(1, 2, {(0,): 2}))


# --- automorphism criterion ------------------------------------------------------

def test_is_automorphism_literals():
    assert DiffOpSeries.identity(2, 3).is_automorphism()
    assert not DiffOpSeries.derivative(2, 3, 1).is_automorphism()


def test_automorphism_criterion_matches_rank_oracle():
    rng = random.Random(467)
    module = MonomialSubmodule(2, lower_set_closure([(2, 1)]))
    for _ in range(15):
        s = random_series(rng, 2, 4)
        full_rank = restrict(s, module).rank() == module.m
        assert s.is_automorphism() == full_rank


# --- restriction to monomial submodules -------------------------------------------

def test_monomial_submodule_validation():
    MonomialSubmodule(2, [(0, 0), (1, 0), (0, 1)])
    with pytest.raises(ValueError):
        MonomialSubmodule(2, [(1, 0)])  # origin missing
    with pytest.raises(ValueError):
        MonomialSubmodule(2, [(0, 0), (1, 1)])  # not downward closed


def test_monomial_submodule_accessors():
    module = MonomialSubmodule(2, lower_set_closure([(1, 1)]))
    assert module.m == 4
    assert module.max_degree == 2
    assert module.monomials_descending() == ((1, 1), (1, 0), (0, 1), (0, 0))
    polys = module.as_poly_submodule()
    assert polys.dim == 4
    assert MonomialSubmodule.from_json(module.to_json()) == module


def test_restrict_identity_series():
    module = MonomialSubmodule(2, lower_set_closure([(1, 1)]))
    bridge = restrict(DiffOpSeries.identity(2, 3), module)
    assert bridge.images == QMatrix.identity(4)


def test_restrict_ignores_coefficients_outside_the_set():
    module = MonomialSubmodule(2, [(0, 0), (1, 0)])
    s = DiffOpSeries(2, 3, {(0, 0): 1, (0, 2): 7, (2, 1): -2})
    bridge = restrict(s, module)
    assert bridge.images == QMatrix.identity(2)


def test_restrict_is_multiplicative():
    rng = random.Random(479)
    module = MonomialSubmodule(2, lower_set_closure([(2, 0), (0, 1)]))
    for _ in range(10):
        a = random_series(rng, 2, 3)
        b = random_series(rng, 2, 3)
        lhs = restrict(a.compose(b), module).images
        rhs = restrict(a, module).images * restrict(b, module).images
        assert lhs == rhs


def test_restrict_truncation_guard():
    module = MonomialSubmodule(1, [(0,), (1,), (2,)])
    with pytest.raises(TruncationTooLow):
        restrict(DiffOpSeries.identity(1, 1), module)


def random_lower_set(rng, n):
    top = 4 if n == 1 else 2
    gens = [tuple(rng.randint(0, top) for _ in range(n)) for _ in range(rng.randint(1, 3))]
    return MonomialSubmodule(n, lower_set_closure(gens))


def test_restrict_matches_apply_definition():
    # Reference: apply the series to each basis monomial and read off the
    # coordinates of the result in the submodule.
    rng = random.Random(521)
    for n in (1, 2, 3):
        for _ in range(12):
            module = random_lower_set(rng, n)
            s = random_series(rng, n, module.max_degree + rng.randint(0, 2))
            space = module.as_poly_submodule()
            columns = [space.coordinates_of(s.apply(p)) for p in space.basis]
            assert restrict(s, module).images == QMatrix.from_columns(columns)


# --- isomorphism extension ----------------------------------------------------------

def identity_map(sub):
    return ModuleMap(sub, sub, QMatrix.identity(sub.dim))


def test_extend_step_from_constants():
    base = submodule_from_polys(1, [])
    src, tgt, phi = extend_iso_step(base, base, identity_map(base))
    x1 = Poly.variable(1, 1)
    assert src == submodule_from_polys(1, [x1])
    assert tgt == src
    assert phi.image_poly(0) == x1  # basis descending: [x1, 1]
    assert phi.is_isomorphism()


def test_extend_step_prefers_low_degree():
    # span{1, x1} inside two variables: x2 beats x1^2
    sub = submodule_from_polys(2, [Poly.variable(2, 1)])
    src, tgt, phi = extend_iso_step(sub, sub, identity_map(sub))
    assert src.contains(Poly.variable(2, 2))
    assert tgt == src
    assert phi.is_isomorphism()


def test_extend_step_identity_stays_identity():
    rng = random.Random(487)
    for _ in range(8):
        support = lower_set_closure(
            [tuple(rng.randint(0, 2) for _ in range(2))]
        )
        sub = MonomialSubmodule(2, support).as_poly_submodule()
        src, tgt, phi = extend_iso_step(sub, sub, identity_map(sub))
        assert src == tgt
        assert phi.images == QMatrix.identity(src.dim)


def test_extend_step_nontrivial_map():
    one = Poly.one(2)
    diag = Poly(2, {(1, 0): 1, (0, 1): 1})
    source = PolySubmodule(2, [diag, one])
    target_poly = diag.scale(3) + one
    target = PolySubmodule(2, [target_poly, one])
    # phi(1) = 3, phi(x1+x2) = 3(x1+x2) + 1: an intertwining bijection
    images = QMatrix.from_columns(
        [
            target.coordinates_of(target_poly),
            target.coordinates_of(one.scale(3)),
        ],
        rows=2,
    )
    phi = ModuleMap(source, target, images)
    assert phi.is_isomorphism()
    src, tgt, extended = extend_iso_step(source, target, phi)
    assert src.dim == 3 and tgt.dim == 3
    assert extended.is_isomorphism()
    # the new pair is (x2, 3x2) and the old action is untouched
    x2 = Poly.variable(2, 2)
    coords = src.coordinates_of(x2)
    image = tgt.from_coordinates(extended.apply_coords(coords))
    assert image == x2.scale(3)
    old = src.coordinates_of(diag)
    assert tgt.from_coordinates(extended.apply_coords(old)) == target_poly


def test_extend_step_grows_by_exactly_one():
    rng = random.Random(491)
    sub = submodule_from_polys(2, [random_poly(rng, 2, 2)])
    phi = identity_map(sub)
    src, tgt = sub, sub
    for _ in range(4):
        nsrc, ntgt, phi = extend_iso_step(src, tgt, phi)
        assert nsrc.dim == src.dim + 1
        assert ntgt.dim == tgt.dim + 1
        assert phi.is_isomorphism()
        src, tgt = nsrc, ntgt


def test_extend_step_extends_series_automorphisms():
    # phi is the restriction of a random automorphism series; the extended
    # map must agree with phi on the old source and be an isomorphism.
    rng = random.Random(523)
    for n in (1, 2, 3):
        for _ in range(4):
            module = random_lower_set(rng, n)
            s = random_series(rng, n, module.max_degree)
            if not s.is_automorphism():
                continue
            phi = restrict(s, module)
            space = phi.source
            src, tgt, extended = extend_iso_step(space, space, phi)
            assert src.dim == tgt.dim == space.dim + 1
            assert extended.is_isomorphism()
            for j, p in enumerate(space.basis):
                image = tgt.from_coordinates(extended.apply_coords(src.coordinates_of(p)))
                assert_canonical_poly(image)
                assert image == phi.image_poly(j)
            for p in src.basis + tgt.basis:
                assert_canonical_poly(p)


def test_extend_step_invariant_survives_optimize_flag():
    # The invariants are explicit raises, not asserts, so `python -O` keeps
    # them.  A potential inside the target is patched in to trip one, in
    # one step and in a whole extension.
    code = "\n".join(
        [
            "import nilmod.diffop as diffop",
            "from nilmod.diffop import MonomialSubmodule, extend_iso, extend_iso_step",
            "from nilmod.exactalg import QMatrix",
            "from nilmod.polysub import ModuleMap, submodule_from_polys",
            "from nilmod.multipoly import Poly",
            "print(__debug__)",
            "diffop.potential = lambda gs, n: Poly.one(n)",
            "base = submodule_from_polys(1, [])",
            "try:",
            "    extend_iso_step(base, base, ModuleMap(base, base, QMatrix.identity(1)))",
            "except AssertionError as exc:",
            "    print(exc)",
            "goal = MonomialSubmodule(1, [(0,), (1,), (2,)])",
            "try:",
            "    extend_iso(base, base, ModuleMap(base, base, QMatrix.identity(1)), goal)",
            "except AssertionError as exc:",
            "    print(exc)",
        ]
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False"] + ["the extension image must be new"] * 2


def test_extend_step_within_exhausted():
    sub = submodule_from_polys(1, [Poly.variable(1, 1)])
    goal = MonomialSubmodule(1, [(0,), (1,)])
    with pytest.raises(NothingToExtend):
        extend_iso_step(sub, sub, identity_map(sub), within=goal)


def test_extend_step_rejects_bad_maps():
    sub = submodule_from_polys(1, [Poly.variable(1, 1)])
    collapse = ModuleMap(sub, sub, QMatrix([[0, 0], [0, 0]]))
    with pytest.raises(IncompatibleMap):
        extend_iso_step(sub, sub, collapse)
    # invertible but not intertwining
    swap = ModuleMap(sub, sub, QMatrix([[0, 1], [1, 0]]))
    with pytest.raises(IncompatibleMap):
        extend_iso_step(sub, sub, swap)


def seeded_isomorphisms(rng, n):
    """Isomorphisms between polynomial submodules in n variables:
    identities, restricted automorphism series, a series carrying a
    submodule onto another, and spans with gaps such as span{1, x1 + x2},
    where adjoining x2 also covers x1."""
    x = [Poly.variable(n, i) for i in range(1, n + 1)]
    one = Poly.one(n)
    cases = []
    for _ in range(2):
        sub = submodule_from_polys(n, [random_poly(rng, n, 3 if n < 3 else 2)])
        cases.append(identity_map(sub))
    while True:
        module = random_lower_set(rng, n)
        s = random_series(rng, n, module.max_degree)
        if s.is_automorphism():
            cases.append(restrict(s, module))
            break
    source = submodule_from_polys(n, [random_poly(rng, n, 2)])
    top = sum(source.monomial_list[0])
    sigma = series_exp(sparse_series(rng, n, top)).scale(random_fraction(rng))
    target = PolySubmodule(n, [sigma.apply(q) for q in source.basis])
    images = [target.coordinates_of(sigma.apply(q)) for q in source.basis]
    cases.append(ModuleMap(source, target, QMatrix.from_columns(images, rows=target.dim)))
    line = x[0] + x[-1].scale(-2)
    gaps = [[x[0]]] if n == 1 else [[x[0] + x[1]], [line, line * line]]
    for gens in gaps:
        cases.append(identity_map(PolySubmodule(n, [one] + gens)))
    return cases


def extension_json(phi):
    return json.dumps(
        [
            phi.source.to_json(),
            phi.target.to_json(),
            [phi.image_poly(j).to_json() for j in range(phi.source.dim)],
        ]
    )


def test_extension_matches_the_two_search_reference():
    rng = random.Random(613)
    for n in (1, 2, 3):
        for phi in seeded_isomorphisms(rng, n):
            assert phi.is_isomorphism()
            src, tgt = phi.source, phi.target
            ours = extend_iso_step(src, tgt, phi)
            assert extension_json(ours[2]) == extension_json(reference_extend_iso_step(phi))
            assert ours[:2] == (ours[2].source, ours[2].target)
            for _ in range(3):
                within = random_lower_set(rng, n)
                try:
                    expected = extension_json(reference_extend_iso_step(phi, within))
                except NothingToExtend:
                    with pytest.raises(NothingToExtend):
                        extend_iso_step(src, tgt, phi, within=within)
                    assert extend_iso(src, tgt, phi, within) is phi
                    continue
                assert extension_json(extend_iso_step(src, tgt, phi, within=within)[2]) == expected
                assert extension_json(extend_iso(src, tgt, phi, within)) == extension_json(
                    reference_extend_iso(phi, within)
                )


def fraction_extend(phi, candidates, limit):
    """The extension as the library computed it on `Fraction` scalars:
    rows and images scaled by `Fraction`s, the new source eliminated
    again from the old basis and the monomials, and the map from
    `coordinates_of` columns through `QMatrix.from_columns`."""
    source, target = phi.source, phi.target
    n = source.n
    leads = [source.monomial_list[c] for c in source.coords._pivots]
    rows = dict(zip(leads, source.basis))
    images = dict(zip(leads, (target.from_coordinates(column) for column in zip(*phi.images.entries))))
    monomials, news = [], []

    def inside(alpha):
        return alpha in rows and len(rows[alpha].terms) == 1

    for kappa in sorted(candidates, key=grlex_key):
        if len(monomials) == limit:
            break
        if inside(kappa):
            continue
        gs = []
        for i, k in enumerate(kappa):
            beta = kappa[:i] + (k - 1,) + kappa[i + 1 :]
            if k and not inside(beta):
                raise AssertionError("phi is only applied inside the source")
            gs.append(images[beta].scale(k) if k else Poly.zero(n))
        g = potential(gs, n)
        monomials.append(Poly.monomial(n, kappa))
        news.append(g)
        new, image = monomials[-1], g
        if kappa in rows:
            new, image = new - rows[kappa], image - images[kappa]
        lead = max(new.terms, key=grlex_key)
        c = 1 / new.terms[lead]
        new, image = new.scale(c), image.scale(c)
        for pi, row in rows.items():
            f = row.terms.get(lead)
            if f:
                rows[pi], images[pi] = row - new.scale(f), images[pi] - image.scale(f)
        rows[lead], images[lead] = new, image
    if not monomials:
        return phi
    new_source = PolySubmodule._trusted(n, *_poly_rows(list(source.basis) + monomials))
    new_target = PolySubmodule._trusted(n, *_poly_rows(list(target.basis) + news))
    if new_source.dim != len(rows):
        raise AssertionError("one source dimension per row")
    if new_target.dim != len(rows):
        raise AssertionError("the extension image must be new")
    columns = [new_target.coordinates_of(images[new_source.monomial_list[c]]) for c in new_source.coords._pivots]
    if None in columns:
        raise AssertionError("every image lies in the new target")
    return ModuleMap(new_source, new_target, QMatrix.from_columns(columns))


def fraction_extend_iso_step(source, target, phi, within=None):
    diffop._check_iso(source, target, phi)
    top = sum(source.monomial_list[0]) + 1
    extended = fraction_extend(phi, monomials_up_to_degree(source.n, top) if within is None else within.indices, 1)
    if extended is phi:
        raise NothingToExtend("the target monomials are already covered")
    return extended.source, extended.target, extended


def fraction_extend_iso(source, target, phi, goal):
    diffop._check_iso(source, target, phi)
    return fraction_extend(phi, goal.indices, None)


def extension_outcome(call):
    """The map a call returns, as its source, target and matrix, or the
    type and message of what it raises."""
    try:
        phi = call()
    except (NilmodError, AssertionError) as exc:
        return type(exc), str(exc)
    phi = phi[2] if isinstance(phi, tuple) else phi
    return phi.source, phi.target, phi.images


def test_extension_matches_the_fraction_extension():
    rng = random.Random(619)
    kinds = []
    for n in (1, 2, 3):
        for phi in seeded_isomorphisms(rng, n):
            src, tgt = phi.source, phi.target
            got = extension_outcome(lambda: extend_iso_step(src, tgt, phi))
            assert got == extension_outcome(lambda: fraction_extend_iso_step(src, tgt, phi))
            kinds.append(got[0])
            for _ in range(3):
                within = random_lower_set(rng, n)
                got = extension_outcome(lambda: extend_iso_step(src, tgt, phi, within))
                assert got == extension_outcome(lambda: fraction_extend_iso_step(src, tgt, phi, within))
                kinds.append(got[0])
                got = extension_outcome(lambda: extend_iso(src, tgt, phi, within))
                assert got == extension_outcome(lambda: fraction_extend_iso(src, tgt, phi, within))
                for limit in (1, 2, None):
                    got = extension_outcome(lambda: diffop._extend(phi, within.indices, limit))
                    assert got == extension_outcome(lambda: fraction_extend(phi, within.indices, limit))
    assert NothingToExtend in kinds and kinds.count(NothingToExtend) < len(kinds) // 2, kinds


def test_extension_of_a_map_that_does_not_intertwine_matches_the_fraction_extension():
    # No public entry takes such a map (`_check_iso`); `_extend` then stops
    # where `potential` refuses the images of a new monomial's partials.
    rng = random.Random(621)
    refused = 0
    for n in (1, 2, 3):
        for phi in seeded_isomorphisms(rng, n):
            d = phi.source.dim
            order = rng.sample(range(d), d)
            shuffle = QMatrix([[int(i == order[j]) for j in range(d)] for i in range(d)])
            wrong = ModuleMap(phi.source, phi.target, phi.images * shuffle.scale(rng.choice([1, 2, Fraction(-1, 3)])))
            within = random_lower_set(rng, n)
            for limit in (1, None):
                got = extension_outcome(lambda: diffop._extend(wrong, within.indices, limit))
                assert got == extension_outcome(lambda: fraction_extend(wrong, within.indices, limit))
                refused += got[0] is Incompatible
    assert refused > 0
    # x1 and x2 swapped: the partials of x2^2 map to 0 and 2 x1, whose
    # mixed partials differ.
    sub = MonomialSubmodule(2, [(0, 0), (1, 0), (0, 1)]).as_poly_submodule()
    swap = ModuleMap(sub, sub, QMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]]))
    goal = MonomialSubmodule(2, lower_set_closure([(0, 2)]))
    for limit in (1, None):
        got = extension_outcome(lambda: diffop._extend(swap, goal.indices, limit))
        assert got == extension_outcome(lambda: fraction_extend(swap, goal.indices, limit))
        assert got == (Incompatible, "incompatible pair (1, 2): mixed partials differ")


def test_search_stops_one_degree_above_the_support():
    # span{1, x1 + x2}: x2 is the least missing monomial; once it is in,
    # x1 is too, and the next one missing has degree 2.
    one, x1, x2 = Poly.one(2), Poly.variable(2, 1), Poly.variable(2, 2)
    sub = PolySubmodule(2, [one, x1 + x2])
    grown = PolySubmodule(2, [one, x1 + x2, x2])
    assert extend_iso_step(sub, sub, identity_map(sub))[0] == grown
    assert extend_iso_step(grown, grown, identity_map(grown))[0] == PolySubmodule(2, [one, x1, x2, x2 * x2])
    goal = MonomialSubmodule(2, [(0, 0), (1, 0), (0, 1)])
    with pytest.raises(NothingToExtend):
        extend_iso_step(grown, grown, identity_map(grown), within=goal)
    extended = extend_iso(sub, sub, identity_map(sub), goal)
    assert extended.source == grown


def test_extend_iso_builds_each_side_once_and_inverts_no_step(monkeypatch):
    # Three steps build one source and one target span, each on all the
    # rows, and nothing is inverted: the check of the caller's map reads
    # its rank.  Both sides are eliminated once, the source's rows only
    # made primitive.
    sub = submodule_from_polys(2, [Poly(2, {(1, 0): 1, (0, 1): -2})])
    goal = MonomialSubmodule(2, lower_set_closure([(2, 0), (1, 1)]))
    builds, inverses = [], []
    real_trusted, real_inverse = PolySubmodule._trusted, QMatrix.inverse
    monkeypatch.setattr(
        PolySubmodule, "_trusted", classmethod(lambda cls, *args: builds.append(len(args[2])) or real_trusted(*args))
    )
    monkeypatch.setattr(QMatrix, "inverse", lambda self: inverses.append(self.rows) or real_inverse(self))
    extended = extend_iso(sub, sub, identity_map(sub), goal)
    steps = extended.source.dim - sub.dim
    assert steps == 3
    assert builds == [sub.dim + steps] * 2
    assert inverses == []


def test_every_extended_span_comes_from_the_span_core(monkeypatch):
    spans = []
    real = PolySubmodule._span
    monkeypatch.setattr(PolySubmodule, "_span", lambda self, *args: spans.append(self) or real(self, *args))
    rng = random.Random(44)
    for n in (1, 2, 3):
        for phi in seeded_isomorphisms(rng, n):
            src, tgt = phi.source, phi.target
            goal = MonomialSubmodule(n, monomials_up_to_degree(n, sum(src.monomial_list[0]) + 1))
            extended = extend_iso(src, tgt, phi, goal)
            step_source, step_target, _ = extend_iso_step(src, tgt, phi)
            for out in (extended.source, extended.target, step_source, step_target):
                assert any(out is built for built in spans)


def test_extension_refuses_a_source_short_of_its_rows(monkeypatch):
    # The new source spans one dimension per echelon row; a build that
    # loses a row is refused before the map's shape can disagree.
    sub = submodule_from_polys(2, [Poly(2, {(1, 0): 1, (0, 1): -2})])
    goal = MonomialSubmodule(2, lower_set_closure([(2, 0), (1, 1)]))
    phi = identity_map(sub)
    real = PolySubmodule._trusted
    for call in (lambda: extend_iso(sub, sub, phi, goal), lambda: extend_iso_step(sub, sub, phi)):
        calls = []

        def short(cls, n, monomial_list, rows):
            # The source is built first; its first row is not the constant.
            calls.append(rows)
            return real(n, monomial_list, rows[1:] if len(calls) == 1 else rows)

        monkeypatch.setattr(PolySubmodule, "_trusted", classmethod(short))
        with pytest.raises(AssertionError, match="^one source dimension per row$"):
            call()
        monkeypatch.setattr(PolySubmodule, "_trusted", real)
        assert len(calls) == 1 and any(calls[0][0][:-1])


def test_extend_iso_checks_the_callers_map_once(monkeypatch):
    calls = []
    real = ModuleMap.is_isomorphism
    monkeypatch.setattr(
        ModuleMap, "is_isomorphism", lambda self: calls.append(self) or real(self)
    )
    sub = submodule_from_polys(2, [Poly(2, {(1, 0): 1, (0, 1): -2})])
    goal = MonomialSubmodule(2, lower_set_closure([(2, 0), (1, 1)]))
    phi = identity_map(sub)
    extended = extend_iso(sub, sub, phi, goal)
    assert extended.source.dim - sub.dim == 3
    assert calls == [phi]


def test_extend_iso_noop_when_goal_covered():
    sub = submodule_from_polys(2, [Poly(2, {(1, 1): 1})])
    goal = MonomialSubmodule(2, lower_set_closure([(1, 1)]))
    phi = identity_map(sub)
    assert extend_iso(sub, sub, phi, goal) is phi


def test_extend_iso_rescaling_example():
    one = Poly.one(2)
    diag = Poly(2, {(1, 0): 1, (0, 1): 1})
    sub = PolySubmodule(2, [diag, one])
    images = QMatrix.from_columns(
        [sub.coordinates_of(diag.scale(2)), sub.coordinates_of(one.scale(2))],
        rows=2,
    )
    phi = ModuleMap(sub, sub, images)
    goal = MonomialSubmodule(2, [(0, 0), (1, 0), (0, 1)])
    extended = extend_iso(sub, sub, phi, goal)
    assert extended.is_isomorphism()
    src = extended.source
    for alpha in goal.indices:
        assert src.contains(Poly.monomial(2, alpha))
    # restricting back to the original submodule reproduces phi exactly
    tgt = extended.target
    for p, expected in [(diag, diag.scale(2)), (one, one.scale(2))]:
        coords = src.coordinates_of(p)
        assert tgt.from_coordinates(extended.apply_coords(coords)) == expected


def test_extend_iso_reaches_larger_goals():
    sub = submodule_from_polys(2, [Poly(2, {(1, 0): 1, (0, 1): -2})])
    goal = MonomialSubmodule(2, lower_set_closure([(2, 0), (1, 1)]))
    extended = extend_iso(sub, sub, identity_map(sub), goal)
    assert extended.is_isomorphism()
    for alpha in goal.indices:
        assert extended.source.contains(Poly.monomial(2, alpha))


def test_extend_iso_refuses_a_goal_in_other_variables(monkeypatch):
    # The variable counts are compared before the map is even checked, so
    # the error is the mismatch, not a failure deep inside the extension.
    sub = submodule_from_polys(2, [Poly(2, {(1, 0): 1, (0, 1): -2})])
    phi = identity_map(sub)
    checks = []
    real = ModuleMap.is_isomorphism
    monkeypatch.setattr(ModuleMap, "is_isomorphism", lambda self: checks.append(self) or real(self))
    for n in (1, 3):
        goal = MonomialSubmodule(n, lower_set_closure([(1,) * n]))
        with pytest.raises(ValueError, match="^variable count mismatch$"):
            extend_iso(sub, sub, phi, goal)
        with pytest.raises(ValueError, match="^variable count mismatch$"):
            extend_iso_step(sub, sub, phi, within=goal)
    assert checks == []


# --- automorphism groups --------------------------------------------------------------

def test_aut_group_point_module():
    group = aut_structure(MonomialSubmodule(1, [(0,)]))
    assert group.unit_count == 1
    assert group.additive_count == 0
    five = AutDescriptor(5)
    assert group.matrix_of(five) == QMatrix([[5]])
    assert group.compose(five, five).unit == 25
    assert group.inverse(five).unit == Fraction(1, 5)


def test_aut_descriptor_validation():
    with pytest.raises(ValueError):
        AutDescriptor(0)
    group = aut_structure(MonomialSubmodule(2, [(0, 0), (1, 0)]))
    with pytest.raises(ValueError):
        group.parametrize(AutDescriptor(1, {(0, 1): 1}))


def test_aut_group_two_variable_plane():
    module = MonomialSubmodule(2, [(0, 0), (1, 0), (0, 1)])
    group = aut_structure(module)
    assert group.additive_count == 2
    a = AutDescriptor(2, {(1, 0): Fraction(1, 2)})
    b = AutDescriptor(3, {(0, 1): -1})
    ab = group.compose(a, b)
    assert ab.unit == 6
    assert ab.additive == {(1, 0): Fraction(1, 2), (0, 1): Fraction(-1)}
    # matrix oracle: descriptors compose exactly like their matrices
    assert group.matrix_of(ab) == group.matrix_of(a) * group.matrix_of(b)


def test_aut_group_is_abelian_on_matrices():
    rng = random.Random(499)
    module = MonomialSubmodule(2, lower_set_closure([(1, 1)]))
    group = aut_structure(module)

    def rand_desc():
        unit = Fraction(0)
        while unit == 0:
            unit = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        additive = {
            alpha: Fraction(rng.randint(-3, 3))
            for alpha in module.indices
            if any(alpha) and rng.random() < 0.7
        }
        return AutDescriptor(unit, additive)

    for _ in range(10):
        a, b = rand_desc(), rand_desc()
        assert group.compose(a, b) == group.compose(b, a)
        ma, mb = group.matrix_of(a), group.matrix_of(b)
        assert ma * mb == mb * ma
        assert ma * mb == group.matrix_of(group.compose(a, b))
        # inverses really invert
        assert group.matrix_of(group.inverse(a)) == ma.inverse()


def test_aut_parametrize_descriptor_round_trip():
    rng = random.Random(503)
    module = MonomialSubmodule(2, lower_set_closure([(2, 0), (0, 1)]))
    group = aut_structure(module)
    for _ in range(10):
        unit = Fraction(0)
        while unit == 0:
            unit = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        additive = {
            alpha: Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            for alpha in module.indices
            if any(alpha) and rng.random() < 0.6
        }
        desc = AutDescriptor(unit, additive)
        back = group.descriptor_of(group.parametrize(desc))
        assert back == desc


def test_aut_descriptor_of_rejects_non_restrictions():
    module = MonomialSubmodule(2, [(0, 0), (1, 0), (0, 1)])
    group = aut_structure(module)
    # invertible, but does not commute with the derivative action
    swap = QMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    with pytest.raises(ValueError):
        group.descriptor_of(swap)
    zero_unit = QMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    with pytest.raises(ValueError):
        group.descriptor_of(zero_unit)


def test_aut_group_matches_series_reference(monkeypatch):
    # Every exp of `matrix_of` and log of `descriptor_of` is canonical.
    solved = []
    solve = diffop._graded_solve
    monkeypatch.setattr(diffop, "_graded_solve", lambda *args, **kwargs: solved.append(solve(*args, **kwargs)) or solved[-1])
    rng = random.Random(613)
    for n in (1, 2, 3):
        modules = [MonomialSubmodule(n, [(0,) * n])]
        modules += [random_lower_set(rng, n) for _ in range(6)]
        for module in modules:
            group = AutGroup(module)
            inner = [alpha for alpha in module.indices if any(alpha)]
            for density in (0.0, 0.3, 1.0):
                desc = AutDescriptor(
                    random_fraction(rng),
                    {alpha: random_fraction(rng) for alpha in inner if rng.random() < density},
                )
                matrix = group.matrix_of(desc)
                assert matrix == reference_aut_matrix(module, desc)
                mapping = group.parametrize(desc)
                assert mapping.images == matrix
                assert mapping.source == mapping.target == module.as_poly_submodule()
                assert group.descriptor_of(mapping) == desc
                assert group.descriptor_of(matrix) == reference_descriptor_of(module, matrix)
                other = AutDescriptor(
                    random_fraction(rng),
                    {alpha: random_fraction(rng) for alpha in inner if rng.random() < density},
                )
                for b in (other, group.inverse(desc), desc):
                    assert group.compose(desc, b) == reference_aut_compose(n, desc, b)
                for bent in refused_perturbations(rng, module, matrix):
                    with pytest.raises(ValueError) as ours:
                        group.descriptor_of(bent)
                    with pytest.raises(ValueError) as theirs:
                        reference_descriptor_of(module, bent)
                    assert str(ours.value) == str(theirs.value)
    assert len(solved) > 100
    for series in solved:
        assert_canonical_poly(series)


def reference_aut_compose(n, a, b):
    """The group law through `Poly` sums and a validated descriptor."""
    return AutDescriptor(a.unit * b.unit, (Poly(n, a.additive) + Poly(n, b.additive)).terms)


def refused_perturbations(rng, module, matrix):
    """Matrices no series restricts to: a perturbed entry above the
    diagonal; a nonzero entry below it at beta, alpha with beta not <=
    alpha (none when n = 1); one entry of a lambda-diagonal changed outside
    the origin row; and a zero unit."""
    order = module.monomials_descending()
    m = len(order)

    def bent(i, j, value):
        entries = [list(row) for row in matrix.entries]
        entries[i][j] = value
        return QMatrix(entries)

    def below(beta, alpha):
        return all(b <= a for a, b in zip(alpha, beta))

    out = [bent(m - 1, m - 1, 0)]
    if m > 1:
        out.append(bent(0, m - 1, matrix.entries[0][m - 1] + 1))
        off = [(i, j) for j in range(m) for i in range(j + 1, m) if not below(order[i], order[j])]
        if off:
            out.append(bent(*rng.choice(off), random_fraction(rng)))
        on = [(i, j) for j in range(m) for i in range(j, m - 1) if below(order[i], order[j])]
        i, j = rng.choice(on)
        out.append(bent(i, j, matrix.entries[i][j] + 1))
    return out


def test_restrict_builds_the_span_once(monkeypatch):
    built = []
    real = PolySubmodule._trusted
    monkeypatch.setattr(PolySubmodule, "_trusted", classmethod(lambda cls, *args: built.append(args) or real(*args)))
    module = MonomialSubmodule(2, lower_set_closure([(2, 1), (0, 3)]))
    first = restrict(DiffOpSeries.identity(2, 3), module)
    second = restrict(series_exp(DiffOpSeries.derivative(2, 3, 1)), module)
    assert len(built) == 1
    assert first.source is first.target is second.source is module.as_poly_submodule()
    assert AutGroup(module).space is first.source
    assert len(built) == 1


def test_aut_group_builds_no_space_for_descriptor_ops():
    # `aut` and the descriptor group law never need the polynomial span.
    group = AutGroup(MonomialSubmodule(3, lower_set_closure([(2, 2, 2)])))
    a = AutDescriptor(2, {(1, 0, 0): 1})
    assert group.inverse(group.compose(a, group.identity())).unit == Fraction(1, 2)
    assert group.descriptor_of(group.matrix_of(a)) == a
    assert group.module._span is None
    assert group.parametrize(a).source.dim == 27
    assert group.module._span is group.space


def test_aut_group_inverse_validates_nothing_again(monkeypatch):
    # `inverse` negates a checked descriptor and builds the result as
    # `compose` does, without the validating constructor.
    rng = random.Random(617)
    module = MonomialSubmodule(2, lower_set_closure([(2, 1)]))
    group = AutGroup(module)
    additive = {a: Fraction(rng.randint(1, 4) * rng.choice([-1, 1]), rng.randint(1, 3)) for a in module.indices if any(a)}
    descs = [AutDescriptor(Fraction(-3, 2), additive), AutDescriptor(5), group.identity()]
    built = []
    init = AutDescriptor.__init__
    monkeypatch.setattr(AutDescriptor, "__init__", lambda self, *a: built.append(a) or init(self, *a))
    inverses = [group.inverse(d) for d in descs]
    assert built == []
    monkeypatch.undo()
    for desc, inverse in zip(descs, inverses):
        assert inverse == AutDescriptor(1 / desc.unit, {k: -v for k, v in desc.additive.items()})
        assert group.compose(desc, inverse) == group.identity()
        assert group.matrix_of(inverse) == group.matrix_of(desc).inverse()


def test_lower_set_spans_and_descriptor_matrices_check_nothing_again(monkeypatch):
    # A lower set's span is the whole space over its monomials, built with
    # no elimination, and `matrix_of` reads its checked descriptor without
    # building a validated polynomial; both equal the checked constructions.
    import nilmod.exactalg

    rng = random.Random(41)
    cases = []
    for n, top in [(1, 9), (2, 5), (3, 3), (3, 1)]:
        corners = [tuple(rng.randint(0, top) for _ in range(n)) for _ in range(2)]
        module = MonomialSubmodule(n, lower_set_closure(corners))
        additive = {a: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for a in module.indices if any(a)}
        desc = AutDescriptor(Fraction(-3, 2), additive)
        span = PolySubmodule(n, [Poly.monomial(n, a) for a in module.indices])
        series = diffop._graded_solve(Poly(n, desc.additive), module.max_degree, module.indices, log=False)
        cases.append((module, desc, span, module._restriction_matrix(series.scale(desc.unit))))
    calls = []
    real = nilmod.exactalg._echelon
    monkeypatch.setattr(nilmod.exactalg, "_echelon", lambda *a: calls.append(a) or real(*a))
    init = Poly.__init__
    monkeypatch.setattr(Poly, "__init__", lambda self, *a: calls.append(a) or init(self, *a))
    for module, desc, span, matrix in cases:
        assert module.as_poly_submodule() == span
        assert AutGroup(module).matrix_of(desc) == matrix
    assert calls == []


def test_every_plane_automorphism_is_a_series_restriction():
    # the commutant of the derivative action on span{1, x1, x2} has
    # dimension 3 = m, so invertible intertwiners all carry descriptors
    module = MonomialSubmodule(2, [(0, 0), (1, 0), (0, 1)])
    sub = module.as_poly_submodule()
    assert reference_endomorphism_dim(sub) == 3
    assert reference_restricted_series_dim(sub) == 3


# --- End(M) = K[d]/Ann(M) -------------------------------------------------------------
# A submodule contains 1 and is closed under d, so its socle is the
# constants and M is the Matlis dual of A = K[d]/Ann(M).  Then End(M) = A:
# every intertwiner is a restricted series, and dim End(M) = dim M.  The
# library no longer computes either side; these check the identity on the
# reference systems.

def test_endomorphism_gap_on_diagonal_line():
    sub = submodule_from_polys(2, [Poly(2, {(1, 0): 1, (0, 1): 1})])
    assert sub.dim == 2
    assert reference_endomorphism_dim(sub) == 2
    assert reference_restricted_series_dim(sub) == 2


def test_endomorphism_gap_small_search_sees_no_gap():
    rng = random.Random(509)
    for _ in range(8):
        sub = submodule_from_polys(2, [random_poly(rng, 2, 2)])
        assert reference_endomorphism_dim(sub) == reference_restricted_series_dim(sub) == sub.dim


def test_endomorphism_space_dimension_is_the_module_dimension():
    rng = random.Random(619)
    # dimensions 1 to 13; the reference system has d^2 unknowns
    top = {1: 13, 2: 4, 3: 3}
    for n in (1, 2, 3):
        for count in (1, 2):
            for _ in range(5):
                gens = [random_poly(rng, n, rng.randint(1, top[n])) for _ in range(count)]
                sub = submodule_from_polys(n, gens)
                assert reference_endomorphism_dim(sub) == sub.dim


def test_restriction_kernel_dimensions():
    module = MonomialSubmodule(2, [(0, 0), (1, 0), (0, 1)])
    assert restriction_kernel_dim(module, 1) == 0
    assert restriction_kernel_dim(module, 3) == 7
    with pytest.raises(TruncationTooLow):
        restriction_kernel_dim(module, 0)


def test_restriction_kernel_dim_matches_rank_reference():
    # Reference: flatten the restriction of every d^alpha, |alpha| <= trunc,
    # and subtract the rank of their span from the number of operators.
    rng = random.Random(541)
    for n in (1, 2, 3):
        for _ in range(4):
            module = random_lower_set(rng, n)
            space = module.as_poly_submodule()
            for trunc in (module.max_degree, module.max_degree + 1):
                alphas = list(monomials_up_to_degree(n, trunc))
                flat = []
                for alpha in alphas:
                    columns = [space.coordinates_of(partial_multi(p, alpha)) for p in space.basis]
                    mat = QMatrix.from_columns(columns)
                    flat.append([x for row in mat.entries for x in row])
                expected = len(alphas) - QMatrix(flat, cols=module.m**2).rank()
                assert restriction_kernel_dim(module, trunc) == expected


def test_restriction_kernel_dim_huge_truncation_is_immediate():
    module = MonomialSubmodule(3, lower_set_closure([(1, 1, 1)]))
    start = time.perf_counter()
    assert restriction_kernel_dim(module, 10**6) == math.comb(10**6 + 3, 3) - 8
    assert time.perf_counter() - start < 1.0
