"""Tests for truncated differential-operator series and everything
built on them: coefficient extraction, composition, exp/log, submodule
restriction, isomorphism extension, and automorphism groups.

Oracles: the falling-factorial formula for d^alpha on monomials,
operator composition checked pointwise, matrix products for the group
structure, and the library's earlier loops for sums, composition, exp,
log, application, the automorphism group and the endomorphism space,
kept below as reference implementations.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

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
    _extend_iso_step,
    _least_missing_monomial,
)
from nilmod.errors import (
    IncompatibleMap,
    NotAnEndomorphism,
    NothingToExtend,
    TruncationTooLow,
    WrongConstantTerm,
)
from nilmod.exactalg import QMatrix
from nilmod.modcore import ModuleMap, PolySubmodule, submodule_from_polys
from nilmod.multipoly import (
    Poly,
    grlex_key,
    lower_set_closure,
    monomials_of_degree,
    monomials_up_to_degree,
    multi_factorial,
)


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
# The library's earlier loops, kept as oracles for the closed forms: sums and
# composition as sparse loops of their own, exp and log as sums of k-fold
# compositions, application through chains of single partial derivatives,
# the automorphism group through full truncated series, series_exp/series_log
# of those, and `restrict`, the endomorphism space as the d^2-unknown
# intertwiner system, and the extension's two searches for the least missing
# monomial with its loop that rescans the goal before each step.


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


def reference_compose(a, b):
    if a.n != b.n:
        raise ValueError("variable count mismatch")
    trunc = min(a.trunc, b.trunc)
    out = {}
    for k, ca in a.coeffs.items():
        for m, cb in b.coeffs.items():
            g = tuple(x + y for x, y in zip(k, m))
            if sum(g) > trunc:
                continue
            total = out.get(g, Fraction(0)) + ca * cb
            if total == 0:
                out.pop(g, None)
            else:
                out[g] = total
    return DiffOpSeries(a.n, trunc, out)


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
        power = power.compose(s)
        fact *= k
        acc = acc + power.scale(Fraction(1, fact))
    return acc


def reference_log(s):
    u = s - DiffOpSeries.identity(s.n, s.trunc)
    acc = DiffOpSeries(s.n, s.trunc)
    power = DiffOpSeries.identity(s.n, s.trunc)
    for k in range(1, s.trunc + 1):
        power = power.compose(u)
        acc = acc + power.scale(Fraction(-1 if k % 2 == 0 else 1, k))
    return acc


def reference_apply(s, p):
    out = Poly.zero(s.n)
    for alpha, c in s.coeffs.items():
        term = partial_multi(p, alpha)
        if not term.is_zero():
            out = out + term.scale(c)
    return out


def reference_aut_matrix(module, desc):
    log_part = DiffOpSeries(module.n, module.max_degree, desc.additive)
    return restrict(reference_exp(log_part).scale(desc.unit), module).images


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


def reference_extend_iso_step(phi, within=None):
    return _extend_iso_step(phi, reference_least_missing_monomial(phi.source, within))


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


def test_exp_log_match_convolution_reference():
    rng = random.Random(607)
    for n in (1, 2, 3):
        for trunc in range(5 if n < 3 else 4):
            cases = [
                DiffOpSeries(n, trunc),
                random_series(rng, n, trunc, zero_unit=True),
                random_series(rng, n, trunc, zero_unit=True),
                sparse_series(rng, n, trunc),
                sparse_series(rng, n, trunc),
            ]
            for s in cases:
                e = series_exp(s)
                assert e == reference_exp(s)
                assert series_log(e) == reference_log(e) == s
            for u in (
                DiffOpSeries.identity(n, trunc),
                random_series(rng, n, trunc, unit_one=True),
                sparse_series(rng, n, trunc, unit=1),
            ):
                assert series_log(u) == reference_log(u)


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
                assert image == phi.image_poly(j)


def test_extend_step_invariant_survives_optimize_flag():
    # The invariants are explicit raises, not asserts, so `python -O` keeps
    # them.  A potential inside the target is patched in to trip one.
    code = "\n".join(
        [
            "import nilmod.embed as embed",
            "from nilmod.diffop import extend_iso_step",
            "from nilmod.exactalg import QMatrix",
            "from nilmod.modcore import ModuleMap, submodule_from_polys",
            "from nilmod.multipoly import Poly",
            "print(__debug__)",
            "embed.potential = lambda gs, n: Poly.one(n)",
            "base = submodule_from_polys(1, [])",
            "try:",
            "    extend_iso_step(base, base, ModuleMap(base, base, QMatrix.identity(1)))",
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
    assert proc.stdout.splitlines() == ["False", "the extension image must be new"]


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
            assert _least_missing_monomial(src, None) == reference_least_missing_monomial(src, None)
            ours = extend_iso_step(src, tgt, phi)
            assert extension_json(ours[2]) == extension_json(reference_extend_iso_step(phi))
            assert ours[:2] == (ours[2].source, ours[2].target)
            for _ in range(3):
                within = random_lower_set(rng, n)
                try:
                    expected = extension_json(reference_extend_iso_step(phi, within))
                except NothingToExtend:
                    assert _least_missing_monomial(src, within) is None
                    with pytest.raises(NothingToExtend):
                        extend_iso_step(src, tgt, phi, within=within)
                    continue
                assert extension_json(extend_iso_step(src, tgt, phi, within=within)[2]) == expected
                assert extension_json(extend_iso(src, tgt, phi, within)) == extension_json(
                    reference_extend_iso(phi, within)
                )


def test_search_stops_one_degree_above_the_support():
    # span{1, x1 + x2}: x2 is the least missing monomial; once it is in,
    # x1 is too, and the next one missing has degree 2.
    one, x1, x2 = Poly.one(2), Poly.variable(2, 1), Poly.variable(2, 2)
    sub = PolySubmodule(2, [one, x1 + x2])
    assert _least_missing_monomial(sub, None) == (0, 1)
    grown = PolySubmodule(2, [one, x1 + x2, x2])
    assert _least_missing_monomial(grown, None) == (0, 2)
    goal = MonomialSubmodule(2, [(0, 0), (1, 0), (0, 1)])
    assert _least_missing_monomial(grown, goal) is None
    extended = extend_iso(sub, sub, identity_map(sub), goal)
    assert extended.source == grown


def test_extend_iso_runs_one_search_per_step(monkeypatch):
    calls = []
    real = diffop._least_missing_monomial
    monkeypatch.setattr(
        diffop, "_least_missing_monomial", lambda *args: calls.append(args) or real(*args)
    )
    sub = submodule_from_polys(2, [Poly(2, {(1, 0): 1, (0, 1): -2})])
    goal = MonomialSubmodule(2, lower_set_closure([(2, 0), (1, 1)]))
    extended = extend_iso(sub, sub, identity_map(sub), goal)
    steps = extended.source.dim - sub.dim
    assert steps == 3
    assert len(calls) == steps + 1


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


def test_aut_group_matches_series_reference():
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
                if module.m > 1:
                    # a perturbed entry above the diagonal: both refuse it alike
                    entries = [list(row) for row in matrix.entries]
                    entries[0][-1] += 1
                    bent = QMatrix(entries)
                    with pytest.raises(ValueError) as ours:
                        group.descriptor_of(bent)
                    with pytest.raises(ValueError) as theirs:
                        reference_descriptor_of(module, bent)
                    assert str(ours.value) == str(theirs.value)


def test_restrict_builds_the_span_once(monkeypatch):
    built = []
    real = PolySubmodule.__init__

    def counting(self, n, polys):
        built.append(n)
        real(self, n, polys)

    monkeypatch.setattr(PolySubmodule, "__init__", counting)
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
