"""Tests for sparse multivariate polynomials.

Oracles: exact evaluation at random rational points (for ring
arithmetic), a term-filtering reimplementation of the derivative and
the definite integral, and brute-force box enumeration for lower sets.
"""

import math
import random
from fractions import Fraction
from itertools import product

import pytest

from nilmod.multipoly import (
    MINUS_INFINITY,
    Poly,
    grlex_key,
    is_lower_set,
    lower_set_closure,
    monomials_of_degree,
    monomials_up_to_degree,
    multi_factorial,
    truncated_product,
)


def eval_at(p: Poly, point) -> Fraction:
    """Independent full evaluation (the library only evaluates at 0)."""
    total = Fraction(0)
    for alpha, c in p.terms.items():
        term = c
        for x, a in zip(point, alpha):
            term *= x**a
        total += term
    return total


def partial_multi(p: Poly, alpha) -> Poly:
    """d^alpha p, one partial derivative at a time."""
    for i, a in enumerate(alpha, start=1):
        for _ in range(a):
            p = p.partial(i)
    return p


def poly_to_vector(p: Poly, monomial_list):
    """Coefficient vector of p over an ordered monomial list, or None
    when p involves a monomial outside it."""
    if not p.terms.keys() <= set(monomial_list):
        return None
    return tuple(p.terms.get(alpha, Fraction(0)) for alpha in monomial_list)


def naive_partial(p: Poly, i: int) -> Poly:
    terms = {}
    for alpha, c in p.terms.items():
        a = alpha[i - 1]
        if a:
            beta = list(alpha)
            beta[i - 1] -= 1
            terms[tuple(beta)] = c * a
    return Poly(p.n, terms)


def random_poly(rng, n, degree, density=0.5):
    terms = {}
    for alpha in monomials_up_to_degree(n, degree):
        if rng.random() < density:
            terms[alpha] = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    return Poly(n, terms)


def random_point(rng, n):
    return [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]


# --- construction and normalization --------------------------------------

def test_zero_coefficients_dropped():
    p = Poly(2, {(1, 0): 0, (0, 1): 2})
    assert p.monomials() == {(0, 1)}
    assert Poly(2, {(1, 1): 0}).is_zero()


def test_bad_exponents_rejected():
    with pytest.raises(ValueError):
        Poly(2, {(1,): 1})
    with pytest.raises(ValueError):
        Poly(2, {(-1, 0): 1})
    with pytest.raises(ValueError):
        Poly(0, {})


def test_equality_is_structural():
    assert Poly(2, {(1, 0): 1}) == Poly(2, {(1, 0): Fraction(2, 2)})
    assert Poly(1, {(1,): 1}) != Poly(2, {(1, 0): 1})


# --- ring arithmetic ------------------------------------------------------

def test_arithmetic_against_evaluation_oracle():
    rng = random.Random(101)
    for _ in range(40):
        n = rng.randint(1, 3)
        p = random_poly(rng, n, 4)
        q = random_poly(rng, n, 4)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        pt = random_point(rng, n)
        assert eval_at(p + q, pt) == eval_at(p, pt) + eval_at(q, pt)
        assert eval_at(p - q, pt) == eval_at(p, pt) - eval_at(q, pt)
        assert eval_at(p * q, pt) == eval_at(p, pt) * eval_at(q, pt)
        assert eval_at(p.scale(c), pt) == c * eval_at(p, pt)
        assert eval_at(p * 2, pt) == eval_at(2 * p, pt) == 2 * eval_at(p, pt)
        assert eval_at(-p, pt) == -eval_at(p, pt)


def assert_canonical(p: Poly):
    """p stores nonzero integer numerators over a positive denominator
    coprime to them all, and equals the validated Poly on its own terms:
    what Poly._trusted must make of what its callers hand it."""
    assert p._den > 0 and all(type(c) is int and c != 0 for c in p._nums.values()), (p._den, p._nums)
    assert math.gcd(p._den, *p._nums.values()) == 1, (p._den, p._nums)
    assert all(isinstance(c, Fraction) and c != 0 for c in p.terms.values()), p.terms
    assert p == Poly(p.n, p.terms)


def test_trusted_results_store_no_zeros():
    # Each operation below cancels terms; the results go through
    # Poly._trusted and must still be canonical.
    rng = random.Random(137)
    for _ in range(40):
        n = rng.randint(1, 3)
        p = random_poly(rng, n, 3)
        q = random_poly(rng, n, 3)
        overlap = Poly(n, {a: -c for a, c in p.terms.items() if rng.random() < 0.5})
        results = [p + overlap, p - p, p - (p + q), -p, p.scale(0), p.scale(Fraction(-2, 3))]
        results += [p.partial(i) for i in range(1, n + 1)]
        results += [truncated_product(p, q, bound) for bound in range(-1, 7)]
        results.append(truncated_product(p + Poly.one(n), p - Poly.one(n), 4))
        for out in results:
            assert_canonical(out)
        assert (p + overlap).terms.keys() == p.terms.keys() - overlap.terms.keys()
        assert (p - p).is_zero()
    # (1 + x + y)(1 - x - y) = 1 - x^2 - 2xy - y^2: both linear terms cancel
    square = truncated_product(Poly(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1}), Poly(2, {(0, 0): 1, (1, 0): -1, (0, 1): -1}), 2)
    assert_canonical(square)
    assert square.terms == {(0, 0): 1, (2, 0): -1, (1, 1): -2, (0, 2): -1}


def test_mul_variable_count_mismatch():
    with pytest.raises(ValueError):
        Poly.one(1) * Poly.one(2)
    with pytest.raises(ValueError):
        Poly.zero(1) * Poly.zero(2)


def test_truncated_product_keeps_the_low_degree_terms():
    rng = random.Random(131)
    for _ in range(40):
        n = rng.randint(1, 3)
        p = random_poly(rng, n, 3)
        q = random_poly(rng, n, 3, density=rng.choice([0.0, 0.3, 1.0]))
        full = p * q
        assert full == truncated_product(p, q, 6)
        for bound in range(-1, 7):
            expected = {a: c for a, c in full.terms.items() if sum(a) <= bound}
            assert truncated_product(p, q, bound).terms == expected
    # (1 + x)(1 - x) = 1 - x^2: the cancelled x term is not stored
    assert truncated_product(Poly(1, {(0,): 1, (1,): 1}), Poly(1, {(0,): 1, (1,): -1}), 2) == Poly(
        1, {(0,): 1, (2,): -1}
    )
    assert Poly.zero(2) * Poly.one(2) == Poly.one(2) * Poly.zero(2) == Poly.zero(2)


# --- derivatives and integrals -------------------------------------------

def test_partial_fixed_cases():
    p = Poly(2, {(2, 1): 1})  # x1^2 x2
    assert p.partial(1) == Poly(2, {(1, 1): 2})
    assert Poly.constant(2, 5).partial(1).is_zero()


def test_partial_matches_naive():
    rng = random.Random(103)
    for _ in range(40):
        n = rng.randint(1, 3)
        p = random_poly(rng, n, 5)
        for i in range(1, n + 1):
            assert p.partial(i) == naive_partial(p, i)


def test_mixed_partials_commute():
    rng = random.Random(107)
    for _ in range(30):
        p = random_poly(rng, 3, 5)
        assert p.partial(1).partial(2) == p.partial(2).partial(1)


def test_variable_index_out_of_range():
    p = Poly.one(2)
    for bad in (0, 3, -1):
        with pytest.raises(IndexError):
            p.partial(bad)
        with pytest.raises(IndexError):
            p.degree_in(bad)


# --- coefficient access and degrees ---------------------------------------

def eval_zero(p):
    """The constant term of p, its value at the origin."""
    return p.terms.get((0,) * p.n, 0)


def test_eval_zero_and_coeff():
    p = Poly(2, {(0, 0): 3, (1, 0): 1, (0, 1): 0})
    assert eval_zero(p) == 3
    assert p.terms == {(0, 0): 3, (1, 0): 1}
    assert eval_zero(Poly.zero(2)) == 0


def test_degrees():
    p = Poly(2, {(2, 1): 1, (0, 3): -1})
    assert p.degree_in(1) == 2
    assert p.degree_in(2) == 3
    assert p.total_degree() == 3
    z = Poly.zero(2)
    assert z.total_degree() == MINUS_INFINITY
    assert z.degree_in(1) == MINUS_INFINITY


def test_taylor_coefficient_identity():
    # coeff(p, a) * a! equals applying d^a then evaluating at zero
    rng = random.Random(113)
    for _ in range(30):
        n = rng.randint(1, 3)
        p = random_poly(rng, n, 4)
        alpha = tuple(rng.randint(0, 2) for _ in range(n))
        assert p.terms.get(alpha, 0) * multi_factorial(alpha) == eval_zero(partial_multi(p, alpha))


def test_multi_factorial():
    assert multi_factorial((0, 0)) == 1
    assert multi_factorial((2, 3, 1)) == 12
    assert multi_factorial((4,)) == 24


# --- monomial order --------------------------------------------------------

def test_grlex_order_literal():
    expected = [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    got = sorted(monomials_up_to_degree(2, 2), key=grlex_key)
    assert got == expected


def test_grlex_total_order_properties():
    rng = random.Random(127)
    alphas = [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(30)]
    for a in alphas:
        for b in alphas:
            # trichotomy
            assert (grlex_key(a) < grlex_key(b)) + (grlex_key(a) > grlex_key(b)) + (
                a == b
            ) == 1
    # refines total degree
    for a in alphas:
        for b in alphas:
            if sum(a) < sum(b):
                assert grlex_key(a) < grlex_key(b)


def test_monomial_counts():
    assert len(list(monomials_of_degree(3, 4))) == math.comb(6, 2)
    assert len(list(monomials_up_to_degree(2, 3))) == 10
    assert list(monomials_of_degree(1, 2)) == [(2,)]


def recursive_monomials_of_degree(n, degree):
    """The recursive enumeration: the first exponent from degree down to
    0, then the rest in the same order."""
    if n == 1:
        return [(degree,)] if degree >= 0 else []
    return [(first,) + rest for first in range(degree, -1, -1) for rest in recursive_monomials_of_degree(n - 1, degree - first)]


def test_monomials_of_degree_keep_the_recursive_order():
    for n in range(1, 6):
        for degree in range(-1, 8):
            assert list(monomials_of_degree(n, degree)) == recursive_monomials_of_degree(n, degree)


def test_monomials_of_degree_do_not_recurse_per_variable():
    assert list(monomials_of_degree(3000, 0)) == [(0,) * 3000]
    assert list(monomials_of_degree(3000, 1))[-1] == (0,) * 2999 + (1,)


@pytest.mark.parametrize("n", [0, -1])
def test_monomials_need_a_variable(n):
    with pytest.raises(ValueError, match="^variable count must be at least 1$"):
        list(monomials_of_degree(n, 2))
    with pytest.raises(ValueError, match="^variable count must be at least 1$"):
        list(monomials_up_to_degree(n, 2))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_negative_degrees_have_no_monomials(n):
    for degree in (-1, -2, -5):
        assert list(monomials_of_degree(n, degree)) == []
        assert list(monomials_up_to_degree(n, degree)) == []
    assert list(monomials_up_to_degree(n, 0)) == [(0,) * n]


# --- lower sets -------------------------------------------------------------

def test_lower_set_closure_fixed():
    assert lower_set_closure([(0, 0)]) == {(0, 0)}
    assert lower_set_closure([(1, 1)]) == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_lower_set_closure_brute_force():
    rng = random.Random(131)
    for _ in range(20):
        n = rng.randint(1, 3)
        gens = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(3)]
        closed = lower_set_closure(gens)
        assert is_lower_set(closed)
        box = product(*(range(4) for _ in range(n)))
        for beta in box:
            should = any(all(b <= g for b, g in zip(beta, g_)) for g_ in gens)
            assert (beta in closed) == should


def test_is_lower_set():
    assert is_lower_set({(0, 0), (1, 0)})
    assert not is_lower_set({(1, 0)})
    assert not is_lower_set({(0, 0), (2, 0)})


# --- serialization -----------------------------------------------------------

def test_json_round_trip_and_order():
    p = Poly(2, {(1, 1): Fraction(1, 2), (0, 0): -3, (2, 0): 1})
    data = p.to_json()
    assert [d["exps"] for d in data] == [[2, 0], [1, 1], [0, 0]]
    assert Poly.from_json(data, 2) == p


def test_json_rejects_duplicates_and_zeros():
    with pytest.raises(ValueError):
        Poly.from_json(
            [{"exps": [1, 0], "coef": "1"}, {"exps": [1, 0], "coef": "2"}], 2
        )
    with pytest.raises(ValueError):
        Poly.from_json([{"exps": [1, 0], "coef": "0"}], 2)
    with pytest.raises(ValueError):
        Poly.from_json([{"exps": [1], "coef": "1"}], 2)


# --- coefficient vectors ------------------------------------------------------

def test_poly_vector_round_trip():
    rng = random.Random(137)
    for _ in range(20):
        p = random_poly(rng, 2, 3)
        order = sorted(
            set(monomials_up_to_degree(2, 3)), key=grlex_key, reverse=True
        )
        v = poly_to_vector(p, order)
        assert v is not None
        assert Poly(2, dict(zip(order, v))) == p
    assert poly_to_vector(Poly(2, {(5, 5): 1}), order) is None


def test_plus_is_the_fraction_sum():
    # p + (num/den) q on the integer forms, den of either sign, against
    # the `Fraction` view.
    rng = random.Random(703)
    for _ in range(200):
        n = rng.randint(1, 3)
        p, q = (Poly(n, {tuple(rng.randint(0, 2) for _ in range(n)): Fraction(rng.randint(-6, 6), rng.randint(1, 9))
                         for _ in range(rng.randint(0, 4))}) for _ in range(2))
        num, den = rng.randint(-5, 5), rng.choice([-7, -2, -1, 1, 3, 10])
        got = p._plus(num, den, q)
        c = Fraction(num, den)
        expected = {a: p.terms.get(a, 0) + c * q.terms.get(a, 0) for a in p.terms.keys() | q.terms.keys()}
        assert got == Poly(n, expected)
        assert got._den > 0 and math.gcd(got._den, *got._nums.values()) == 1
